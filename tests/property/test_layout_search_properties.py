"""Property: the lockstep no-emit layout search (``vector`` scorer) and
the emitting per-traversal loop (``fast`` scorer) return the same
:class:`~repro.core.bidirectional.BidirectionalResult` for any circuit,
seed, trial count, traversal count and heuristic mode — including runs
that hit the livelock escape hatch, whose SWAP spans the replay must
reproduce."""

from hypothesis import given, settings, strategies as st

from repro.circuits import random_circuit
from repro.core import HeuristicConfig, SabreLayout
from repro.hardware import grid_device, ring_device
from repro.qasm import emit_qasm

DEVICES = {"grid4x4": grid_device(4, 4), "ring6": ring_device(6)}


def _observe(device, circuit, scorer, mode, trials, traversals, seed, stall):
    search = SabreLayout(
        device,
        config=HeuristicConfig(mode=mode, scorer=scorer),
        num_trials=trials,
        num_traversals=traversals,
        seed=seed,
    )
    if stall is not None:
        search.router.stall_limit = stall
    result = search.run(circuit)
    routing = result.routing
    return (
        emit_qasm(routing.circuit),
        routing.swap_positions,
        routing.num_forced_escapes,
        result.initial_layout.l2p,
        routing.final_layout.l2p,
        [(t.seed, t.first_pass_swaps, t.final_swaps) for t in result.trials],
        result.best_trial_index,
    )


@settings(max_examples=50, deadline=None)
@given(
    device_name=st.sampled_from(sorted(DEVICES)),
    circuit_seed=st.integers(min_value=0, max_value=10_000),
    gates=st.integers(min_value=1, max_value=80),
    seed=st.integers(min_value=0, max_value=1_000),
    trials=st.integers(min_value=1, max_value=4),
    traversals=st.sampled_from([1, 3, 5]),
    mode=st.sampled_from(["basic", "lookahead", "decay"]),
    stall=st.sampled_from([None, 1, 3]),
)
def test_lockstep_search_matches_emitting_loop(
    device_name, circuit_seed, gates, seed, trials, traversals, mode, stall
):
    device = DEVICES[device_name]
    circuit = random_circuit(
        device.num_qubits, gates, seed=circuit_seed, two_qubit_fraction=0.8
    )
    args = (mode, trials, traversals, seed, stall)
    assert _observe(device, circuit, "vector", *args) == _observe(
        device, circuit, "fast", *args
    )
