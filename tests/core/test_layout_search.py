"""The no-emit lockstep layout search vs the emitting per-traversal loop.

Under the ``vector`` scorer :meth:`SabreLayout.run` routes every trial
in lockstep search mode and builds one circuit — the winner's, by
replay.  The ``fast`` scorer keeps the emitting loop, in which every
traversal builds its circuit.  Both must agree on everything a caller
can see: routed QASM, SWAP positions, layouts, per-trial records and
the winning trial, including the tie order (earliest trial, then
earliest traversal).
"""

import pytest

from repro.bench_circuits.suites import TABLE_II
from repro.circuits import QuantumCircuit, random_circuit
from repro.circuits.depth import circuit_depth
from repro.circuits.reverse import reversed_circuit
from repro.core import HeuristicConfig, Layout, SabreLayout, SabreRouter
from repro.engine.ensemble import decompose_like_pipeline
from repro.hardware import get_device, line_device
from repro.qasm import emit_qasm
from repro.telemetry.profile import profiled_routing

DEVICES = ("ibm_q20_tokyo", "ibm_qx5")
TRIALS = (1, 2, 5)
TRAVERSALS = (1, 3, 5)


def _rows(min_gates, max_gates):
    """(label, circuit, device) for Table-II rows in a gate range, on
    every device they fit."""
    rows = []
    for spec in TABLE_II:
        if not min_gates < spec.paper_gates <= max_gates:
            continue
        circuit = decompose_like_pipeline(spec.build())
        for name in DEVICES:
            device = get_device(name)
            if spec.num_qubits <= device.num_qubits:
                rows.append((f"{spec.name}@{name}", circuit, device))
    return rows


def _search(device, circuit, scorer, trials, traversals, seed):
    return SabreLayout(
        device,
        config=HeuristicConfig(scorer=scorer),
        num_trials=trials,
        num_traversals=traversals,
        seed=seed,
    ).run(circuit)


def snapshot(result):
    """Everything a caller can observe of a layout-search result."""
    routing = result.routing
    return (
        emit_qasm(routing.circuit),
        routing.swap_positions,
        routing.num_swaps,
        result.initial_layout.l2p,
        routing.initial_layout.l2p,
        routing.final_layout.l2p,
        [(t.seed, t.first_pass_swaps, t.final_swaps) for t in result.trials],
        result.best_trial_index,
    )


def assert_same_search(device, circuit, trials, traversals, seed, label=""):
    vector = _search(device, circuit, "vector", trials, traversals, seed)
    fast = _search(device, circuit, "fast", trials, traversals, seed)
    assert snapshot(vector) == snapshot(fast), (
        label, trials, traversals, seed,
    )


class TestTableTwoDifferential:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    @pytest.mark.parametrize("traversals", TRAVERSALS)
    @pytest.mark.parametrize("trials", TRIALS)
    def test_small_rows(self, trials, traversals, seed):
        for label, circuit, device in _rows(0, 250):
            assert_same_search(device, circuit, trials, traversals, seed, label)

    @pytest.mark.slow
    @pytest.mark.parametrize("traversals", TRAVERSALS)
    @pytest.mark.parametrize("trials", TRIALS)
    def test_mid_rows(self, trials, traversals):
        for label, circuit, device in _rows(250, 1000):
            assert_same_search(device, circuit, trials, traversals, 3, label)

    @pytest.mark.slow
    def test_large_rows_paper_config(self):
        """The rows up to 3,500 gates at the paper's 5 trials x 3
        traversals (the ``compile_circuit`` default)."""
        for label, circuit, device in _rows(1000, 3500):
            assert_same_search(device, circuit, 5, 3, 0, label)


class TestTieOrder:
    """On a full ``(num_swaps, depth)`` tie the earliest trial, and
    inside a trial the earliest forward traversal, wins — under both
    search paths."""

    device = line_device(4)

    @staticmethod
    def key(routing):
        return routing.num_swaps, circuit_depth(routing.circuit)

    @staticmethod
    def trial_tie_circuit():
        # Trials 9 and 10 both need 2 SWAPs at depth 3 but route
        # differently.
        circ = QuantumCircuit(4, name="tie")
        circ.cx(0, 3)
        circ.cx(1, 2)
        return circ

    @staticmethod
    def traversal_tie_circuit():
        # With trial seed 9, the first and the last forward traversal
        # both need 1 SWAP at depth 6 from different initial mappings.
        return random_circuit(4, 6, seed=9, two_qubit_fraction=0.7)

    def test_trial_tie(self):
        circ = self.trial_tie_circuit()
        solo = [
            _search(self.device, circ, "fast", 1, 3, seed).routing
            for seed in (9, 10)
        ]
        assert self.key(solo[0]) == self.key(solo[1])
        assert solo[0].circuit != solo[1].circuit
        for scorer in ("vector", "fast"):
            result = _search(self.device, circ, scorer, 2, 3, 9)
            assert result.best_trial_index == 0, scorer
            assert result.routing.circuit == solo[0].circuit, scorer

    def test_traversal_tie(self):
        circ = self.traversal_tie_circuit()
        router = SabreRouter(self.device, config=HeuristicConfig(scorer="fast"))
        first = router.run(circ, Layout.random(4, seed=9), seed=9)
        back = router.run(reversed_circuit(circ), first.final_layout, seed=9)
        last = router.run(circ, back.final_layout, seed=9)
        assert self.key(first) == self.key(last)
        assert first.circuit != last.circuit
        for scorer in ("vector", "fast"):
            result = _search(self.device, circ, scorer, 1, 3, 9)
            assert result.routing.circuit == first.circuit, scorer
            assert result.initial_layout == first.initial_layout, scorer

    def test_paths_agree(self):
        for circ in (self.trial_tie_circuit(), self.traversal_tie_circuit()):
            for trials, traversals in ((2, 3), (5, 5)):
                assert_same_search(self.device, circ, trials, traversals, 9)


class TestTelemetryParity:
    def _circuit(self):
        return random_circuit(20, 300, seed=4, two_qubit_fraction=0.8)

    def test_profiled_run_routes_identically(self, tokyo):
        circ = self._circuit()
        plain = _search(tokyo, circ, "vector", 5, 3, 0)
        with profiled_routing() as prof:
            profiled = _search(tokyo, circ, "vector", 5, 3, 0)
        assert snapshot(profiled) == snapshot(plain)
        assert prof.steps > 0
        assert prof.kernel_calls > 0 and prof.kernel_seconds > 0
        assert prof.tie_total >= prof.steps  # every step reports a tie size

    def test_profile_and_winner_sets_match_emitting_loop(self, tokyo):
        """One profiled step and one winner set per SWAP selection,
        with the same tie sizes as the emitting loop's."""
        circ = self._circuit()
        seen = {}
        for scorer in ("vector", "fast"):
            search = SabreLayout(
                tokyo, config=HeuristicConfig(scorer=scorer),
                num_trials=3, num_traversals=3, seed=1,
            )
            sets = []
            search.router.on_winner_set = lambda best, sets=sets: sets.append(
                sorted(best)
            )
            with profiled_routing() as prof:
                search.run(circ)
            seen[scorer] = (prof.steps, prof.tie_total, prof.tie_max, sets)
        v_steps, v_ties, v_max, v_sets = seen["vector"]
        f_steps, f_ties, f_max, f_sets = seen["fast"]
        assert v_steps == f_steps == len(v_sets) == len(f_sets) > 0
        assert (v_ties, v_max) == (f_ties, f_max)
        # Lockstep interleaves the trials' steps; the multiset agrees.
        assert sorted(v_sets) == sorted(f_sets)

    def test_single_trial_winner_sets_in_order(self, tokyo):
        circ = self._circuit()
        traces = {}
        for scorer in ("vector", "fast"):
            search = SabreLayout(
                tokyo, config=HeuristicConfig(scorer=scorer),
                num_trials=1, num_traversals=3, seed=2,
            )
            steps = []
            search.router.on_winner_set = lambda best, steps=steps: steps.append(
                list(best)
            )
            search.run(circ)
            traces[scorer] = steps
        assert traces["vector"] == traces["fast"]
        assert traces["vector"]

    @pytest.mark.parametrize(
        "trials,traversals,replays", [(5, 3, 1), (2, 1, 1), (1, 1, 0)]
    )
    def test_search_replays_only_the_winner(
        self, tokyo, monkeypatch, trials, traversals, replays
    ):
        calls = {"replay": 0}
        original = SabreRouter._replay

        def counting_replay(self, *args, **kwargs):
            calls["replay"] += 1
            return original(self, *args, **kwargs)

        def forbidden_run(self, *args, **kwargs):
            raise AssertionError("the vector search called SabreRouter.run")

        monkeypatch.setattr(SabreRouter, "_replay", counting_replay)
        monkeypatch.setattr(SabreRouter, "run", forbidden_run)
        result = _search(tokyo, self._circuit(), "vector", trials, traversals, 0)
        assert calls["replay"] == replays
        assert len(result.trials) == trials
