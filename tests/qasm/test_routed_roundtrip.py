"""QASM round-trips of *routed* circuits, across presets and devices.

The serving layer ships routed circuits as QASM text, so the wire
format must be lossless for compiler *outputs*, not just hand-written
inputs: ``parse(emit(routed))`` has to preserve the exact gate list,
the hardware compliance the pipeline verified, and the measurement
directives the routing relabelled onto physical wires.  Every pipeline
preset is exercised on the paper's Tokyo device plus both directed
chips (QX2, QX5); presets whose compliance gate is direction-aware get
direction legalisation composed on for the directed devices, exactly
as a directed-device deployment would run them.
"""

import pytest

from repro.circuits import QuantumCircuit
from repro.hardware import get_device, ibm_q20_tokyo
from repro.hardware.devices import ibm_qx2, ibm_qx5
from repro.hardware.noise import NoiseModel
from repro.pipeline import Pipeline, compose_pipeline, preset_names
from repro.qasm import emit_qasm, parse_qasm
from repro.verify import is_hardware_compliant

DEVICES = {
    "ibm_qx2": ibm_qx2,
    "ibm_qx5": ibm_qx5,
    "ibm_q20_tokyo": ibm_q20_tokyo,
}

#: Presets whose pass list ends in a direction-aware ComplianceCheck;
#: on directed devices they need LegalizeDirections composed on (the
#: directed_device preset already carries it).
DIRECTION_GATED = ("bridge", "baseline_trivial", "baseline_greedy", "baseline_astar")

NOISE = NoiseModel(edge_errors={(0, 1): 0.1, (1, 2): 0.05})


def workload() -> QuantumCircuit:
    """A 4-qubit circuit with entanglement spread plus measurements."""
    circuit = QuantumCircuit(4, name="roundtrip_probe")
    circuit.h(0)
    circuit.cx(0, 3)
    circuit.t(1)
    circuit.cx(1, 2)
    circuit.rz(0.25, 2)
    circuit.cx(0, 2)
    circuit.cx(3, 1)
    circuit.cx(2, 3)
    circuit.barrier(0, 1, 2, 3)
    for q in range(4):
        circuit.measure(q, q)
    return circuit


def run_preset(preset: str, device_name: str):
    device = DEVICES[device_name]()
    directed = not device.is_symmetric
    if directed and preset in DIRECTION_GATED:
        pipeline = compose_pipeline(preset, legalize_directions=True)
    else:
        pipeline = Pipeline(preset)
    kwargs = {"noise": NOISE} if preset == "noise_aware" else {}
    if preset == "hybrid":
        # One trial leaves nothing to shard: the preset would run it
        # serially anyway, with a downgrade warning that is beside the
        # point of a wire-format test.
        kwargs["executor"] = "serial"
    result = pipeline.run(
        workload(), device, seed=0, num_trials=1, **kwargs
    )
    return result, device


@pytest.mark.parametrize("device_name", sorted(DEVICES))
@pytest.mark.parametrize("preset", preset_names())
def test_routed_roundtrip(preset, device_name):
    result, device = run_preset(preset, device_name)
    routed = result.physical_circuit(decompose_swaps=True)

    text = emit_qasm(routed)
    back = parse_qasm(text)

    # Gate list preserved exactly (names, operands, params, clbits).
    assert back.gates == routed.gates
    assert back.num_qubits == routed.num_qubits
    assert back.num_clbits == routed.num_clbits

    # Compliance preserved through the wire format.  Direction matters
    # whenever the pipeline guaranteed it (directed device + a
    # direction-aware compliance gate in the preset).
    check_direction = (not device.is_symmetric) and (
        preset == "directed_device" or preset in DIRECTION_GATED
    )
    assert is_hardware_compliant(routed, device, check_direction)
    assert is_hardware_compliant(back, device, check_direction)

    # Measurement (and barrier) directives survive routing + round-trip.
    input_measures = sum(1 for g in workload() if g.name == "measure")
    routed_measures = [g for g in routed if g.name == "measure"]
    back_measures = [g for g in back if g.name == "measure"]
    assert len(routed_measures) == input_measures
    assert back_measures == routed_measures
    assert sum(1 for g in back if g.name == "barrier") == sum(
        1 for g in routed if g.name == "barrier"
    )


@pytest.mark.parametrize("device_name", sorted(DEVICES))
def test_second_emit_is_stable(device_name):
    """emit(parse(emit(routed))) is byte-identical (emitter fixpoint)."""
    result, _ = run_preset("paper_default", device_name)
    routed = result.physical_circuit(decompose_swaps=True)
    once = emit_qasm(routed)
    assert emit_qasm(parse_qasm(once)) == once
