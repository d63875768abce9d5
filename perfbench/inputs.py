"""Seeded inputs for the three workloads.

Every input is QASM text plus a device name, built from the Table-II
registry.  The workload seed decides request order, duplicate pairing,
repeat reformatting and the warm-up circuits; it never changes *which*
compilations a run performs, so the exact metrics (``g_add``,
``depth_out``) read the same for every seed and every run of one commit.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.bench_circuits.suites import TABLE_II
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.random_circuits import random_circuit
from repro.qasm import emit_qasm

DEVICES = ("ibm_q20_tokyo", "ibm_qx5")
DEVICE_QUBITS = {"ibm_q20_tokyo": 20, "ibm_qx5": 16}

#: compile_table2 row cut: Table-II rows of at most this many gates.
#: One pass is about 6 s at reference speed.
COMPILE_MAX_GATES = 3500
#: Rows the two serve workloads hit in the store (priming cost ~1 s).
WARM_MAX_GATES = 1000
#: serve_mixed compiles relabelled copies of these rows: mid-sized,
#: within 2x of each other in cost, so the latency tail is set by
#: queueing rather than by which rows a seed puts where.
NOVEL_ROWS = ("rd84_142", "qft_13", "ising_model_10", "ising_model_13")


@dataclass(frozen=True)
class Item:
    """One distinct compilation: its QASM text and target device."""

    label: str
    device: str
    qasm: str
    gates: int
    lines: int

    def payload(self, qasm: str = "") -> Dict[str, object]:
        return {"qasm": qasm or self.qasm, "device": self.device}


def _item(label: str, device: str, circuit: QuantumCircuit) -> Item:
    text = emit_qasm(circuit)
    return Item(label, device, text, len(circuit.gates), text.count("\n"))


def table2_items(max_gates: int) -> List[Item]:
    """Table-II rows of at most ``max_gates`` gates, on every device
    they fit."""
    items = []
    for device in DEVICES:
        for spec in TABLE_II:
            if spec.paper_gates > max_gates:
                continue
            if spec.num_qubits > DEVICE_QUBITS[device]:
                continue
            items.append(_item(f"{spec.name}@{device}", device, spec.build()))
    return items


def relabelled(circuit: QuantumCircuit, mapping: Sequence[int]) -> QuantumCircuit:
    out = QuantumCircuit(circuit.num_qubits, circuit.name, circuit.num_clbits)
    for gate in circuit:
        out.append(gate.remapped(mapping))
    return out


def novel_rounds(count: int) -> List[List[Item]]:
    """``count`` relabelled Table-II rows, in rounds that each hold
    every (row, device) pair once under one permutation.

    A relabelled row is a new gate list, so it is a cold compile with
    its own IR build, while its cost stays that of the row.  The
    permutations are keyed by row and round, not by workload seed.
    """
    pairs = [
        (spec, device)
        for device in DEVICES
        for spec in TABLE_II
        if spec.name in NOVEL_ROWS
    ]
    rounds: List[List[Item]] = []
    for k in range(1, count // len(pairs) + 2):
        batch = []
        for spec, device in pairs[: count - len(pairs) * (k - 1)]:
            base = spec.build()
            mapping = list(range(base.num_qubits))
            random.Random(f"{spec.name}/{k}").shuffle(mapping)
            batch.append(
                _item(f"{spec.name}~{k}@{device}", device, relabelled(base, mapping))
            )
        if batch:
            rounds.append(batch)
    return rounds


def warmup_items(seed: int) -> List[Item]:
    """Random circuits disjoint from every timed one; one carries
    Toffolis so the decomposition path warms up too."""
    items = []
    for device in DEVICES:
        plain = random_circuit(12, 500, seed=seed, two_qubit_fraction=0.6)
        toffoli = random_circuit(8, 150, seed=seed + 1)
        rng = random.Random(seed)
        for _ in range(20):
            a, b, c = rng.sample(range(8), 3)
            toffoli.ccx(a, b, c)
        items.append(_item(f"warm-plain@{device}", device, plain))
        items.append(_item(f"warm-ccx@{device}", device, toffoli))
    return items


_QREG = re.compile(r"\bq\[")
_CREG = re.compile(r"\bc\[")


def reformatted(text: str, rng: random.Random, tag: int) -> str:
    """Same circuit, different bytes: renamed registers and/or changed
    whitespace, plus a unique comment so no two variants match."""
    style = rng.randrange(3)
    if style in (0, 2):
        qname = f"r{rng.randrange(1000)}"
        cname = f"m{rng.randrange(1000)}"
        text = _CREG.sub(f"{cname}[", _QREG.sub(f"{qname}[", text))
    if style in (1, 2):
        text = text.replace(", ", " ,  ").replace(";\n", " ;\n\n")
    return f"// variant {tag}\n{text}"


def shuffled(items: Sequence[Item], rng: random.Random) -> List[Item]:
    out = list(items)
    rng.shuffle(out)
    return out


#: One serve_mixed block: three cold requests (two of them coalesce)
#: and five store hits.
BLOCK = ("novel", "repeat", "dup", "dup", "repeat", "repeat", "repeat", "repeat")


def mixed_schedule(
    seed: int, warm: Sequence[Item], total: int
) -> Tuple[List[Tuple[str, Item, str]], List[Item]]:
    """The serve_mixed request stream, ``total`` requests long, and the
    novel items it compiles.

    Blocks of eight slots (:data:`BLOCK`): one novel compile, one
    simultaneous duplicate pair of another novel compile, five
    reformatted repeats of primed rows.  Returns ``(kind, item, qasm)``
    triples; a duplicate pair is two consecutive ``dup`` entries with
    the same item.  Novel items are shuffled within their round, so
    every stretch of the run carries the same mix of circuit sizes.
    """
    blocks = total // len(BLOCK)
    rng = random.Random(seed)
    novel_order: List[Item] = []
    for batch in novel_rounds(2 * blocks):
        novel_order.extend(shuffled(batch, rng))
    warm_cycle: List[Item] = []
    out: List[Tuple[str, Item, str]] = []
    tag = 0
    for block in range(blocks):
        single = novel_order[2 * block]
        pair = novel_order[2 * block + 1]
        for kind in BLOCK:
            if kind == "repeat":
                if not warm_cycle:
                    warm_cycle = shuffled(warm, rng)
                item = warm_cycle.pop()
                tag += 1
                out.append((kind, item, reformatted(item.qasm, rng, tag)))
            elif kind == "dup":
                out.append((kind, pair, pair.qasm))
            else:
                out.append((kind, single, single.qasm))
    return out, novel_order
