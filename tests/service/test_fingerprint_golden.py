"""Store-key stability: CompileRequest.fingerprint against a golden table.

A persisted result store is keyed by these fingerprints, so a front-end
change that shifts a single parsed parameter by one ulp would turn every
stored entry cold without any error.  ``fingerprints_golden.json`` holds
the keys of every Table-II row of at most 3,500 gates on
``ibm_q20_tokyo`` and ``ibm_qx5`` (as the emitter writes them), plus
hand-written programs whose parameters are ``pi`` expressions.
Whitespace, comment and register-rename variants of each row must map
to the row's key.

Regenerate the table (only on purpose, when the key format changes):
``PYTHONPATH=src python tests/service/test_fingerprint_golden.py``.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, Tuple

import pytest

from repro.bench_circuits.suites import TABLE_II
from repro.qasm import emit_qasm
from repro.service.request import CompileRequest

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "fingerprints_golden.json")
DEVICES = {"ibm_q20_tokyo": 20, "ibm_qx5": 16}
MAX_GATES = 3500

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

#: Programs whose parameters are expressions: the keys pin the exact
#: floating-point values the parser computes for them.
EXPRESSION_PROGRAMS = {
    "pi-arith": HEADER + (
        "qreg q[3];\ncreg c[3];\n"
        "u1(pi/4) q[0];\n"
        "u3(-pi/2, 3*pi/4, pi^2) q[1];\n"
        "u2(-pi/4 + 1, 2*pi/3) q[2];\n"
        "rz(+pi - -pi/7) q[0];\n"
        "rx(2^-3*pi) q[1];\n"
        "ry(-2^2/pi) q[2];\n"
        "cu1(pi/3 - pi/5*2) q[0], q[1];\n"
        "rzz(1.5e-1*pi) q[1], q[2];\n"
        "measure q -> c;\n"
    ),
    "pi-functions": HEADER + (
        "qreg q[2];\n"
        "rz(sin(pi/3) + cos(pi/5)) q[0];\n"
        "rz(tan(pi/8) * sqrt(2)) q[1];\n"
        "u3(exp(-pi/9), ln(pi), sqrt(pi^3)/2) q[0];\n"
        "crz(((pi))/(1+2)) q[0], q[1];\n"
    ),
    "pi-macros": HEADER + (
        "qreg a[2];\nqreg b[2];\ncreg m[2];\ncreg n[2];\n"
        "gate tilt(t, s) x, y { rz(t/2 - pi/8) x; cx x, y; u3(s, -t, pi*t) y; }\n"
        "cu3(pi/3, pi/5, -pi/7) a[0], b[1];\n"
        "crx(pi/9) a[1], b[0];\n"
        "cry(0.5*pi) b[0], a[0];\n"
        "u(pi, -pi/2, pi/16) b[1];\n"
        "p(-3*pi/8) a[0];\n"
        "u0(1) a[1];\n"
        "tilt(pi/3, 0.25) a, b;\n"
        "U(pi/2, 0, pi) a[0];\n"
        "CX a[0], b[0];\n"
        "barrier a, b[1];\n"
        "measure a -> m;\n"
        "measure b[1] -> n[1];\n"
    ),
}

#: Non-default request options, checked on one row.
OPTION_VARIANTS = {
    "seed3": {"seed": 3},
    "fast": {"pipeline": "fast", "num_trials": 2},
    "config": {"config": (("extended_set_weight", 0.75),), "objective": "depth"},
}


def table2_rows() -> Dict[str, Tuple[str, str]]:
    """label -> (device, emitted QASM) for every row that fits each device."""
    rows = {}
    for device, qubits in DEVICES.items():
        for spec in TABLE_II:
            if spec.paper_gates <= MAX_GATES and spec.num_qubits <= qubits:
                rows[f"{spec.name}@{device}"] = (device, emit_qasm(spec.build()))
    return rows


ROWS = table2_rows()
FIRST_ROW = sorted(ROWS)[0]


def respaced(text: str) -> str:
    return "  " + text.replace(", ", " ,\t").replace(";\n", " ;\r\n\n   ")


def commented(text: str) -> str:
    body = "\n".join(f"{line} // gate {i}" for i, line in enumerate(text.splitlines()))
    return f"// a comment first\n{body}\n// trailing comment without newline"


def renamed(text: str, num_qubits: int) -> str:
    """Split ``q`` into registers ``lo``/``hi`` and rename ``c``: the
    flattened wire space, hence the gate list, is unchanged."""
    cut = max(1, num_qubits // 2)
    decl = f"qreg lo[{cut}];" + (f"\nqreg hi[{num_qubits - cut}];" if num_qubits > cut else "")
    text = text.replace(f"qreg q[{num_qubits}];", decl)

    def wire(match: "re.Match[str]") -> str:
        index = int(match.group(1))
        return f"lo[{index}]" if index < cut else f"hi[{index - cut}]"

    return re.sub(r"\bc\[", "bits[", re.sub(r"\bq\[(\d+)\]", wire, text))


def fingerprint(qasm: str, device: str = "ibm_q20_tokyo", **options) -> str:
    return CompileRequest(qasm=qasm, device=device, **options).fingerprint()


def compute_golden() -> Dict[str, str]:
    golden = {label: fingerprint(text, device) for label, (device, text) in ROWS.items()}
    for label, text in EXPRESSION_PROGRAMS.items():
        golden[label] = fingerprint(text)
    device, text = ROWS[FIRST_ROW]
    for label, options in OPTION_VARIANTS.items():
        golden[f"options:{label}"] = fingerprint(text, device, **options)
    return golden


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_table_covers_every_row(golden):
    assert len(ROWS) == 31
    assert set(ROWS) <= set(golden)


@pytest.mark.parametrize("label", sorted(ROWS))
def test_row_keys_and_variants(golden, label):
    device, text = ROWS[label]
    num_qubits = int(re.search(r"qreg q\[(\d+)\]", text).group(1))
    assert fingerprint(text, device) == golden[label]
    assert fingerprint(respaced(text), device) == golden[label]
    assert fingerprint(commented(text), device) == golden[label]
    assert fingerprint(renamed(text, num_qubits), device) == golden[label]


@pytest.mark.parametrize("label", sorted(EXPRESSION_PROGRAMS))
def test_expression_program_keys(golden, label):
    assert fingerprint(EXPRESSION_PROGRAMS[label]) == golden[label]


@pytest.mark.parametrize("label", sorted(OPTION_VARIANTS))
def test_option_variant_keys(golden, label):
    device, text = ROWS[FIRST_ROW]
    assert fingerprint(text, device, **OPTION_VARIANTS[label]) == golden[f"options:{label}"]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(compute_golden(), handle, indent=1, sort_keys=True)
        handle.write("\n")
