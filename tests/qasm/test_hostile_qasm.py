"""Hostile QASM: every malformed program is a QasmError with a real
position, never another exception, and ``POST /compile`` answers each
one with a 400 (a non-ReproError would kill the request handler and
leave the client without any reply)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.exceptions import QasmError
from repro.qasm import parse_qasm, tokenize
from repro.service import (
    ResultStore,
    build_server,
    serve_url,
    shutdown_service,
    start_in_thread,
)

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'

#: label -> (source, (line, column) of the error).
HOSTILE = {
    "opaque at end of input": ("opaque foo", (1, 11)),
    "gate body at end of input": ("gate g a { barrier a", (1, 21)),
    "division by zero": (HEADER + "rz(1/0) q[0];", (4, 5)),
    "log domain": (HEADER + "rz(ln(0)) q[0];", (4, 4)),
    "power overflow": (HEADER + "rz(2^99999) q[0];", (4, 5)),
    "self-recursive gate": (HEADER + "gate g a { g a; }\ng q[0];", (4, 12)),
    "complex power": (HEADER + "rz(sin((-8)^0.5)) q[0];", (4, 12)),
    "infinite literal": (HEADER + "rz(1e999) q[0];", (4, 4)),
    "non-finite product": (HEADER + "rz(1e308*10) q[0];", (4, 9)),
    "deep parentheses": (HEADER + "rz(" + "(" * 3000 + "1" + ")" * 3000 + ") q[0];", None),
    "deep unary minus": (HEADER + "rz(" + "-" * 3000 + "1) q[0];", None),
    "deep macro expression": (
        HEADER + "gate g(t) a { rz(" + "+".join(["t"] * 3000) + ") a; }\ng(1) q[0];",
        None,
    ),
    "huge register size": ("qreg q[" + "9" * 5000 + "];", (1, 8)),
    "huge index": (HEADER + "h q[" + "9" * 5000 + "];", (4, 5)),
    "duplicate barrier operand": (HEADER + "barrier q[0], q[0];", (4, 9)),
    "missing semicolon at end": (HEADER + "h q[0]", (4, 7)),
    "open index at end": (HEADER + "h q[", (4, 5)),
    "trailing comma at end": (HEADER + "cx q[0],\n  ", (5, 3)),
    "version at end": ("OPENQASM", (1, 9)),
    "unterminated string": ('include "qelib1.inc', (1, 9)),
    "stray character": (HEADER + "h q[0]; @", (4, 9)),
}


@pytest.mark.parametrize("label", sorted(HOSTILE))
def test_hostile_input_is_a_positioned_qasm_error(label):
    source, position = HOSTILE[label]
    with pytest.raises(QasmError) as excinfo:
        parse_qasm(source)
    if position is not None:
        assert (excinfo.value.line, excinfo.value.column) == position
    else:
        assert excinfo.value.line >= 4


def test_redefined_gates_cannot_recurse():
    """A body binds the definitions that exist when it is written, so
    redefining ``a`` in terms of ``b`` (itself built on the old ``a``)
    expands once instead of looping."""
    circuit = parse_qasm(
        HEADER
        + "gate a x { h x; }\ngate b x { a x; }\ngate a x { b x; }\na q[0];"
    )
    assert [g.name for g in circuit] == ["h"]


def test_eof_token_has_the_real_position():
    assert tokenize("h q;\nx q;\n  ")[-1].line == 3
    assert tokenize("h q;\nx q;\n  ")[-1].column == 3


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = ResultStore(root=str(tmp_path_factory.mktemp("store")))
    server = build_server(port=0, store=store, workers=1)
    start_in_thread(server)
    try:
        yield serve_url(server)
    finally:
        shutdown_service(server)


def test_post_compile_answers_every_hostile_input_with_400(server):
    for label, (source, _) in sorted(HOSTILE.items()):
        request = urllib.request.Request(
            server + "/compile",
            data=json.dumps({"qasm": source}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30).close()
        with excinfo.value as reply:
            assert reply.code == 400, label
            assert "line" in json.loads(reply.read())["error"], label
