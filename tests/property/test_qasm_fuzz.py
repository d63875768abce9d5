"""Front-end fuzzing: whatever the text, ``parse_qasm`` returns a circuit
or raises QasmError, and any circuit it returns survives an emit/parse
round trip unchanged.

Inputs are Table-II QASM (plus a program exercising macros and
expressions) mutated by token deletion, token duplication and byte
flips; token soup drawn from the language's vocabulary; and arbitrary
text.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench_circuits.suites import TABLE_II
from repro.exceptions import QasmError
from repro.qasm import emit_qasm, parse_qasm, tokenize
from repro.qasm.lexer import TOKEN_RE, token_kind

MACROS = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3]; qreg r[3]; creg c[3];
opaque magic(t) a, b;
gate tilt(t, s) x, y { rz(t/2 - pi/8) x; barrier x, y; cx x, y; u3(s, -t, pi^t) y; }
gate wrap(t) x, y { tilt(sin(t), sqrt(2)*t) y, x; }
cu3(pi/3, pi/5, -pi/7) q[0], r[1];
wrap(-1.5e-1) q, r;
U(pi/2, 0, ln(pi)) q[0]; CX q[0], r[0];
reset r[2];
measure q -> c;
"""

SEEDS = [MACROS] + [
    emit_qasm(spec.build()) for spec in TABLE_II if spec.paper_gates <= 250
]

#: The fuzzer's own token split, independent of the lexer under test.
PIECES = re.compile(r"\s+|\w+|.", re.DOTALL)

VOCABULARY = (
    "OPENQASM 2.0 ; include \"qelib1.inc\" qreg creg q c [ ] 0 1 3 ( ) , "
    "gate opaque g a b { } measure -> barrier reset if == pi + - * / ^ "
    "sin ln sqrt 1e999 .5 U CX cx h u3 rz // \n"
).split(" ")


def parses_or_rejects(text: str) -> None:
    try:
        circuit = parse_qasm(text)
    except QasmError:
        return
    assert parse_qasm(emit_qasm(circuit)) == circuit


@st.composite
def mutated(draw):
    pieces = PIECES.findall(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(0, len(pieces) - 1))
        action = draw(st.sampled_from(["delete", "duplicate", "flip"]))
        if action == "delete":
            del pieces[k]
        elif action == "duplicate":
            pieces.insert(k, pieces[k])
        else:
            raw = bytearray(pieces[k].encode("utf-8"))
            raw[draw(st.integers(0, len(raw) - 1))] ^= 1 << draw(st.integers(0, 7))
            pieces[k] = raw.decode("utf-8", errors="replace")
        if not pieces:
            break
    return "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(text=mutated())
def test_mutated_table2_qasm(text):
    parses_or_rejects(text)


@settings(max_examples=300, deadline=None)
@given(words=st.lists(st.sampled_from(VOCABULARY), max_size=40))
def test_token_soup(words):
    parses_or_rejects(" ".join(words))


@settings(max_examples=300, deadline=None)
@given(text=st.text(max_size=200))
def test_arbitrary_text(text):
    parses_or_rejects(text)


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(st.text(max_size=120), mutated()))
def test_tokenize_is_the_positioned_findall(text):
    """The positioned view and the parser's token list cannot drift:
    ``tokenize`` yields exactly the ``findall`` strings up to the end
    token, or rejects the first character no token starts with."""
    strings = TOKEN_RE.findall(text)
    strings = strings[: strings.index("") + 1]
    try:
        tokens = tokenize(text)
    except QasmError:
        assert any(token_kind(s) == "BAD" for s in strings)
        return
    assert [t.value for t in tokens] == strings
    assert tokens[-1].kind == "EOF"
