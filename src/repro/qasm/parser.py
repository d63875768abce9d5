"""Index-based recursive-descent parser for the OpenQASM 2.0 subset.

Walks the flat token-string list of :data:`~repro.qasm.lexer.TOKEN_RE`
by index and produces a :class:`~repro.circuits.circuit.QuantumCircuit`.
Multiple ``qreg`` declarations are flattened into one wire space in
declaration order (standard practice for mapping work — the device only
sees wires).  User-defined ``gate`` macros are expanded at call sites,
so the output circuit contains only library gates; a macro body may
only call gates defined before it, so expansion always terminates.

Every failure is a :class:`~repro.exceptions.QasmError` whose "line N,
column M" is recovered by re-scanning the source up to the failing
token — only on the error path.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from typing import Dict, List, Sequence, Tuple, Union

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_SPECS, Gate
from repro.exceptions import CircuitError, QasmError
from repro.qasm.lexer import ID_START, KEYWORDS, TOKEN_RE, token_kind, token_position

# ----------------------------------------------------------------------
# Expressions: a float, a parameter name, or (op, *operands)
# ----------------------------------------------------------------------

Expr = Union[float, str, Tuple]

_FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}
_OPS = {
    **_FUNCTIONS,
    "neg": operator.neg,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}


def _compute(op: str, args: Sequence[float]) -> float:
    """Apply ``op``; anything but a finite real result is a QasmError."""
    try:
        value = _OPS[op](*args)
    except (ArithmeticError, ValueError) as exc:
        raise QasmError(f"cannot evaluate {op!r}: {exc.args[-1]}") from None
    # A negative base to a fractional power is complex; 1e308*10 is inf.
    if value.__class__ is not float or not math.isfinite(value):
        raise QasmError(f"{op!r} has no finite real value here")
    return value


def _evaluate(expr: Expr, env: Dict[str, float]) -> float:
    """Evaluate an expression under a macro's parameter binding."""
    if expr.__class__ is float:
        return expr
    if expr.__class__ is str:
        return env[expr]
    return _compute(expr[0], [_evaluate(arg, env) for arg in expr[1:]])


#: A macro: parameter names, qubit count, and its body of
#: (library gate name or _GateDef, parameter exprs, operand positions).
_GateDef = namedtuple("_GateDef", "params num_qubits body")

#: Longest accepted integer literal: a size or index, never near 10**18
#: in practice, and ``int()`` refuses strings past 4,300 digits.
_MAX_DIGITS = 18

#: Gate names the language builds in; ``U``/``CX`` are the library's
#: ``u3``/``cx``.
_ALIASES = {"U": "u3", "CX": "cx"}

#: qelib1 gates the library lacks, defined over library gates.
QELIB_MACROS = """
gate u0(gamma) a { id a; }
gate u(theta, phi, lam) a { u3(theta, phi, lam) a; }
gate p(lam) a { u1(lam) a; }
gate cu3(theta, phi, lam) c, t { u1((lam+phi)/2) c; u1((lam-phi)/2) t; cx c, t;
  u3(-(theta/2), 0, -((phi+lam)/2)) t; cx c, t; u3(theta/2, phi, 0) t; }
gate crx(theta) c, t { u1(pi/2) t; cx c, t; u3(-(theta/2), 0, 0) t; cx c, t;
  u3(theta/2, -(pi/2), 0) t; }
gate cry(theta) c, t { ry(theta/2) t; cx c, t; ry(-(theta/2)) t; cx c, t; }
"""


class _Parser:
    def __init__(self, source: str, name: str, macros: Dict[str, _GateDef]) -> None:
        self.source = source
        self.toks: List[str] = TOKEN_RE.findall(source)
        self.i = 0
        self.name = name
        #: kind -> register name -> (offset, size); kind -> total size.
        self.regs: Dict[str, Dict[str, Tuple[int, int]]] = {"qreg": {}, "creg": {}}
        self.sizes = {"qreg": 0, "creg": 0}
        self.gate_defs = dict(macros)
        self.opaque: set = set()
        self.gates: List[Gate] = []

    # -- tokens and errors ------------------------------------------------

    def fail(self, message: str, index: int = -1) -> QasmError:
        """The error for token ``index`` (default: the current one)."""
        index = self.i if index < 0 else index
        value = self.toks[index]
        if token_kind(value) == "BAD":
            message = f"unexpected character {value!r}"
        return QasmError(message, *token_position(self.source, index))

    def take(self, want: str) -> None:
        if self.toks[self.i] != want:
            raise self.fail(f"expected {want!r}, found {self.toks[self.i]!r}")
        self.i += 1

    def ident(self) -> str:
        tok = self.toks[self.i]
        if tok[:1] not in ID_START or tok in KEYWORDS:
            raise self.fail(f"expected an identifier, found {tok!r}")
        self.i += 1
        return tok

    def integer(self) -> int:
        tok = self.toks[self.i]
        if not tok.isdecimal() or len(tok) > _MAX_DIGITS:
            raise self.fail(f"expected an integer below 10**{_MAX_DIGITS}, found {tok!r}")
        self.i += 1
        return int(tok)

    def names(self) -> List[str]:
        names = [self.ident()]
        while self.toks[self.i] == ",":
            self.i += 1
            names.append(self.ident())
        return names

    def gate(self, name: str, qubits: Tuple[int, ...], params=(), clbit=None, at: int = -1) -> None:
        """Append a library gate; its validation error is a QasmError at
        token ``at``."""
        try:
            self.gates.append(Gate(name, qubits, params, clbit))
        except CircuitError as exc:
            raise self.fail(str(exc), at) from None

    # -- program --------------------------------------------------------

    def parse(self) -> QuantumCircuit:
        toks = self.toks
        if toks[0] == "OPENQASM":
            self.i = 1
            if toks[1] not in ("2.0", "2"):
                raise self.fail(f"unsupported OpenQASM version {toks[1]!r}")
            self.i = 2
            self.take(";")
        statements = {
            "include": self._include,
            "qreg": self._register,
            "creg": self._register,
            "gate": self._gate_def,
            "opaque": self._opaque,
            "measure": self._measure,
            "barrier": self._barrier,
            "reset": self._reset,
        }
        while toks[self.i]:
            tok = toks[self.i]
            handler = statements.get(tok)
            if handler is not None:
                handler()
            elif tok == "if":
                raise self.fail("classically-controlled gates are not supported")
            elif tok in KEYWORDS:
                raise self.fail(f"unexpected keyword {tok!r}")
            elif tok[0] in ID_START:
                self._gate_call()
            else:
                raise self.fail(f"unexpected token {tok!r}")
        circuit = QuantumCircuit(
            max(self.sizes["qreg"], 1), self.name, max(self.sizes["creg"], 1)
        )
        for gate in self.gates:
            circuit.append(gate)
        return circuit

    # -- declarations ---------------------------------------------------

    def _include(self) -> None:
        self.i += 1
        tok = self.toks[self.i]
        if token_kind(tok) != "STRING":
            raise self.fail(f"expected a file name string, found {tok!r}")
        self.i += 1
        self.take(";")

    def _register(self) -> None:
        kind = self.toks[self.i]
        at = self.i = self.i + 1
        name = self.ident()
        self.take("[")
        size = self.integer()
        self.take("]")
        self.take(";")
        if size < 1:
            raise self.fail(f"register {name!r} must have positive size", at + 2)
        table = self.regs[kind]
        if name in table:
            raise self.fail(f"duplicate {kind} {name!r}", at)
        table[name] = (self.sizes[kind], size)
        self.sizes[kind] += size

    def _opaque(self) -> None:
        self.i += 1
        self.opaque.add(self._signature()[0])
        self.take(";")

    def _signature(self) -> Tuple[str, List[str], List[str]]:
        """``name (params)? qubits`` of a gate or opaque declaration."""
        name = self.ident()
        params: List[str] = []
        if self.toks[self.i] == "(":
            self.i += 1
            if self.toks[self.i] != ")":
                params = self.names()
            self.take(")")
        return name, params, self.names()

    def _gate_def(self) -> None:
        self.i += 1
        name, params, qubits = self._signature()
        self.take("{")
        body = []
        toks = self.toks
        while toks[self.i] != "}":
            if toks[self.i] == "barrier":  # orders nothing in a sequential body
                self.i += 1
                self.names()
                self.take(";")
                continue
            at = self.i
            callee = self.ident()
            callee = _ALIASES.get(callee, callee)
            exprs = self._exprs(params) if toks[self.i] == "(" else []
            wires = []
            for arg in self.names():
                if arg not in qubits:
                    raise self.fail(f"gate {name!r} body references unknown qubit {arg!r}", self.i - 1)
                wires.append(qubits.index(arg))
            self.take(";")
            target = self.gate_defs.get(callee, callee)
            if target.__class__ is _GateDef:
                self._check_arity(callee, target, exprs, wires, at)
            elif target not in GATE_SPECS:
                raise self.fail(f"unknown gate {callee!r}", at)
            body.append((target, exprs, tuple(wires)))
        self.i += 1
        self.gate_defs[name] = _GateDef(params, len(qubits), body)

    # -- statements -----------------------------------------------------

    def _arguments(self, kind: str, many: bool = True) -> Tuple[list, bool]:
        """Register arguments: a wire index each, or the range of wires
        of a bare register name; and whether any name was bare."""
        toks, i, table = self.toks, self.i, self.regs[kind]
        args: list = []
        bare = False
        while True:
            tok = toks[i]
            reg = table.get(tok)
            if reg is None:
                self.i = i
                if tok[:1] in ID_START and tok not in KEYWORDS:
                    raise self.fail(f"undeclared {kind} {tok!r}")
                raise self.fail(f"expected a {kind} argument, found {tok!r}")
            offset, size = reg
            if toks[i + 1] == "[":
                index = toks[i + 2]
                if not index.isdecimal() or len(index) > _MAX_DIGITS or toks[i + 3] != "]":
                    self.i = i + 2
                    self.integer()
                    self.take("]")
                index = int(index)
                if index >= size:
                    raise self.fail(f"index {index} out of range for {kind} {tok}[{size}]", i + 2)
                args.append(offset + index)
                i += 4
            else:
                args.append(range(offset, offset + size))
                bare = True
                i += 1
            if not many or toks[i] != ",":
                self.i = i
                return args, bare
            i += 1

    def _gate_call(self) -> None:
        toks = self.toks
        at = self.i
        name = _ALIASES.get(toks[at], toks[at])
        self.i = at + 1
        params = tuple(self._exprs(())) if toks[self.i] == "(" else ()
        args, bare = self._arguments("qreg")
        self.take(";")
        if name in self.opaque:
            raise self.fail(f"cannot expand opaque gate {name!r}", at)
        definition = self.gate_defs.get(name)
        if definition is None and not bare:
            self.gate(name, tuple(args), params, at=at)
            return
        if definition is not None:
            self._check_arity(name, definition, params, args, at)
        for operands in self._broadcast(args, at):
            if definition is None:
                self.gate(name, operands, params, at=at)
            else:
                self._expand(definition, params, operands, at)

    def _broadcast(self, args: list, at: int) -> List[Tuple[int, ...]]:
        """QASM register broadcast: size-k registers iterate in lockstep,
        single qubits repeat."""
        sizes = {len(a) for a in args if a.__class__ is range and len(a) > 1}
        if not sizes:
            return [tuple(a if a.__class__ is int else a[0] for a in args)]
        if len(sizes) > 1:
            raise self.fail("mismatched register sizes in gate call", at)
        return [
            tuple(a if a.__class__ is int else a[k] if len(a) > 1 else a[0] for a in args)
            for k in range(sizes.pop())
        ]

    def _check_arity(self, name: str, definition: _GateDef, params, qubits, at: int) -> None:
        if len(params) != len(definition.params):
            raise self.fail(
                f"gate {name!r} expects {len(definition.params)} parameter(s), "
                f"got {len(params)}",
                at,
            )
        if len(qubits) != definition.num_qubits:
            raise self.fail(
                f"gate {name!r} expects {definition.num_qubits} qubit(s), got {len(qubits)}",
                at,
            )

    def _expand(self, definition: _GateDef, params, operands, at: int) -> None:
        env = dict(zip(definition.params, params))
        for target, exprs, wires in definition.body:
            try:
                values = tuple(_evaluate(e, env) for e in exprs)
            except QasmError as exc:
                raise self.fail(str(exc), at) from None
            sub = tuple(operands[w] for w in wires)
            if target.__class__ is _GateDef:
                self._expand(target, values, sub, at)
            else:
                self.gate(target, sub, values, at=at)

    def _wires(self, kind: str, many: bool = True) -> List[int]:
        wires: List[int] = []
        for arg in self._arguments(kind, many)[0]:
            if arg.__class__ is int:
                wires.append(arg)
            else:
                wires.extend(arg)
        return wires

    def _measure(self) -> None:
        at = self.i = self.i + 1
        qubits = self._wires("qreg", many=False)
        self.take("->")
        clbits = self._wires("creg", many=False)
        self.take(";")
        if len(qubits) != len(clbits):
            raise self.fail("measure register size mismatch", at - 1)
        for q, c in zip(qubits, clbits):
            self.gate("measure", (q,), clbit=c, at=at)

    def _barrier(self) -> None:
        at = self.i = self.i + 1
        wires = tuple(self._wires("qreg"))
        self.take(";")
        self.gate("barrier", wires, at=at)

    def _reset(self) -> None:
        at = self.i = self.i + 1
        for wire in self._wires("qreg", many=False):
            self.gate("reset", (wire,), at=at)
        self.take(";")

    # -- expressions ------------------------------------------------------

    def _exprs(self, names: Sequence[str]) -> List[Expr]:
        """``( expr, ... )``; the current token is the ``(``."""
        self.i += 1
        exprs: List[Expr] = []
        if self.toks[self.i] != ")":
            exprs.append(self._expr(names))
            while self.toks[self.i] == ",":
                self.i += 1
                exprs.append(self._expr(names))
        self.take(")")
        return exprs

    def _node(self, at: int, op: str, *args: Expr) -> Expr:
        """``(op, *args)``, computed now when every operand is a number."""
        if all(arg.__class__ is float for arg in args):
            try:
                return _compute(op, args)
            except QasmError as exc:
                raise self.fail(str(exc), at) from None
        return (op, *args)

    def _expr(self, names: Sequence[str]) -> Expr:
        left = self._term(names)
        while self.toks[self.i] in ("+", "-"):
            at = self.i
            self.i += 1
            left = self._node(at, self.toks[at], left, self._term(names))
        return left

    def _term(self, names: Sequence[str]) -> Expr:
        left = self._unary(names)
        while self.toks[self.i] in ("*", "/"):
            at = self.i
            self.i += 1
            left = self._node(at, self.toks[at], left, self._unary(names))
        return left

    def _unary(self, names: Sequence[str]) -> Expr:
        at = self.i
        tok = self.toks[at]
        if tok == "-":
            self.i += 1
            return self._node(at, "neg", self._unary(names))
        if tok == "+":
            self.i += 1
            return self._unary(names)
        left = self._atom(names)
        if self.toks[self.i] == "^":
            at = self.i
            self.i += 1
            return self._node(at, "^", left, self._unary(names))
        return left

    def _atom(self, names: Sequence[str]) -> Expr:
        at = self.i
        tok = self.toks[at]
        self.i += 1
        if tok == "pi":
            return math.pi
        if tok == "(":
            inner = self._expr(names)
            self.take(")")
            return inner
        kind = token_kind(tok)
        if kind in ("INT", "REAL"):
            if math.isfinite(float(tok)):
                return float(tok)
            raise self.fail(f"number {tok!r} is out of range", at)
        if kind == "ID" and tok in _FUNCTIONS:
            self.take("(")
            inner = self._expr(names)
            self.take(")")
            return self._node(at, tok, inner)
        if kind == "ID" and tok in names:
            return tok
        if kind == "ID":
            raise self.fail(f"unknown identifier {tok!r} in expression", at)
        raise self.fail(f"unexpected token {tok!r} in expression", at)


def _parse(source: str, name: str, macros: Dict[str, _GateDef]):
    parser = _Parser(source, name, macros)
    try:
        return parser, parser.parse()
    except RecursionError:
        raise parser.fail("program nests too deeply") from None


_QELIB = _parse(QELIB_MACROS, "qelib1", {})[0].gate_defs


def parse_qasm(source: str, name: str = "qasm_circuit") -> QuantumCircuit:
    """Parse OpenQASM 2.0 source text into a circuit.

    Raises :class:`~repro.exceptions.QasmError`, and nothing else, for
    any text that is not a program of the supported subset.
    """
    return _parse(source, name, _QELIB)[1]


def parse_qasm_file(path: str) -> QuantumCircuit:
    """Parse a ``.qasm`` file; the circuit is named after the file stem."""
    import os

    with open(path) as handle:
        source = handle.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_qasm(source, name=stem)
