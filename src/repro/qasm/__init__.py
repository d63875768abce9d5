"""OpenQASM 2.0 subset: lexer, parser, and emitter.

The paper's benchmark circuits (RevLib, QISKit, Quipper/ScaffCC
compilations) ship as OpenQASM 2.0 files.  This package implements the
language subset those files use, hand-written with no dependencies:

- header (``OPENQASM 2.0;``, ``include "qelib1.inc";``),
- ``qreg``/``creg`` declarations (multiple registers are flattened into
  one wire space),
- the qelib1 standard gates plus the ``U``/``CX`` builtins,
- user-defined ``gate`` macros (recursively expanded at call sites),
- ``measure``, ``barrier``, and full parameter expressions
  (``pi``, arithmetic, ``sin``/``cos``/..., unary minus).

The front end is a single scan: one master regex turns the text into a
flat list of token strings (whitespace and comments never become
tokens), and an index-based recursive descent walks that list.  Token
positions are recovered only when an error needs one.

Contract: any text that is not a program of this subset raises
:class:`~repro.exceptions.QasmError` with its line and column, never
another exception.  Round-trip guarantee: ``parse(emit(circuit)) ==
circuit`` for any circuit in the supported gate set and for any circuit
the parser returns (property-based tests, including a fuzzer, enforce
both).
"""

from repro.qasm.lexer import Token, tokenize
from repro.qasm.parser import parse_qasm, parse_qasm_file
from repro.qasm.emitter import emit_qasm, write_qasm_file

__all__ = [
    "Token",
    "tokenize",
    "parse_qasm",
    "parse_qasm_file",
    "emit_qasm",
    "write_qasm_file",
]
