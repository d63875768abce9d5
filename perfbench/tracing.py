"""Benchmark-side spans around calls into the program's public functions.

Nothing inside ``src/`` changes: :meth:`Recorder.instrument` swaps
module and class attributes for wrappers that open a span, and
:meth:`Recorder.restore` puts the originals back.  Spans nest on one thread; a layer's self time
is its span time minus the time its child spans cover.  Spans stay in
memory and :meth:`Recorder.dump` writes them out when a run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Callable, Dict, List, Tuple

#: (module, attribute path, span name).  A name bound with ``from x
#: import f`` is patched in every module that holds its own reference.
SITES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.qasm", "parse_qasm", "qasm.parse"),
    ("repro.qasm.parser", "parse_qasm", "qasm.parse"),
    ("repro.service.request", "parse_qasm", "qasm.parse"),
    ("repro.qasm", "emit_qasm", "qasm.emit"),
    ("repro.qasm.emitter", "emit_qasm", "qasm.emit"),
    ("repro.pipeline.passes", "decompose_to_cx_basis", "circuits.decompose"),
    ("repro.engine.cache", "get_flat_distance_matrix", "hardware.distance"),
    ("repro.engine.cache", "get_flat_dag", "circuits.flatdag_build"),
    ("repro.core.bidirectional", "SabreLayout.run", "core.layout"),
    ("repro.core.router", "SabreRouter.run", "core.route"),
    ("repro.core.result", "MappingResult.physical_circuit", "core.emit_circuit"),
    ("repro.verify.compliance", "is_hardware_compliant", "verify.compliance"),
    ("repro.verify.equivalence", "extract_logical_circuit", "verify.equivalence"),
    ("repro.verify.equivalence", "structurally_equivalent", "verify.equivalence"),
    ("repro.service.request", "CompileRequest.from_payload", "service.request.from_payload"),
    ("repro.service.request", "CompileRequest.fingerprint", "service.request.fingerprint"),
    ("repro.service.store", "ShardedResultStore.get", "service.store.get"),
    ("repro.service.store", "ShardedResultStore.put", "service.store.put"),
)


class Recorder:
    """In-memory span log with per-name self time and call counts."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self.self_seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        # Open spans: [name, start, child seconds, span id].
        self._stack: List[list] = []
        self._ids = 0
        self.request_id = 0
        # (owner, attribute, original) of every patched site.
        self._saved: List[Tuple[object, str, object]] = []

    def enter(self, name: str) -> list:
        self._ids += 1
        frame = [name, time.perf_counter(), 0.0, self._ids]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is frame, "spans must nest"
        name, start, child, span_id = frame
        wall = end - start
        if self._stack:
            self._stack[-1][2] += wall
        self.self_seconds[name] = self.self_seconds.get(name, 0.0) + wall - child
        self.calls[name] = self.calls.get(name, 0) + 1
        self.spans.append(
            {
                "id": span_id,
                "parent": self._stack[-1][3] if self._stack else None,
                "request": self.request_id,
                "name": name,
                "start": start,
                "end": end,
            }
        )

    def instrument(self) -> None:
        """Patch every site in :data:`SITES` to record into this recorder."""
        for module_name, path, span_name in SITES:
            owner: object = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                patched: object = classmethod(_wrap(raw.__func__, span_name, self))
            else:
                patched = _wrap(raw, span_name, self)
            setattr(owner, attr, patched)

    def restore(self) -> None:
        """Undo :meth:`instrument`; a no-op when nothing is patched."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_time(self, *names: str) -> float:
        return sum(self.self_seconds.get(n, 0.0) for n in names)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


class _Span:
    def __init__(self, recorder: Recorder, name: str) -> None:
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> "_Span":
        self.frame = self.recorder.enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.recorder.exit(self.frame)


def _wrap(fn: Callable, name: str, recorder: Recorder) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = recorder.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.exit(frame)

    return wrapper
