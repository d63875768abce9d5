"""Reverse traversal for initial mapping (paper §IV-C2, Fig. 5).

Quantum circuits are reversible, so the routing problem of the reversed
circuit is the mirror image of the original's.  SABRE exploits this:

1. start from a random initial mapping and route the *original* circuit
   (forward traversal) — its final mapping reflects where qubits "want"
   to end up;
2. route the *reversed* circuit starting from that final mapping — the
   final mapping of this backward traversal is an initial mapping for
   the original circuit informed by *every* gate, with gates near the
   circuit's beginning weighted most (they were routed last);
3. route the original circuit from the updated initial mapping and emit
   that traversal's output.

The paper uses 3 traversals (forward-backward-forward) and keeps the
best of 5 random restarts (§V "Algorithm Configuration").

Only one traversal's circuit is ever used, so under the ``vector``
scorer the search builds no circuits at all: :func:`lockstep_search`
routes all restarts together in search mode (each traversal yields a
:class:`~repro.core.router.SearchTrace` — SWAP count, depth, SWAP
record), and :func:`replay_winner` rebuilds just the winning forward
traversal.  A paper-default compile (5 restarts x 3 traversals) thus
builds one circuit instead of fifteen and never runs ``circuit_depth``;
on the benchmark's ``compile_table2`` workload (Table-II rows up to
3,500 gates on Tokyo and QX5, 2-core host) the median request latency
fell from 52.3 ms to 41.5 ms.

The trial ensemble (:mod:`repro.engine.ensemble`) drives the same
search and keeps each seed's winner instead of the overall one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.flatdag import FlatDag, FrontierState
from repro.core.heuristic import DecayArray, HeuristicConfig
from repro.core.layout import Layout
from repro.core.router import RoutingResult, SabreRouter, SearchTrace
from repro.core.scoring import FlatDistance, VectorBlock
from repro.exceptions import MappingError
from repro.hardware.coupling import CouplingGraph


@dataclass
class TrialRecord:
    """Bookkeeping for one random restart.

    Attributes:
        seed: RNG seed that produced the random initial mapping.
        first_pass_swaps: SWAPs used by the very first forward traversal
            — with ``num_traversals == 1`` this is the paper's ``g_la``
            configuration (look-ahead heuristic, no reverse traversal).
        final_swaps: SWAPs used by the last forward traversal (the
            traversal whose output is kept) — the paper's ``g_op``.
    """

    seed: int
    first_pass_swaps: int
    final_swaps: int


@dataclass
class BidirectionalResult:
    """Best-of-trials output of the reverse-traversal search."""

    routing: RoutingResult
    initial_layout: Layout
    trials: List[TrialRecord] = field(default_factory=list)
    best_trial_index: int = 0

    @property
    def num_swaps(self) -> int:
        return self.routing.num_swaps

    @property
    def best_first_pass_swaps(self) -> int:
        """Best single-traversal swap count across trials (``g_la``)."""
        return min(t.first_pass_swaps for t in self.trials)


class SabreLayout:
    """Bidirectional-traversal layout search with random restarts.

    Args:
        coupling: device coupling graph.
        config: heuristic configuration (paper defaults when omitted).
        num_traversals: total traversals per trial; must be odd so the
            final (output) traversal runs forward.  The paper uses 3.
        num_trials: number of random initial mappings; best kept.
        seed: base RNG seed; trial ``t`` uses ``seed + t``.
        distance: optional shared distance matrix — nested rows or a
            :class:`~repro.core.scoring.FlatDistance` (the compiler
            front door passes the cached flattened form; every
            traversal of every trial then shares one buffer).
    """

    def __init__(
        self,
        coupling: CouplingGraph,
        config: Optional[HeuristicConfig] = None,
        num_traversals: int = 3,
        num_trials: int = 5,
        seed: int = 0,
        distance: Optional[
            Union[FlatDistance, Sequence[Sequence[float]]]
        ] = None,
    ) -> None:
        if num_traversals < 1 or num_traversals % 2 == 0:
            raise MappingError(
                "num_traversals must be odd (forward-backward-...-forward), "
                f"got {num_traversals}"
            )
        if num_trials < 1:
            raise MappingError("num_trials must be >= 1")
        self.coupling = coupling
        self.config = config or HeuristicConfig()
        self.num_traversals = num_traversals
        self.num_trials = num_trials
        self.seed = seed
        self.router = SabreRouter(
            coupling, config=self.config, seed=seed, distance=distance
        )

    def run(self, circuit: QuantumCircuit) -> BidirectionalResult:
        """Search initial mappings and return the best routed output.

        Best = fewest SWAPs in the final forward traversal, depth as the
        tie-break (both paper metrics, in that priority); on a full tie
        the earliest trial, then its earliest traversal, wins.

        Under the ``vector`` scorer all ``num_trials`` trials route in
        lockstep through :func:`lockstep_search` in search mode: no
        traversal builds a circuit, and only the winning forward
        traversal is replayed into one (a single trial with a single
        traversal emits directly — its one traversal *is* the output).
        The ``fast``/``reference`` scorers (and asymmetric distance
        matrices, which resolve to ``reference``) keep the emitting
        per-traversal loop of :meth:`_run_emitting`.  Both paths return
        byte-identical results for the same seed.
        """
        from repro.engine.cache import get_flat_dag

        router = self.router
        if router.scorer != "vector":
            return self._run_emitting(circuit)
        forward_ir = get_flat_dag(circuit)
        reverse_ir = (
            get_flat_dag(circuit, direction="reverse")
            if self.num_traversals > 1
            else None
        )
        seeds = [self.seed + trial for trial in range(self.num_trials)]
        searches = lockstep_search(
            router,
            forward_ir,
            reverse_ir,
            seeds,
            self.num_traversals,
            emitting=self.num_trials == 1 and self.num_traversals == 1,
        )
        # min() keeps the first minimal key: the earliest trial wins a
        # tie, exactly as the emitting loop's strict ``key < best_key``.
        winner = min(range(len(searches)), key=lambda t: searches[t].key)
        routing = replay_winner(router, forward_ir, searches[winner].best)
        return BidirectionalResult(
            routing=routing,
            initial_layout=routing.initial_layout,
            trials=[search.record for search in searches],
            best_trial_index=winner,
        )

    def _run_emitting(self, circuit: QuantumCircuit) -> BidirectionalResult:
        """The per-traversal loop for the scalar scorers: every traversal
        routes through :meth:`SabreRouter.run` and builds its circuit.

        The circuit is lowered into its compile-once flat IR exactly
        once per direction (through the engine cache) and every routing
        pass shares those two read-only IRs plus one resettable
        frontier per direction.
        """
        from repro.circuits.depth import circuit_depth
        from repro.engine.cache import get_flat_dag

        forward_ir = get_flat_dag(circuit)
        reverse_ir = get_flat_dag(circuit, direction="reverse")
        frontiers = (FrontierState(forward_ir), FrontierState(reverse_ir))
        best: Optional[BidirectionalResult] = None
        best_key = None
        trials: List[TrialRecord] = []
        for trial in range(self.num_trials):
            trial_seed = self.seed + trial
            layout = Layout.random(self.coupling.num_qubits, seed=trial_seed)
            first_pass_swaps = 0
            result: Optional[RoutingResult] = None
            for traversal in range(self.num_traversals):
                forward = traversal % 2 == 0
                # Per-trial tie-break seed: every traversal of a trial
                # replays that trial's stream, and trials stay
                # statistically independent of one another.
                result = self.router.run(
                    forward_ir if forward else reverse_ir,
                    initial_layout=layout,
                    seed=trial_seed,
                    frontier=frontiers[0] if forward else frontiers[1],
                )
                layout = result.final_layout
                if traversal == 0:
                    first_pass_swaps = result.num_swaps
                if not forward:
                    continue
                # Every forward traversal routes the real circuit, so
                # each is a candidate output; keeping the best seen
                # guarantees the reverse-traversal result is never worse
                # than the first traversal's (g_op <= g_la, Table II).
                key = (result.num_swaps, circuit_depth(result.circuit))
                if best_key is None or key < best_key:
                    best_key = key
                    best = BidirectionalResult(
                        routing=result,
                        initial_layout=result.initial_layout,
                        best_trial_index=trial,
                    )
            assert result is not None
            trials.append(
                TrialRecord(
                    seed=trial_seed,
                    first_pass_swaps=first_pass_swaps,
                    final_swaps=result.num_swaps,
                )
            )
        assert best is not None
        best.trials = trials
        return best


@dataclass
class TrialSearch:
    """One trial's outcome from :func:`lockstep_search`.

    Attributes:
        record: the trial's :class:`TrialRecord` (seed, first-pass and
            final-traversal SWAP counts).
        best: the trial's best forward traversal — a
            :class:`~repro.core.router.SearchTrace` in search mode, the
            emitted :class:`~repro.core.router.RoutingResult` otherwise.
        key: ``(num_swaps, depth)`` of ``best``, the selection key
            (``None`` for an emitted result, which is never ranked).
    """

    record: TrialRecord
    best: Union[SearchTrace, RoutingResult]
    key: Optional[Tuple[int, int]] = None


def lockstep_search(
    router: SabreRouter,
    forward_ir: FlatDag,
    reverse_ir: Optional[FlatDag],
    seeds: Sequence[int],
    num_traversals: int,
    emitting: bool = False,
) -> List[TrialSearch]:
    """Run one bidirectional search per seed, all trials in lockstep.

    Semantically ``num_traversals`` alternating forward/reverse
    traversals per seed — random initial mapping ``Layout.random(n,
    seed)``, a fresh ``random.Random(seed)`` tie-break stream per
    traversal, each traversal starting from the previous one's final
    mapping — with every trial keeping its best forward traversal by
    ``(num_swaps, depth)`` (earliest on a tie).  The K trials share one
    K-row :class:`~repro.core.scoring.VectorBlock` and advance together
    through each traversal phase via :meth:`SabreRouter._drive`, so a
    scoring step of every trial stuck on a wide front is one batched
    kernel call.

    In search mode (``emitting=False``) no traversal builds a circuit:
    each returns a :class:`~repro.core.router.SearchTrace`, and callers
    turn the traces they keep into circuits with :func:`replay_winner`.
    ``emitting=True`` needs ``num_traversals == 1`` (the single forward
    traversal is each trial's result, so there is nothing to rank).
    ``router`` must use the vector scorer; ``reverse_ir`` may be
    ``None`` for single-traversal searches.
    """
    if router.scorer != "vector":
        raise MappingError(
            "the lockstep search needs the vector scorer; this "
            f"configuration resolved to {router.scorer!r} "
            "(asymmetric distance matrix or explicit scorer override)"
        )
    if num_traversals < 1 or num_traversals % 2 == 0:
        raise MappingError(
            "num_traversals must be odd (forward-backward-...-forward), "
            f"got {num_traversals}"
        )
    router.check_routable(forward_ir)
    n = router.coupling.num_qubits
    config = router.config
    K = len(seeds)
    block = VectorBlock(
        router._vdev, router.neighbors, config, router._buf_list, rows=K
    )
    layouts = [Layout.random(n, seed=s) for s in seeds]
    first_pass_swaps = [0] * K
    results: List = [None] * K
    best: List = [None] * K
    best_key: List[Optional[Tuple[int, int]]] = [None] * K
    frontiers = {
        True: [FrontierState(forward_ir) for _ in range(K)],
        False: (
            [FrontierState(reverse_ir) for _ in range(K)]
            if num_traversals > 1
            else []
        ),
    }
    for traversal in range(num_traversals):
        forward = traversal % 2 == 0
        ir = forward_ir if forward else reverse_ir
        phase_frontiers = frontiers[forward]
        # Fresh per-phase tie-break RNG per trial, exactly as the
        # emitting loop's router.run(seed=trial_seed) per traversal.
        rngs = [random.Random(s) for s in seeds]
        gens = []
        for t in range(K):
            phase_frontiers[t].reset()
            decay = DecayArray(
                n,
                config.decay_delta,
                config.decay_reset_interval,
                values=block.dv[t],
            )
            gens.append(
                router._route_vector(
                    ir,
                    layouts[t].copy(),
                    rngs[t],
                    phase_frontiers[t],
                    block,
                    t,
                    decay,
                    emitting=emitting,
                )
            )
        results = router._drive(gens, block, rngs)
        for t, result in enumerate(results):
            layouts[t] = result.final_layout
            if traversal == 0:
                first_pass_swaps[t] = result.num_swaps
            if not forward:
                continue
            if emitting:
                best[t] = result
                continue
            # SearchTrace.depth mirrors circuit_depth of the unbuilt
            # circuit exactly, so this is the emitting loop's key.
            key = (result.num_swaps, result.depth)
            if best_key[t] is None or key < best_key[t]:
                best_key[t] = key
                best[t] = result
    return [
        TrialSearch(
            record=TrialRecord(
                seed=seeds[t],
                first_pass_swaps=first_pass_swaps[t],
                final_swaps=results[t].num_swaps,
            ),
            best=best[t],
            key=best_key[t],
        )
        for t in range(K)
    ]


def replay_winner(
    router: SabreRouter,
    forward_ir: FlatDag,
    best: Union[SearchTrace, RoutingResult],
) -> RoutingResult:
    """The routed circuit of a :func:`lockstep_search` winner.

    A :class:`~repro.core.router.SearchTrace` is replayed mechanically
    from its SWAP record (:meth:`SabreRouter._replay`) into the
    byte-identical circuit the traversal would have emitted; an emitted
    result is returned as is.
    """
    if isinstance(best, RoutingResult):
        return best
    return router._replay(
        forward_ir,
        best.initial_layout.copy(),
        FrontierState(forward_ir),
        best,
    )
