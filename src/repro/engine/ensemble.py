"""Trial-major ensemble routing: K seeded trials in lockstep.

The best-of-K engine (:mod:`repro.engine.trials`) is embarrassingly
parallel, but on a single core its serial executor pays the router's
per-step numpy dispatch cost once *per trial*.  The vector scorer's
kernel is nearly size-invariant in the trial dimension — scoring K
trials' candidate sets in one ``(K, E)`` batch costs little more than
scoring one — so this module routes all K trials of a best-of-K run
*together*: one :class:`~repro.core.scoring.VectorBlock` with K rows,
K routing generators (:meth:`~repro.core.router.SabreRouter.
_route_vector`) advanced in lockstep, and a single batched
``score_rows`` call per round covering every trial that is stuck on a
wide front.  The driver is :func:`repro.core.bidirectional.
lockstep_search`, shared with :meth:`~repro.core.bidirectional.
SabreLayout.run`: the ensemble keeps every seed's winner, the layout
search keeps the overall one.

Determinism contract: the ensemble reproduces the serial executor's
per-seed results *exactly*.  Each trial keeps its own tie-break RNG
(seeded by its trial seed), its own decay row, its own frontier pair,
and its own layout chain across traversals; only the kernel dispatch
is shared.  The differential suite enforces byte-identical routed
circuits against ``executor="serial"`` for the same seed list.

Eligibility: the lockstep path needs the vector scorer (symmetric
distance matrix) and a pipeline whose routing stage is the plain
``SabreLayoutPass`` search — embedding shortcuts, baseline routers,
and noise-distance rewrites route differently per trial, so
:func:`ensemble_eligible` reports False for them and
:func:`repro.engine.trials.run_trials` silently falls back to the
serial executor (same results, no lockstep speedup).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.decompositions import (
    decompose_to_cx_basis,
    needs_cx_decomposition,
)
from repro.core.bidirectional import (
    BidirectionalResult,
    lockstep_search,
    replay_winner,
)
from repro.core.heuristic import HeuristicConfig, resolve_scorer
from repro.core.router import SabreRouter
from repro.core.scoring import FlatDistance
from repro.exceptions import ReproError
from repro.hardware.coupling import CouplingGraph


def decompose_like_pipeline(circuit: QuantumCircuit) -> QuantumCircuit:
    """The circuit exactly as ``DecomposeToBasis`` would hand it to the
    layout search (identical object when already in basis, so the IR
    cache keys match the per-trial pipeline runs)."""
    if needs_cx_decomposition(circuit):
        return decompose_to_cx_basis(circuit)
    return circuit


def ensemble_eligible(
    pipeline: str,
    config: Optional[HeuristicConfig],
    distance: Optional[Union[FlatDistance, Sequence[Sequence[float]]]],
) -> bool:
    """Whether the lockstep ensemble reproduces this configuration.

    Three requirements, each checked against the serial executor's
    actual behaviour:

    - the scorer must resolve to ``"vector"`` (the lockstep driver is
      the vector generator protocol; ``fast``/``reference`` trials
      have no kernel to share);
    - the distance matrix must be symmetric (otherwise the router
      itself falls back to the reference scorer, see
      :class:`~repro.core.router.SabreRouter`);
    - the trial pipeline's routing stage must be the plain
      ``SabreLayoutPass`` search: presets that pin layouts
      (``PerfectEmbedding``), reroute per trial (``BaselineRoutePass``),
      or rewrite the distance/config (``NoiseAwareDistance``) would
      diverge from what the ensemble precomputes.
    """
    if resolve_scorer((config or HeuristicConfig()).scorer) != "vector":
        return False
    if distance is not None:
        flat = (
            distance
            if isinstance(distance, FlatDistance)
            else FlatDistance.from_matrix(distance)
        )
        if not flat.symmetric:
            return False
    from repro.pipeline.passes import (
        BaselineRoutePass,
        NoiseAwareDistance,
        PerfectEmbedding,
        SabreLayoutPass,
    )
    from repro.pipeline.runner import get_pipeline

    try:
        pipe = get_pipeline(pipeline)
    except ReproError:
        return False
    has_search = False
    for pass_ in pipe.passes:
        if isinstance(
            pass_, (PerfectEmbedding, BaselineRoutePass, NoiseAwareDistance)
        ):
            return False
        if isinstance(pass_, SabreLayoutPass):
            has_search = True
    return has_search


def run_ensemble_trials(
    circuit: QuantumCircuit,
    coupling: CouplingGraph,
    seeds: Sequence[int],
    config: Optional[HeuristicConfig] = None,
    num_traversals: int = 3,
    distance: Optional[
        Union[FlatDistance, Sequence[Sequence[float]]]
    ] = None,
    pipeline: str = "paper_default",
) -> List["object"]:
    """One full :class:`~repro.core.result.MappingResult` per seed, via
    the lockstep ensemble.

    Runs :func:`ensemble_layout_search` over the decomposed circuit,
    then re-enters the per-trial pipeline with each search result
    precomputed: decomposition, metrics, and any post-routing passes
    run exactly as on the serial path, so each trial's result matches
    the serial executor's byte for byte (the layout-search pass adopts
    the injected record).  Shared by ``executor="ensemble"`` (in
    process) and the hybrid executor's shard workers
    (:mod:`repro.engine.shared`) — callers gate on
    :func:`ensemble_eligible` first.
    """
    from repro.pipeline.runner import get_pipeline

    searches = ensemble_layout_search(
        coupling,
        decompose_like_pipeline(circuit),
        seeds,
        config=config,
        num_traversals=num_traversals,
        distance=distance,
    )
    pipe = get_pipeline(pipeline)
    return [
        pipe.run(
            circuit,
            coupling,
            config=config,
            seed=seed,
            num_trials=1,
            num_traversals=num_traversals,
            distance=distance,
            executor=None,
            layout_search=search,
        )
        for seed, search in zip(seeds, searches)
    ]


def ensemble_layout_search(
    coupling: CouplingGraph,
    circuit: QuantumCircuit,
    seeds: Sequence[int],
    config: Optional[HeuristicConfig] = None,
    num_traversals: int = 3,
    distance: Optional[
        Union[FlatDistance, Sequence[Sequence[float]]]
    ] = None,
) -> List[BidirectionalResult]:
    """Run one bidirectional layout search per seed, in lockstep.

    Semantically ``[SabreLayout(..., num_trials=1, seed=s).run(circuit)
    for s in seeds]`` — same random initial mappings, same per-trial
    tie-break streams, same best-forward-traversal selection — but all
    K trials advance together through each traversal phase, sharing
    one K-row :class:`~repro.core.scoring.VectorBlock` so every
    scoring step is a single batched kernel call over all trials that
    are currently stuck on a wide front.

    ``circuit`` must already be in the routable basis (callers go
    through :func:`decompose_like_pipeline`).  Raises
    :class:`~repro.exceptions.MappingError` for configurations the
    vector scorer cannot serve (asymmetric distance matrix) — callers
    gate on :func:`ensemble_eligible` first.

    The sweep is :func:`~repro.core.bidirectional.lockstep_search`,
    the same driver behind :meth:`SabreLayout.run`: multi-traversal
    searches build no circuit during the sweep, and each trial's
    winning forward traversal is replayed once into its byte-identical
    circuit.  Single-traversal runs emit directly.
    """
    from repro.engine.cache import get_flat_dag, get_flat_dag_pair

    if not seeds:
        raise ReproError("ensemble_layout_search needs at least one seed")
    router = SabreRouter(coupling, config=config, distance=distance)
    if num_traversals > 1:
        forward_ir, reverse_ir = get_flat_dag_pair(circuit)
    else:
        forward_ir, reverse_ir = get_flat_dag(circuit), None
    searches = lockstep_search(
        router,
        forward_ir,
        reverse_ir,
        seeds,
        num_traversals,
        emitting=num_traversals == 1,
    )
    # Every trial keeps its own winner: replay each one.
    results: List[BidirectionalResult] = []
    for search in searches:
        routing = replay_winner(router, forward_ir, search.best)
        results.append(
            BidirectionalResult(
                routing=routing,
                initial_layout=routing.initial_layout,
                trials=[search.record],
            )
        )
    return results
