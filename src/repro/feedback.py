"""Runtime cardinality feedback: Q-error tracking and plan re-optimization.

The cost model estimates; execution knows.  This module closes the loop
between them:

* executors count actual rows produced per plan node (``profile`` dicts,
  see ``VectorizedExecutor.run_prepared``);
* :func:`collect` joins those counts against the estimates the optimizer
  stamped on the plan (``PhysicalOp.estimated_rows``) and computes the
  per-node **Q-error** — ``max(estimated / actual, actual / estimated)``
  with both sides floored at one row, the standard symmetric measure of
  cardinality misestimation;
* :class:`FeedbackLoop.record` persists *corrections* (observed
  cardinalities for filter-over-scan shapes) into the catalog's
  :class:`~repro.catalog.statistics.CorrectionStore` and flags the cached
  plan stale when its max Q-error exceeds the configurable threshold, so
  the next execution re-optimizes against the corrected statistics.

Feedback must never fail a query: :meth:`FeedbackLoop.record` absorbs the
``feedback.record`` chaos fault (and only that) by dropping the
observation, which the ``dropped`` counter makes visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from . import faultinject
from .catalog.statistics import CardinalityCorrection, CorrectionStore
from .concurrency import TrackedLock
from .core.optimizer.cardinality import predicate_fingerprint
from .errors import InjectedFault
from .physical.plan import PFilter, PTableScan
from .stats_version import capture

#: A cached plan whose observed max Q-error exceeds this is flagged stale
#: and replanned on its next lookup.  4 means "off by more than 4x in
#: either direction": large enough that ordinary estimation noise never
#: thrashes the cache, small enough that a skew-induced misestimate (the
#: drift benchmark's is in the hundreds) trips it immediately.
DEFAULT_Q_ERROR_THRESHOLD = 4.0

#: Corrections are only persisted for nodes at least this wrong —
#: near-accurate estimates do not need overriding.
MIN_CORRECTION_Q_ERROR = 2.0


def q_error(estimated: float, actual: float) -> float:
    """Symmetric ratio error, floored at one row on both sides (so an
    estimate of 0.04 rows against an actual 0 is a perfect 1.0, not an
    infinity)."""
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return est / act if est >= act else act / est


@dataclass(frozen=True)
class NodeFeedback:
    """Estimated vs. actual output cardinality of one plan node."""

    label: str
    estimated_rows: Optional[float]
    actual_rows: Optional[int]
    q_error: Optional[float]


@dataclass(frozen=True)
class PlanFeedback:
    """One execution's worth of per-node feedback."""

    nodes: tuple
    max_q_error: float


def collect(plan: Any, profile: Dict[Any, int]) -> PlanFeedback:
    """Join a plan tree against an execution profile.

    Works on physical plans (``estimated_rows`` attribute) and, with
    ``estimated_rows`` absent, on logical trees (every node then reports
    actuals only).  Nodes the profile never saw (e.g. the guarded inner
    side of an NLApply that never opened) report ``actual_rows=None``.
    """
    nodes: List[NodeFeedback] = []
    worst = 1.0

    def visit(node: Any) -> None:
        nonlocal worst
        estimated = getattr(node, "estimated_rows", None)
        actual = profile.get(id(node))
        q: Optional[float] = None
        if estimated is not None and actual is not None:
            q = q_error(estimated, actual)
            worst = max(worst, q)
        nodes.append(NodeFeedback(node.label(), estimated, actual, q))
        for child in node.children:
            visit(child)

    visit(plan)
    return PlanFeedback(tuple(nodes), worst)


def tree_dict(node: Any, profile: Optional[Dict[Any, int]] = None,
              estimates: Optional[Dict[int, float]] = None) -> dict:
    """The EXPLAIN [ANALYZE] tree as nested dicts with frozen keys.

    ``op``/``estimated_rows``/``actual_rows``/``q_error``/``children``
    are the wire-visible names — the server's explain op and
    ``Database.explain(format="dict")`` both emit this verbatim.
    Estimates come from the node's own ``estimated_rows`` when present
    (physical plans) or from the ``estimates`` side table keyed by node
    identity (logical trees, whose nodes carry no estimate attribute).

    A scan node that zone-map-pruned chunks additionally carries
    ``chunks_skipped``; the key is emitted only when at least one chunk
    was skipped so the frozen key set above stays exact everywhere else.
    """
    estimated = getattr(node, "estimated_rows", None)
    if estimated is None and estimates is not None:
        estimated = estimates.get(id(node))
    actual = profile.get(id(node)) if profile is not None else None
    q: Optional[float] = None
    if estimated is not None and actual is not None:
        q = q_error(estimated, actual)
    out = {"op": node.label(),
           "estimated_rows": estimated,
           "actual_rows": actual,
           "q_error": q,
           "children": [tree_dict(child, profile, estimates)
                        for child in node.children]}
    if profile is not None:
        skipped = profile.get(("chunks_skipped", id(node)))
        if skipped:
            out["chunks_skipped"] = skipped
    return out


def render_tree(tree: dict) -> str:
    """Text form of a :func:`tree_dict` tree: one node per line, indented
    two spaces per level, annotations appended where known."""
    lines: List[str] = []

    def visit(node: dict, depth: int) -> None:
        notes = []
        if node["estimated_rows"] is not None:
            notes.append(f"est={node['estimated_rows']:.1f}")
        if node["actual_rows"] is not None:
            notes.append(f"actual={node['actual_rows']}")
        if node["q_error"] is not None:
            notes.append(f"q={node['q_error']:.2f}")
        if node.get("chunks_skipped") is not None:
            notes.append(f"skipped={node['chunks_skipped']}")
        suffix = f"  ({' '.join(notes)})" if notes else ""
        lines.append("  " * depth + node["op"] + suffix)
        for child in node["children"]:
            visit(child, depth + 1)

    visit(tree, 0)
    return "\n".join(lines)


def tree_max_q_error(tree: dict) -> Optional[float]:
    """Worst Q-error anywhere in a :func:`tree_dict` tree (None when no
    node had both an estimate and an actual count)."""
    worst = tree["q_error"]
    for child in tree["children"]:
        below = tree_max_q_error(child)
        if below is not None and (worst is None or below > worst):
            worst = below
    return worst


def _correction_sites(plan: Any) -> List[PFilter]:
    """Filter-over-scan nodes: the shapes corrections are keyed on.

    A ``PFilter`` directly over a ``PTableScan`` corresponds one-to-one
    with a logical ``Select`` over ``Get`` — the estimator's
    :meth:`~repro.core.optimizer.cardinality.Estimator._corrected_rows`
    hook matches exactly the same shape on the logical side.
    """
    found: List[PFilter] = []

    def visit(node: Any) -> None:
        if isinstance(node, PFilter) and isinstance(node.child, PTableScan):
            found.append(node)
        for child in node.children:
            visit(child)

    visit(plan)
    return found


class FeedbackLoop:
    """Owns the record path: observations in, corrections and staleness
    flags out.  Thread-safe; one instance per :class:`~repro.Database`.
    """

    def __init__(self, corrections: CorrectionStore,
                 row_count_of: Callable[[str], int],
                 q_error_threshold: float = DEFAULT_Q_ERROR_THRESHOLD,
                 min_correction_q_error: float = MIN_CORRECTION_Q_ERROR
                 ) -> None:
        if q_error_threshold < 1.0:
            raise ValueError("q_error_threshold must be at least 1.0")
        self.corrections = corrections
        self.q_error_threshold = q_error_threshold
        self.min_correction_q_error = min_correction_q_error
        self._row_count_of = row_count_of
        self._lock = TrackedLock("feedback.stats")
        #: observability counters (served through the wire ``metrics`` op)
        self.plans_recorded = 0
        self.corrections_recorded = 0
        self.plans_invalidated = 0
        self.dropped = 0

    def record(self, entry: Any,
               profile: Dict[Any, int]) -> Optional[PlanFeedback]:
        """Fold one execution's profile back into the optimizer's world.

        ``entry`` is the executed :class:`~repro.plancache.CachedPlan`.
        Persists corrections for misestimated filter-over-scan nodes and
        flags the entry stale when the plan's max Q-error exceeds the
        threshold.  Never raises on the chaos fault site — an injected
        ``feedback.record`` fault drops this observation (counted in
        ``dropped``) and the query result is untouched.
        """
        if entry.plan is None or not profile:
            return None
        try:
            faultinject.hit("feedback.record")
        except InjectedFault:
            with self._lock:
                self.dropped += 1
            return None
        feedback = collect(entry.plan, profile)
        recorded = 0
        for node in _correction_sites(entry.plan):
            estimated = node.estimated_rows
            actual = profile.get(id(node))
            if estimated is None or actual is None:
                continue
            if q_error(estimated, actual) < self.min_correction_q_error:
                continue
            table = node.child.table_name
            self.corrections.record(CardinalityCorrection(
                table=table,
                predicate_key=predicate_fingerprint(node.predicate),
                estimated_rows=float(estimated),
                actual_rows=int(actual),
                q_error=q_error(estimated, actual),
                snapshot=capture(self._row_count_of, [table])))
            recorded += 1
        invalidated = False
        if feedback.max_q_error > self.q_error_threshold and \
                not entry.feedback_stale:
            entry.feedback_stale = True
            invalidated = True
        with self._lock:
            self.plans_recorded += 1
            self.corrections_recorded += recorded
            if invalidated:
                self.plans_invalidated += 1
        return feedback

    def as_dict(self) -> dict:
        """Frozen-name counter snapshot for the server ``metrics`` op."""
        # Read the correction store *before* taking the stats lock:
        # len(corrections) acquires stats.corrections (level 55), which
        # sits below feedback.stats (92) in the lock hierarchy and must
        # therefore never be taken while the stats lock is held.
        stored = len(self.corrections)
        with self._lock:
            return {"plans_recorded": self.plans_recorded,
                    "corrections_recorded": self.corrections_recorded,
                    "plans_invalidated": self.plans_invalidated,
                    "dropped": self.dropped,
                    "q_error_threshold": self.q_error_threshold,
                    "corrections_stored": stored}
