"""Strictness modes, blame reporting, and the :class:`PlanAnalyzer` hub.

The analyzer has three modes, chosen through the ``REPRO_ANALYZE``
environment variable:

* ``off`` — never check anything;
* ``warn`` (the default) — check plans at plan-cache admission time and
  emit :class:`PlanAnalysisWarning` on violations;
* ``strict`` — additionally validate every rewrite-rule application and
  every normalizer pass, and *raise* :class:`~repro.errors.PlanInvariantError`
  on any violation.  Because that error subclasses ``PlanError``, a
  strict-mode failure inside ``Database`` degrades the query to a
  fallback plan rather than failing it.

Per-rule validation produces *blame reports*: "rule X turned valid tree
A into invalid tree B", with stable fingerprints for both trees and a
unified diff of their printed forms.
"""

from __future__ import annotations

import difflib
import os
import warnings
from typing import Optional

from .. import faultinject
from ..algebra.printer import explain, plan_fingerprint
from ..algebra.relational import RelationalOp, SegmentRef
from ..errors import InjectedFault, PlanInvariantError
from .invariants import SegmentBindings, verify_logical
from .issues import AnalysisIssue, render_issues
from .physical import IndexProvider, verify_batch_layout, verify_physical
from .rulechecks import RULE_CHECKS, verify_oj_simplification

OFF = "off"
WARN = "warn"
STRICT = "strict"
_MODES = (OFF, WARN, STRICT)

ENV_VAR = "REPRO_ANALYZE"

_warned_bad_mode = False


class PlanAnalysisWarning(UserWarning):
    """A plan failed static verification in ``warn`` mode."""


def analysis_mode() -> str:
    """The configured strictness mode (``off`` / ``warn`` / ``strict``)."""
    global _warned_bad_mode
    raw = os.environ.get(ENV_VAR, WARN).strip().lower()
    if raw in _MODES:
        return raw
    if not _warned_bad_mode:
        _warned_bad_mode = True
        warnings.warn(
            f"{ENV_VAR}={raw!r} is not one of {', '.join(_MODES)}; "
            f"falling back to {WARN!r}", PlanAnalysisWarning, stacklevel=2)
    return WARN


class PlanAnalyzer:
    """Entry point for every static-verification hook.

    Construct through the ``for_*`` classmethods, which read the mode
    once and return ``None`` when the corresponding hook is disabled —
    callers then skip all analysis work with a single ``is None`` test.
    """

    def __init__(self, mode: Optional[str] = None,
                 index_provider: Optional[IndexProvider] = None) -> None:
        self.mode = mode if mode is not None else analysis_mode()
        self.index_provider = index_provider

    @property
    def enabled(self) -> bool:
        return self.mode != OFF

    @property
    def strict(self) -> bool:
        return self.mode == STRICT

    @classmethod
    def for_rules(cls) -> Optional["PlanAnalyzer"]:
        """Per-rule-application analyzer; active only in strict mode."""
        mode = analysis_mode()
        return cls(mode) if mode == STRICT else None

    @classmethod
    def for_normalization(cls) -> Optional["PlanAnalyzer"]:
        """Per-normalizer-pass analyzer; active only in strict mode."""
        mode = analysis_mode()
        return cls(mode) if mode == STRICT else None

    @classmethod
    def for_admission(cls, index_provider: Optional[IndexProvider] = None,
                      ) -> Optional["PlanAnalyzer"]:
        """Plan-cache-admission analyzer; active in warn and strict."""
        mode = analysis_mode()
        return cls(mode, index_provider) if mode != OFF else None

    # -- fault injection ---------------------------------------------------
    def _armed(self) -> bool:
        """False when a fault is injected: skip the check, never the query."""
        try:
            faultinject.hit("analyzer.check")
        except InjectedFault:
            return False
        return True

    # -- checks ------------------------------------------------------------
    def check_logical(self, rel: RelationalOp, *, stage: str,
                      env: frozenset[int] = frozenset(),
                      allow_subqueries: bool = False,
                      segment_bindings: SegmentBindings = (),
                      ) -> list[AnalysisIssue]:
        if not self.enabled or not self._armed():
            return []
        issues = verify_logical(rel, env,
                                allow_subqueries=allow_subqueries,
                                segment_bindings=segment_bindings)
        self._report(stage, issues)
        return issues

    def check_physical(self, plan, *, stage: str,
                       env: frozenset[int] = frozenset(),
                       ) -> list[AnalysisIssue]:
        if not self.enabled or not self._armed():
            return []
        issues = verify_physical(plan, env,
                                 index_provider=self.index_provider)
        # Positional layout checks: the engine compiles against these
        # and gathers whole columns by position.
        issues.extend(verify_batch_layout(plan))
        self._report(stage, issues)
        return issues

    def admissible(self, rel: Optional[RelationalOp] = None,
                   plan=None) -> bool:
        """Silent pass/fail verdict, for the plan cache's admission hook.

        The cache refuses (but does not fail on) entries whose trees do
        not verify; the loud per-stage checks have already reported, so
        this stays quiet.  ``rel`` is the *bound* tree, which may still
        embed scalar subqueries legitimately.
        """
        if not self.enabled or not self._armed():
            return True
        if rel is not None and verify_logical(rel, allow_subqueries=True):
            return False
        if plan is not None and (
                verify_physical(plan, index_provider=self.index_provider)
                or verify_batch_layout(plan)):
            return False
        return True

    def check_rule_application(self, rule_name: str,
                               before: RelationalOp,
                               after: RelationalOp) -> list[AnalysisIssue]:
        """Validate one rewrite-rule application, with blame on failure."""
        if not self.enabled or not self._armed():
            return []
        env = frozenset(before.outer_references().ids())
        segments = _segment_bindings_of(before)
        issues = verify_logical(after, env, segment_bindings=segments)
        before_ids = [c.cid for c in before.output_columns()]
        after_ids = [c.cid for c in after.output_columns()]
        if before_ids != after_ids:
            issues.append(AnalysisIssue(
                "rule.schema-changed",
                f"output schema changed from {before_ids} to {after_ids}; "
                f"memo group members must agree on their ordered output",
                node=after.label()))
        escaped = after.outer_references().ids() - env
        if escaped:
            names = ", ".join(f"#{cid}" for cid in sorted(escaped))
            issues.append(AnalysisIssue(
                "scope.rule-escape",
                f"result references columns {names} that were not free in "
                f"the rule's input", node=after.label()))
        extra_check = RULE_CHECKS.get(rule_name)
        if extra_check is not None:
            issues.extend(extra_check(before, after))
        blame = _blame(rule_name, before, after) if issues else None
        self._report(f"rule:{rule_name}", issues, blame)
        return issues

    def check_oj_simplification(self, before: RelationalOp,
                                after: RelationalOp) -> list[AnalysisIssue]:
        if not self.enabled or not self._armed():
            return []
        issues = verify_oj_simplification(before, after)
        blame = None
        if issues:
            blame = _blame("simplify_outerjoins", before, after)
        self._report("normalize:simplify_outerjoins", issues, blame)
        return issues

    # -- reporting ---------------------------------------------------------
    def _report(self, stage: str, issues: list[AnalysisIssue],
                blame: Optional[str] = None) -> None:
        if not issues:
            return
        message = f"plan verification failed at {stage}:\n" \
                  f"{render_issues(issues)}"
        if blame:
            message = f"{message}\n{blame}"
        if self.strict:
            raise PlanInvariantError(message, issues=issues, blame=blame)
        warnings.warn(message, PlanAnalysisWarning, stacklevel=3)


def _segment_bindings_of(rel: RelationalOp) -> SegmentBindings:
    """SegmentRef bindings to assume valid when checking a rule's output.

    Rule bindings are fragments of a memo: an expression cut out of a
    SegmentApply inner tree contains SegmentRef leaves whose enclosing
    binder is outside the fragment.  Any binding present in the *input*
    is taken as granted for the output.
    """
    found: list[tuple[int, ...]] = []

    def collect(node: RelationalOp) -> None:
        if isinstance(node, SegmentRef):
            binding = tuple(c.cid for c in node.columns)
            if binding not in found:
                found.append(binding)
        for child in node.children:
            collect(child)

    collect(rel)
    return tuple(found)


def _blame(rule_name: str, before: RelationalOp,
           after: RelationalOp) -> str:
    fp_before = plan_fingerprint(before)
    fp_after = plan_fingerprint(after)
    diff = "\n".join(difflib.unified_diff(
        explain(before).splitlines(), explain(after).splitlines(),
        fromfile=f"valid tree {fp_before}",
        tofile=f"invalid tree {fp_after}", lineterm=""))
    return (f"rule {rule_name!r} turned valid tree {fp_before} into "
            f"invalid tree {fp_after}:\n{diff}")
