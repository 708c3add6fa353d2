"""Deterministic, test-scoped fault injection.

Production robustness code is only as good as the tests that exercise its
failure paths.  This module plants named *injection points* in the
optimizer, plan cache and executors; tests arm them with context managers
and the instrumented code raises :class:`~repro.errors.InjectedFault` at
exactly the chosen moment:

    with faultinject.fail_at("optimizer.explore", n=3):
        result = db.execute(sql)          # third exploration task fails
    assert result.degraded

When nothing is armed — the production state — a hit costs one global
read and a ``None`` comparison, so the instrumentation is free on the
hot path.  Arming is process-global but strictly scoped to the ``with``
block (context managers compose; each removes only its own trigger).
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from .errors import InjectedFault

#: Every injection point wired into the engine.  ``fail_at`` validates
#: against this set so a typo cannot silently arm nothing; chaos tests
#: iterate it so every registered site is actually exercised.
INJECTION_SITES = frozenset({
    "optimizer.explore",    # per exploration task in Optimizer._explore
    "optimizer.memo",       # per tree inserted into a Memo
    "optimizer.implement",  # per group visited by Implementer.best_plan
    "plancache.get",        # per plan-cache lookup
    "plancache.put",        # per plan-cache insertion
    "executor.open",        # per physical (vectorized) execution start
    "columnar.decode",      # per column-chunk decode (first touch only)
    "executor.naive",       # per naive-interpreter run start
    "analyzer.check",       # per static plan-analysis entry point
    "admission.enqueue",    # per request submitted to admission control
    "snapshot.install",     # per table-version install (commit point)
    "wire.decode",          # per wire-protocol request decode
    "feedback.record",      # per feedback-loop observation; a fault here
                            # drops the observation, never fails the query
    "wal.append",           # per WAL record, before any byte is written;
                            # torn mode persists a partial record first
    "wal.fsync",            # per WAL record, after the write but before
                            # fsync (the record may or may not survive)
    "wal.checkpoint",       # per checkpoint, before the atomic rename
                            # publishes it (old checkpoint + log intact)
    "recovery.replay",      # per WAL record applied during recovery
    "matview.refresh",      # per materialized-view content mutation
                            # (create/refresh recompute and per-view
                            # commit maintenance), before any view state
                            # changes
})


class _Trigger:
    """One armed failure: fires on the n-th hit, always, or at a rate."""

    __slots__ = ("site", "countdown", "always", "rate", "rng", "fired",
                 "torn")

    def __init__(self, site: str, countdown: Optional[int] = None,
                 always: bool = False, rate: float = 0.0,
                 rng: Optional[random.Random] = None,
                 torn: bool = False) -> None:
        self.site = site
        self.countdown = countdown
        self.always = always
        self.rate = rate
        self.rng = rng
        self.torn = torn
        self.fired = 0

    def fires(self) -> bool:
        if self.always:
            return True
        if self.countdown is not None:
            self.countdown -= 1
            return self.countdown == 0
        if self.rng is not None:
            return self.rng.random() < self.rate
        return False


class _FaultPlan:
    """The set of currently armed triggers, indexed by site."""

    def __init__(self) -> None:
        self.triggers: dict[str, list[_Trigger]] = {}

    def arm(self, trigger: _Trigger) -> None:
        self.triggers.setdefault(trigger.site, []).append(trigger)

    def disarm(self, trigger: _Trigger) -> None:
        bucket = self.triggers.get(trigger.site, [])
        if trigger in bucket:
            bucket.remove(trigger)
        if not bucket:
            self.triggers.pop(trigger.site, None)

    def check(self, site: str) -> None:
        for trigger in self.triggers.get(site, ()):
            if trigger.fires():
                trigger.fired += 1
                raise InjectedFault(site, torn=trigger.torn)

    def __bool__(self) -> bool:
        return bool(self.triggers)


_active: Optional[_FaultPlan] = None


def sites() -> frozenset[str]:
    """The registry of every injection site wired into the engine.

    The single enumeration point: the chaos suite, the fault-site lint
    (``python -m repro.analysis.concurrency faults``) and DESIGN.md all
    key off this call, so a site added in code but missing from the docs
    (or vice versa) fails CI.
    """
    return INJECTION_SITES


def hit(site: str) -> None:
    """Injection point: raises :class:`InjectedFault` when armed.

    Called from instrumented engine code.  With nothing armed this is a
    module-global read plus an ``is not None`` test.
    """
    if _active is not None:
        _active.check(site)


def is_active() -> bool:
    return _active is not None


def _validate(site: str) -> None:
    if site not in INJECTION_SITES:
        raise ValueError(
            f"unknown injection site {site!r}; registered sites: "
            f"{', '.join(sorted(INJECTION_SITES))}")


@contextmanager
def _armed(triggers: Sequence[_Trigger]) -> Iterator[list[_Trigger]]:
    global _active
    if _active is None:
        _active = _FaultPlan()
    plan = _active
    for trigger in triggers:
        plan.arm(trigger)
    try:
        yield list(triggers)
    finally:
        for trigger in triggers:
            plan.disarm(trigger)
        if _active is plan and not plan:
            _active = None


def fail_at(site: str, n: int = 1, torn: bool = False) -> "contextmanager":
    """Arm ``site`` to fail exactly once, on its ``n``-th hit.

    ``torn=True`` makes the fault a *torn write*: an instrumented writer
    (the WAL) persists a truncated prefix of the record before raising,
    simulating a crash partway through a disk write.
    """
    _validate(site)
    if n < 1:
        raise ValueError("n must be at least 1")
    return _armed([_Trigger(site, countdown=n, torn=torn)])


def fail_always(site: str, torn: bool = False) -> "contextmanager":
    """Arm ``site`` to fail on every hit while the context is open."""
    _validate(site)
    return _armed([_Trigger(site, always=True, torn=torn)])


def fail_randomly(rate: float, seed: int,
                  sites: Optional[Sequence[str]] = None) -> "contextmanager":
    """Arm sites to fail at ``rate`` under one seeded RNG (deterministic
    for a given seed and hit order).  Defaults to every registered site."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be within [0, 1]")
    chosen = sorted(sites) if sites is not None else sorted(INJECTION_SITES)
    for site in chosen:
        _validate(site)
    rng = random.Random(seed)
    return _armed([_Trigger(site, rate=rate, rng=rng) for site in chosen])
