"""Materialized aggregate views: substitution, maintenance, selection.

This package stores the paper's §3.3 *local-aggregate* form as a real
table and exploits its decomposability three ways:

* **substitution** (:mod:`.shape`, :mod:`.rule`) — one more memo rule:
  an aggregate over an optionally filtered base table that a view
  subsumes (contained predicate, equal-or-coarser grouping, derivable
  aggregates) gains the alternative of the §3.3 *global* aggregate over
  the view's backing rows, with stored counts making ``AVG``/``COUNT``
  compose; cost picks among base and views;
* **incremental maintenance** (:mod:`.maintenance`, :mod:`.manager`) —
  one compiled local-aggregate plan per view builds it from the base
  table and, at commit, aggregates just the delta, which is merged into
  the backing rows inside the same snapshot install, so base and view
  versions move together;
* **workload-driven selection** (:mod:`.advisor`) — hot aggregate shapes
  mined from the plan cache become recommended (or auto-created) views.
"""

from .advisor import DEFAULT_MIN_HITS, auto_materialize, recommend
from .definition import MatViewDef, MatViewError
from .manager import (MATVIEW_LOCK_TIMEOUT, MatViewManager,
                      Recommendation)
from .rule import ViewSubstitution

__all__ = ["DEFAULT_MIN_HITS", "MATVIEW_LOCK_TIMEOUT", "MatViewDef",
           "MatViewError", "MatViewManager", "Recommendation",
           "ViewSubstitution", "auto_materialize", "recommend"]
