"""Incremental maintenance: per-commit deltas in local-aggregate form.

When a transaction commits inserts into a view's base table, the view is
not recomputed; the inserted rows are folded in.  This is the paper's
§3.3 split applied to maintenance:

* the view's compiled local-aggregate plan (:attr:`MatViewDef.local`,
  the same plan that builds the view) runs over *just the delta rows* —
  one partial row per affected group;
* :func:`merge` combines those partials into the current backing rows —
  the *global* step — which is correct precisely because every
  aggregate the view stores is decomposable (``sum``/``count`` add,
  ``min``/``max`` take extrema, and ``avg`` is never stored, only
  re-derived).  Each column merges with its partial aggregate's own
  :meth:`~repro.algebra.aggregates.AggregateDescriptor.merge`.

Both steps run inside ``Storage.install_many`` under the view's writer
lock, so the new view version installs in the *same* snapshot swap as
the base-table version: readers never observe a base/view mismatch.

Caveat (documented in DESIGN.md): float ``SUM`` is merged as
``old_sum + delta_sum``, which can differ in the last ulp from a
left-to-right recomputation because float addition is not associative.
Integer and decimal sums are exact.
"""

from __future__ import annotations

from typing import Sequence

from .definition import MatViewDef


def merge(viewdef: MatViewDef, current_rows: Sequence[tuple],
          delta_rows: Sequence[tuple]) -> list[tuple]:
    """Fold per-group partial rows into the current backing rows.

    Existing groups keep their row position; new groups append in delta
    order.  The result is the complete new backing contents (inserts
    only — the engine has no DELETE/UPDATE, so counts never reach zero
    and groups never disappear).
    """
    width = len(viewdef.local.group_columns)
    descriptors = [call.descriptor for _, call in viewdef.local.aggregates]
    pending = {row[:width]: row for row in delta_rows}
    merged: list[tuple] = []
    for row in current_rows:
        delta = pending.pop(row[:width], None)
        if delta is None:
            merged.append(row)
            continue
        merged.append(row[:width] + tuple(
            descriptor.merge(stored, partial) for descriptor, stored, partial
            in zip(descriptors, row[width:], delta[width:])))
    merged.extend(pending.values())
    return merged
