"""Local/global aggregate merging — paper footnote 3.

"The implementation, whether hash based or sort based, of aggregate
functions in a query execution engine requires this ability of splitting
an aggregate into local and global components, if it has to spill data to
disk and then recombine it."

Every :class:`~repro.algebra.aggregates.AggregateDescriptor` must
support that recombination: folding the input in any number of runs and
merging the runs' partial states equals folding it once — NULLs
included, for every aggregate function.  Integer values keep the
comparison exact.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import AggregateFunction
from repro.algebra.aggregates import descriptor

ALL_FUNCS = list(AggregateFunction)


def fold(desc, values):
    state = desc.initial()
    for value in values:
        state = desc.step(state, value)
    return state


def fold_in_runs(desc, values, cuts):
    """Fold each run between consecutive ``cuts`` separately, then merge
    the partial states left to right."""
    bounds = [0, *sorted(cuts), len(values)]
    partials = [fold(desc, values[lo:hi])
                for lo, hi in zip(bounds, bounds[1:])]
    merged = partials[0]
    for partial in partials[1:]:
        merged = desc.merge(merged, partial)
    return merged


class TestLocalGlobalMerge:
    @pytest.mark.parametrize("func", ALL_FUNCS)
    def test_runs_of_every_length_merge_to_one_fold(self, func):
        rng = random.Random(7)
        values = [rng.choice([None] + list(range(10))) for _ in range(500)]
        desc = descriptor(func)
        expected = desc.final(fold(desc, values))
        for run in (1, 2, 7, 100):
            cuts = range(run, len(values), run)
            assert desc.final(fold_in_runs(desc, values, cuts)) == \
                expected, f"{func.value} in runs of {run}"

    @pytest.mark.parametrize("func", ALL_FUNCS)
    def test_empty_runs_are_merge_identities(self, func):
        desc = descriptor(func)
        empty = desc.initial()
        for values in ([], [None], [None, 3, -2]):
            state = fold(desc, values)
            assert desc.merge(state, empty) == state
            assert desc.merge(empty, state) == state

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.one_of(st.none(), st.integers(-5, 5)),
                           max_size=60),
           data=st.data())
    def test_property_k_runs_equal_one_fold(self, values, data):
        cuts = data.draw(st.lists(st.integers(0, len(values)), max_size=6))
        for func in ALL_FUNCS:
            desc = descriptor(func)
            assert desc.final(fold_in_runs(desc, values, cuts)) == \
                desc.final(fold(desc, values)), func.value
