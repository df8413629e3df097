"""The burst fast path's column primitive: a FIFO server's end times as
one prefix-max scan (``repro.roce.burst.fifo_ends``) must equal the
explicit per-job max-chain it replaces, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.roce.burst import COLUMN_LIMIT_PS, fifo_ends


def _loop(start, dur, floor):
    ends = []
    prev = floor
    for s, d in zip(start, dur):
        prev = max(prev, s) + d
        ends.append(prev)
    return ends


def _check(start, dur, floor):
    out = fifo_ends(np.array(start, np.int64), np.array(dur, np.int64),
                    floor)
    assert out.tolist() == _loop(start, dur, floor)


@pytest.mark.parametrize("floor", [0, 99, 100, 101, 10_000])
def test_floor_below_at_and_above_first_start(floor):
    _check([100, 150, 151, 400, 400, 2000], [30, 1, 0, 50, 50, 7], floor)


def test_ties_and_zero_durations():
    _check([5, 5, 5, 5], [0, 0, 0, 0], 5)
    _check([5, 5, 5, 5], [0, 3, 0, 3], 0)
    _check([0, 10, 10, 20, 20], [10, 0, 10, 0, 0], 0)


def test_unsorted_starts():
    _check([500, 10, 900, 20, 901], [5, 5, 5, 5, 5], 0)


@settings(max_examples=200, deadline=None)
@given(jobs=st.lists(st.tuples(st.integers(0, 10 ** 9),
                               st.integers(0, 10 ** 6)),
                     min_size=1, max_size=64),
       floor=st.integers(0, 10 ** 9))
def test_matches_explicit_loop(jobs, floor):
    start, dur = zip(*jobs)
    _check(list(start), list(dur), floor)


@pytest.mark.parametrize("start, dur, floor", [
    ([COLUMN_LIMIT_PS], [1], 0),          # a start at the limit
    ([0], [1], COLUMN_LIMIT_PS),          # a floor at the limit
    ([0, 0], [COLUMN_LIMIT_PS // 2] * 2, 0),  # summed durations
])
def test_refuses_columns_past_the_limit(start, dur, floor):
    with pytest.raises(OverflowError):
        fifo_ends(np.array(start, np.int64), np.array(dur, np.int64),
                  floor)
