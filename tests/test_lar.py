"""The latest-appearance-record reduction of recurrence conditions to
max-parity, kept in `oracles` as the reference the Zielonka-tree product is
checked against."""
from __future__ import annotations

import random

from oracles import (
    LarState,
    initial_record,
    lar_priority,
    lar_step,
    muller_accepts_lasso,
    parity_accepts_lasso,
    random_lasso,
)


def test_record_moves_color_to_front():
    s = LarState(initial_record(3), 0)
    s = lar_step(s, 2)
    assert s == LarState((2, 0, 1), 3)
    s = lar_step(s, 0)
    assert s == LarState((0, 2, 1), 2)
    s = lar_step(s, 0)
    assert s == LarState((0, 2, 1), 1)


def test_priority_even_iff_prefix_accepted():
    accept = lambda s: s == frozenset({0, 2})
    state = LarState((2, 0, 1), 2)
    assert lar_priority(state, accept) == 4
    assert lar_priority(LarState((1, 0, 2), 2), accept) == 5
    assert lar_priority(LarState((2, 0, 1), 0), accept) == 0


def test_recurring_colors_reach_top_hit():
    # Pumping a cycle over colors {0,1} must settle on hit 2 with prefix {0,1}.
    s = LarState(initial_record(3), 0)
    for c in (2, 0, 1, 0, 1, 0, 1, 0, 1):
        s = lar_step(s, c)
    assert frozenset(s.record[:2]) == frozenset({0, 1})
    assert s.hit == 2


def test_reduction_matches_direct_evaluation():
    rng = random.Random(20260814)
    for _ in range(500):
        color_count = rng.randint(1, 5)
        prefix, cycle, accept = random_lasso(rng, color_count)
        direct = muller_accepts_lasso(prefix, cycle, accept)
        reduced = parity_accepts_lasso(prefix, cycle, color_count, accept)
        assert direct == reduced, (color_count, prefix, cycle)


def test_reduction_insensitive_to_prefix():
    rng = random.Random(3)
    for _ in range(100):
        color_count = rng.randint(1, 4)
        prefix, cycle, accept = random_lasso(rng, color_count)
        with_prefix = parity_accepts_lasso(prefix, cycle, color_count, accept)
        without = parity_accepts_lasso((), cycle, color_count, accept)
        assert with_prefix == without
