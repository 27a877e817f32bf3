"""Zero-sum max-parity solving against exhaustive positional enumeration
and the plain recursive solver, and block by block against one block."""
from __future__ import annotations

import random
import sys

from equisynth.parity import ParityGame, solve_parity

from oracles import (
    brute_force_parity_regions,
    check_positional_strategy,
    parity_regions,
    random_parity_game,
    reference_solve_parity,
)


def test_single_even_self_loop():
    pg = ParityGame([0], [2], [[0]])
    w0, w1, s0, _ = parity_regions(pg)
    assert w0 == {0} and not w1
    assert s0 == {0: 0}


def test_single_odd_self_loop():
    pg = ParityGame([0], [1], [[0]])
    w0, w1, _, _ = parity_regions(pg)
    assert w1 == {0} and not w0


def test_dead_end_loses_for_owner():
    # Node 0 (player 0) can only move to node 1, which is stuck and owned
    # by player 1: getting stuck loses, so player 0 wins both nodes.
    pg = ParityGame([0, 1], [1, 1], [[1], []])
    w0, w1, _, _ = parity_regions(pg)
    assert w0 == {0, 1} and not w1
    pg = ParityGame([1, 0], [2, 2], [[1], []])
    w0, w1, _, _ = parity_regions(pg)
    assert w1 == {0, 1} and not w0


def test_choice_matters():
    # Player 0 at node 0 picks between an odd loop and an even loop.
    pg = ParityGame([0, 1, 1], [0, 1, 2], [[1, 2], [1], [2]])
    w0, _, s0, _ = parity_regions(pg)
    assert w0 == {0, 2}
    assert s0[0] == 2


def test_regions_partition_all_nodes():
    rng = random.Random(11)
    for _ in range(50):
        pg = random_parity_game(rng)
        winner, move = solve_parity(pg)
        assert len(winner) == len(move) == pg.node_count()
        assert set(winner) <= {0, 1}
        w0, w1, s0, s1 = parity_regions(pg)
        assert w0 | w1 == set(range(pg.node_count()))
        assert not (w0 & w1)
        assert all(pg.owner[v] == 0 for v in s0)
        assert all(pg.owner[v] == 1 for v in s1)
        assert all(s0[v] in pg.succ[v] for v in s0)
        assert all(s1[v] in pg.succ[v] for v in s1)


def test_against_positional_enumeration():
    rng = random.Random(20260814)
    games = 0
    while games < 200:
        pg = random_parity_game(rng, max_nodes=8)
        expected0, expected1 = brute_force_parity_regions(pg)
        w0, w1, s0, _s1 = parity_regions(pg)
        assert w0 == expected0, (pg, sorted(w0), sorted(expected0))
        assert w1 == expected1
        assert check_positional_strategy(pg, w0, s0), (pg, s0)
        games += 1


def test_against_reference_solver():
    rng = random.Random(20261018)
    small = 0
    for k in range(600):
        pg = random_parity_game(rng, max_nodes=8 if k % 3 == 0 else 60, max_priority=9)
        w0, w1, s0, s1 = parity_regions(pg)
        ref0, ref1, _, _ = reference_solve_parity(pg)
        assert (w0, w1) == (ref0, ref1), pg
        for player, won, strategy in ((0, w0, s0), (1, w1, s1)):
            assert set(strategy) == {v for v in won if pg.owner[v] == player}, pg
            assert all(w in pg.succ[v] and w in won for v, w in strategy.items()), pg
        if pg.node_count() <= 8:
            small += 1
            assert check_positional_strategy(pg, w0, s0), pg
            # Player 1's strategy, checked as player 0's in the dual game.
            dual = ParityGame([1 - o for o in pg.owner], [p + 1 for p in pg.priority],
                              pg.succ)
            assert check_positional_strategy(dual, w1, s1), pg
    assert small >= 150


def random_block_game(rng: random.Random, max_nodes: int, max_priority: int = 5):
    """A random game whose nodes fall into blocks, with every edge inside its
    block or into an earlier one, and a weight per node.  Node ids are dealt
    to the blocks at random, about a third of the blocks have one priority,
    and about one node in six is stuck."""
    n = rng.randint(1, max_nodes)
    rank = [rng.randrange(rng.randint(1, n)) for _ in range(n)]
    blocks = [b for b in ([v for v in range(n) if rank[v] == r] for r in range(n)) if b]
    rank = {v: i for i, b in enumerate(blocks) for v in b}
    shared = [rng.randint(0, max_priority) if rng.random() < 0.3 else None for _ in blocks]
    priority = [rng.randint(0, max_priority) if shared[rank[v]] is None else shared[rank[v]]
                for v in range(n)]
    succ = []
    for v in range(n):
        allowed = [w for w in range(n) if rank[w] <= rank[v]]
        deg = 0 if rng.random() < 1 / 6 else rng.randint(1, 3)
        succ.append(sorted(rng.sample(allowed, min(deg, len(allowed)))))
    pg = ParityGame([rng.randint(0, 1) for _ in range(n)], priority, succ)
    return pg, blocks, [rng.randint(0, 3) for _ in range(n)]


def test_block_solve_matches_the_one_block_solve():
    rng = random.Random(20261020)
    small = one_priority = stuck = 0
    for k in range(600):
        pg, blocks, weight = random_block_game(rng, 8 if k % 3 == 0 else 40)
        winner, move = solve_parity(pg, blocks, weight)
        assert winner == solve_parity(pg)[0], (pg, blocks)
        n = pg.node_count()
        won = [{v for v in range(n) if winner[v] == player} for player in (0, 1)]
        strategy = [{v: move[v] for v in won[player] if pg.owner[v] == player}
                    for player in (0, 1)]
        for player in (0, 1):
            assert all(w in pg.succ[v] and winner[w] == player
                       for v, w in strategy[player].items()), (pg, blocks)
        if n <= 8:
            small += 1
            assert check_positional_strategy(pg, won[0], strategy[0]), (pg, blocks)
            dual = ParityGame([1 - o for o in pg.owner], [p + 1 for p in pg.priority],
                              pg.succ)
            assert check_positional_strategy(dual, won[1], strategy[1]), (pg, blocks)
        one_priority += sum(len({pg.priority[v] for v in b}) == 1 < len(b) for b in blocks)
        stuck += sum(not s for s in pg.succ)
    assert small >= 150 and one_priority >= 100 and stuck >= 100


def test_deep_chain_leaves_the_recursion_limit_alone():
    # v -> v + 1, the last node loops, priorities fall along the chain: each
    # level of Zielonka's recursion takes one node off, 5,000 levels in all.
    n = 5000
    pg = ParityGame(
        [v % 2 for v in range(n)],
        [2 * (n - v) for v in range(n)],
        [[v + 1] for v in range(n - 1)] + [[n - 1]],
    )
    limit = sys.getrecursionlimit()
    assert limit < n
    w0, w1, s0, s1 = parity_regions(pg)
    assert w0 == set(range(n)) and not w1
    assert s0 == {v: v + 1 for v in range(0, n - 1, 2)}
    assert sys.getrecursionlimit() == limit
