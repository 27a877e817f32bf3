"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the slow, obvious way and shares no
code with the package internals beyond public data types.
"""
from __future__ import annotations

import random
from itertools import product

from equisynth.game import CommGraph, ConcurrentGame
from equisynth.epistemic import EveState
from equisynth.parity import ParityGame


# ---------------------------------------------------------------------------
# Enabled move functions, enumerated over the full function space.


def brute_force_devfunctions(game: ConcurrentGame, state: EveState):
    """All per-suspect move functions allowed at a deviated state: filter the
    full space f: suspects -> moves by the pairwise component-equality rule
    for players uninformed under both hypotheses."""
    devs = state.deviators()
    informed = state.informed_map()
    moves = list(game.moves(state.vertex))
    out = set()
    for combo in product(moves, repeat=len(devs)):
        ok = True
        for i, d in enumerate(devs):
            for j in range(i + 1, len(devs)):
                d2 = devs[j]
                for k, a in enumerate(game.players):
                    if a not in informed[d] and a not in informed[d2]:
                        if combo[i][k] != combo[j][k]:
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.add(tuple(zip(devs, combo)))
    return out


# ---------------------------------------------------------------------------
# Max-parity games: random generation and positional-strategy enumeration.


def random_parity_game(rng: random.Random, max_nodes: int = 8) -> ParityGame:
    n = rng.randint(1, max_nodes)
    owner = [rng.randint(0, 1) for _ in range(n)]
    priority = [rng.randint(0, 5) for _ in range(n)]
    succ = []
    for _ in range(n):
        deg = rng.randint(0, 2) if rng.random() < 0.2 else rng.randint(1, 2)
        succ.append(sorted(rng.sample(range(n), min(deg, n))))
    return ParityGame(owner, priority, succ)


def _player1_response_wins(pg: ParityGame, sigma0: dict[int, int], start: int) -> bool:
    """With player 0 fixed to `sigma0`, can player 1 force a win from `start`?

    Player 1 wins by reaching a node stuck for player 0, by getting stuck-free
    forever on a cycle whose top priority is odd, or because `start`'s owner 0
    is stuck.  In the restricted graph this is plain reachability.
    """
    n = pg.node_count()
    succ = []
    for v in range(n):
        if pg.owner[v] == 0:
            succ.append([sigma0[v]] if v in sigma0 else [])
        else:
            succ.append(list(pg.succ[v]))
    reach = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in succ[v]:
            if w not in reach:
                reach.add(w)
                stack.append(w)
    for v in reach:
        if not succ[v]:
            if pg.owner[v] == 0:
                return True  # play can be steered into a stuck player-0 node
            continue  # stuck player-1 node: bad for player 1, avoid it
    # An odd cycle reachable from start: some node v of odd priority p lying
    # on a cycle that never exceeds p.
    for v in reach:
        p = pg.priority[v]
        if p % 2 == 0:
            continue
        allowed = {w for w in range(n) if pg.priority[w] <= p}
        if v not in allowed:
            continue
        frontier = [w for w in succ[v] if w in allowed]
        seen = set(frontier)
        while frontier:
            u = frontier.pop()
            if u == v:
                return True
            for w in succ[u]:
                if w in allowed and w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return False


def brute_force_parity_regions(pg: ParityGame) -> tuple[set[int], set[int]]:
    """Winning regions by enumerating player 0's positional strategies and
    checking player 1's best response exactly."""
    n = pg.node_count()
    nodes0 = [v for v in range(n) if pg.owner[v] == 0 and pg.succ[v]]
    win0: set[int] = set()
    choice_lists = [pg.succ[v] for v in nodes0]
    for picks in product(*choice_lists) if nodes0 else [()]:
        sigma0 = dict(zip(nodes0, picks))
        for start in range(n):
            if start in win0:
                continue
            if not _player1_response_wins(pg, sigma0, start):
                win0.add(start)
    return win0, set(range(n)) - win0


def check_positional_strategy(pg: ParityGame, win0: set[int], s0: dict[int, int]) -> bool:
    """The returned strategy must beat every player-1 behaviour from every
    node of the claimed region."""
    return all(not _player1_response_wins(pg, s0, v) for v in win0)


# ---------------------------------------------------------------------------
# Random communication lassos for the record-reduction suite.


def random_lasso(rng: random.Random, color_count: int):
    prefix = [rng.randrange(color_count) for _ in range(rng.randint(0, 4))]
    cycle = [rng.randrange(color_count) for _ in range(rng.randint(1, 5))]
    subsets = []
    universe = list(range(color_count))
    for mask in range(1, 1 << color_count):
        subsets.append(frozenset(c for c in universe if mask >> c & 1))
    accepted = frozenset(s for s in subsets if rng.random() < 0.5)
    return prefix, cycle, (lambda s, acc=accepted: s in acc)


# ---------------------------------------------------------------------------
# Recurring sets by node-subset enumeration.


def strongly_connected_with_edge(sub: set, succ) -> bool:
    """Is the subgraph induced by `sub` strongly connected with an edge?"""
    edges_in = {v: [t for t in succ[v] if t in sub] for v in sub}
    if not any(edges_in.values()):
        return False
    start = min(sub)
    reverse: dict = {v: [] for v in sub}
    for v, ts in edges_in.items():
        for t in ts:
            reverse[t].append(v)
    for mapping in (edges_in, reverse):
        seen = {start}
        stack = [start]
        while stack:
            for t in mapping[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if seen != sub:
            return False
    return True


def brute_force_recurring_color_sets(nodes, succ, color) -> set[frozenset]:
    """Color sets of every node subset that is strongly connected with an
    edge: exactly the color sets some infinite path can visit forever."""
    nodes = list(nodes)
    out = set()
    for mask in range(1, 1 << len(nodes)):
        sub = {v for i, v in enumerate(nodes) if mask >> i & 1}
        if strongly_connected_with_edge(sub, succ):
            out.add(frozenset(color[v] for v in sub))
    return out


# ---------------------------------------------------------------------------
# Payoff-equivalence classes of a punishment layer, checked over every
# vertex subset.


def vertex_subset_table(game: ConcurrentGame, p, dev, layer_vertices, partition):
    """Acceptance table over sets of class ids if the predicate "every
    suspect's payoff is at most p" depends only on which classes of
    `partition` a vertex subset meets; None otherwise."""
    dev_idx = [game.player_index[d] for d in dev]
    cls_of = {v: ci for ci, cls in enumerate(partition) for v in cls}
    table: dict[frozenset[int], bool] = {}
    for mask in range(1, 1 << len(layer_vertices)):
        subset = frozenset(v for i, v in enumerate(layer_vertices) if mask >> i & 1)
        vec = game.payoff.value(subset)
        val = all(vec[i] <= p[i] for i in dev_idx)
        key = frozenset(cls_of[v] for v in subset)
        if table.setdefault(key, val) != val:
            return None
    return table


def brute_force_color_classes(game: ConcurrentGame, p, dev, layer_vertices):
    """Atom singletons plus one class of the other vertices, then merge the
    first pair of classes (in vertex order) that `vertex_subset_table` still
    accepts, until no pair can merge.  Returns (classes, table)."""
    atoms = game.payoff.atoms()
    vorder = {v: i for i, v in enumerate(game.vertices)}
    partition = [[v] for v in layer_vertices if v in atoms]
    rest = [v for v in layer_vertices if v not in atoms]
    if rest:
        partition.append(rest)
    partition.sort(key=lambda cls: vorder[cls[0]])
    table = vertex_subset_table(game, p, dev, layer_vertices, partition)
    assert table is not None, "atom singletons always decide the payoff"
    merged = True
    while merged:
        merged = False
        for i in range(len(partition)):
            for j in range(i + 1, len(partition)):
                cand = [cls for k, cls in enumerate(partition) if k not in (i, j)]
                cand.append(sorted(partition[i] + partition[j], key=vorder.__getitem__))
                cand.sort(key=lambda cls: vorder[cls[0]])
                t = vertex_subset_table(game, p, dev, layer_vertices, cand)
                if t is not None:
                    partition, table = cand, t
                    merged = True
                    break
            if merged:
                break
    return tuple(tuple(cls) for cls in partition), table


# ---------------------------------------------------------------------------
# Comm-graph helper reused by a few suites.


def complete_graph(players) -> CommGraph:
    return CommGraph(
        tuple(players),
        frozenset((a, b) for a in players for b in players if a != b),
    )


def edgeless_graph(players) -> CommGraph:
    return CommGraph(tuple(players), frozenset())
