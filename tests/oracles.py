"""Reference implementations the tests check the package against.

Everything here is deliberately written the slow, obvious way.  Beyond
public data types, only four helpers use package code: `successor_map` takes
one step through the package's successor function,
`literal_knowledge_violations` checks its literal recomputation with the
package's knowledge characterization, `full_build_verify` runs the
package's checks on the full epistemic game, and `nash_violations` finds
recurring vertex sets with `solver.recurring_sets`.  The exceptions to "slow and
obvious" are the package's earlier algorithms, kept unchanged as references:
`per_state_distinct_actions` with `per_move_table`, the build's earlier
enumeration of Eve actions, which a test swaps into the package's
`Encoding` to compare the games it builds; `per_state_memo_build`, the
build with one successor memo per state instead of one per grown-mask
tuple, which with `plain_pruned_build` also gives the pruned build that
expands split states; `sliced_move_table`, the move table made by grouping
moves with one action cut out; and
`layered_punishment_region`, the punishment solve one suspect-set layer at a
time, each layer copied into its own tree product.  `check_parity_certificate`
checks a parity solver's answer without trusting the solver.
"""
from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from itertools import product
from typing import Optional

from equisynth.epistemic import (
    Encoding,
    EpistemicGame,
    EveAction,
    EveState,
    Situation,
    StateKey,
    _distinct_actions,
    action_reach,
    expand,
    knowledge_violations,
    state_key,
    successors,
)
from equisynth.errors import CapExceeded, InvalidInput, LarCapExceeded, ProfileInputRejected
from equisynth.game import CommGraph, ConcurrentGame, FullHistory, Message, Move, substitute
from equisynth.parity import ParityGame, solve_parity
from equisynth.solver import (
    LAR_CAP,
    EveStrategy,
    LayerTable,
    PunishmentSolution,
    _layer_groups,
    _layer_setup,
    recurring_sets,
)


# ---------------------------------------------------------------------------
# One epistemic step, outside any built game.


def successor_map(game: ConcurrentGame, graph: CommGraph, state: EveState, action):
    """Target vertex -> successor Eve state after Eve suggests `action` (a
    joint move, or a move function: one move per suspect, in the state's
    order) at `state`, through the package's integer successor function.  A
    vertex no single deviation can reach is absent."""
    enc = Encoding(game, graph)
    index = game.player_index
    key = (game.vertex_index[state.vertex], tuple(
        (index[s.deviator], sum(1 << index[b] for b in s.informed))
        for s in state.situations
    ))
    return {s.vertex: s for s in
            successors(enc, expand(enc, key), *action_reach(enc, key, action), enc.state)}


# ---------------------------------------------------------------------------
# The epistemic build on strings: frozenset reach sets, dict informed sets
# and one EveState per successor, the way the package built it before its
# integer encoding.


def deviation_reach(game: ConcurrentGame, vertex: str, move: Move, d: str) -> frozenset[str]:
    """The vertices hypothesis `d` can reach from `vertex` by changing its own
    action in `move`, the suggested action included."""
    i = game.player_index[d]
    row = game.tab[vertex]
    return frozenset(row[substitute(move, i, alt)] for alt in game.allow[vertex][d])


def _sorted_players(game: ConcurrentGame, players) -> tuple[str, ...]:
    return tuple(sorted(players, key=game.player_index.__getitem__))


def _make_state(game: ConcurrentGame, vertex: str, informed: dict[str, set[str]]) -> EveState:
    situations = tuple(
        Situation(d, _sorted_players(game, informed[d]))
        for d in _sorted_players(game, informed)
    )
    return EveState(vertex, situations)


def reference_successors(
    game: ConcurrentGame,
    graph: CommGraph,
    state: EveState,
    reach: dict[str, frozenset[str]],
    comply: Optional[str] = None,
) -> list[tuple[str, EveState]]:
    """Labelled successors of `state`, in vertex order, when each hypothesis
    d continues to the vertices `reach[d]`: a target keeps the hypotheses
    that reach it, every informed set grows by one communication step, and
    at a non-deviated state (every player a fresh hypothesis informed of
    itself) the complying vertex is followed by the non-deviated state."""
    hyps = state.situations or tuple(Situation(d, (d,)) for d in game.players)
    grown: dict[str, set[str]] = {}
    for s in hyps:
        g = set(s.informed)
        for b in s.informed:
            g.update(graph.informed_by[b])
        grown[s.deviator] = g
    targets = sorted({t for r in reach.values() for t in r}, key=game.vertex_index.__getitem__)
    out = []
    for t in targets:
        if t == comply:
            out.append((t, EveState(t, ())))
        else:
            informed = {d: g for d, g in grown.items() if t in reach[d]}
            out.append((t, _make_state(game, t, informed)))
    return out


def _reference_distinct_actions(game: ConcurrentGame, state: EveState):
    """Enabled actions of `state` with their reach maps and complying
    vertex, keeping the first move of each reach set per suspect."""
    v = state.vertex
    if not state.deviated:
        for move in game.moves(v):
            reach = {d: deviation_reach(game, v, move, d) for d in game.players}
            yield move, reach, game.tab[v][move]
        return
    devs = state.deviators()
    informed = state.informed_map()
    shared, private = _slots(game, state)
    for st in product(*(game.allow[v][a] for a in shared)):
        st_map = dict(zip(shared, st))
        per_dev = []
        for d in devs:
            opts: dict[frozenset[str], Move] = {}
            for pr in product(*(game.allow[v][a] for a in private[d])):
                pr_map = dict(zip(private[d], pr))
                move = tuple(
                    pr_map[a] if a in informed[d] else st_map[a] for a in game.players
                )
                opts.setdefault(deviation_reach(game, v, move, d), move)
            per_dev.append(list(opts.items()))
        for combo in product(*per_dev):
            action = tuple((d, m) for d, (_r, m) in zip(devs, combo))
            yield action, {d: r for d, (r, _m) in zip(devs, combo)}, None


# The build's move table and enumeration of Eve actions as they were before
# the options of a suspect were tabled once per build: the move table makes
# |allow[d]| substitutions per move and player, and every state rebuilds the
# options of its suspects for each shared choice.  Copied unchanged but for
# their names, for reading whether the build is pruned off the encoding
# (`Encoding.pruned`) and for the final filter of a pruned build to the
# ⊆-minimal reach tuples, with the helper they call, so the tests can build a
# game with them swapped in (`per_move_table` for `Encoding.moves`).


def per_move_table(self, v: int) -> dict[Move, tuple[int, tuple[int, ...]]]:
    """Each allowed joint move at vertex `v`, in canonical order, mapped to
    its target and, per player d, the vertices d reaches by changing its
    own action in the move (the suggested action included)."""
    table = self._moves.get(v)
    if table is None:
        game = self.game
        name = game.vertices[v]
        row, allow, vidx = game.tab[name], game.allow[name], game.vertex_index
        table = {}
        for move in game.moves(name):
            reach = tuple(
                sum(1 << t for t in {
                    vidx[row[substitute(move, i, alt)]] for alt in allow[d]
                })
                for i, d in enumerate(game.players)
            )
            table[move] = (vidx[row[move]], reach)
        self._moves[v] = table
    return table


def sliced_move_table(enc: Encoding, v: int) -> dict[Move, tuple[int, tuple[int, ...]]]:
    """The table `Encoding.moves(v)` returns, made as it was before moves
    were numbered: per player, the moves that differ only in its action are
    grouped by the move with that action cut out, and its reach mask is the
    union of the group's targets."""
    game = enc.game
    name = game.vertices[v]
    row, vidx = game.tab[name], game.vertex_index
    targets = {move: vidx[row[move]] for move in game.moves(name)}
    groups: list[dict[Move, int]] = [{} for _ in game.players]
    for move, t in targets.items():
        for i, group in enumerate(groups):
            rest = move[:i] + move[i + 1:]
            group[rest] = group.get(rest, 0) | 1 << t
    return {
        move: (t, tuple(group[move[:i] + move[i + 1:]]
                        for i, group in enumerate(groups)))
        for move, t in targets.items()
    }


def first_match_tab(game: ConcurrentGame, transitions: dict) -> dict[str, dict[Move, str]]:
    """The transition table a game file's `transitions` give on `game`'s
    allowed moves: per vertex, each move in canonical order mapped to the
    target of the first entry whose pattern matches it, every entry tried
    against every move."""

    def matches(pattern, move: Move) -> bool:
        if pattern == "*":
            return True
        for a, act in zip(game.players, move):
            spec = pattern.get(a, "*")
            if spec != "*" and act not in (spec if isinstance(spec, list) else [spec]):
                return False
        return True

    return {
        v: {move: next(e["to"] for e in transitions[v] if matches(e["pattern"], move))
            for move in game.moves(v)}
        for v in game.vertices
    }


def _minimal(options: dict[int, Move]) -> dict[int, Move]:
    """The entries of `options` whose reach mask strictly contains no other."""
    if len(options) < 2:  # the common case
        return options
    return {r: m for r, m in options.items()
            if not any(s != r and s & r == s for s in options)}


def per_state_distinct_actions(enc: Encoding, key: StateKey):
    """Eve's enabled actions at the state `key`, the first of each distinct
    reach tuple (and complying target) in enumeration order, each as
    (action, reach masks in hypothesis order, complying target or -1).

    With suspects present the move functions are enumerated through their
    per-suspect reach sets: one shared component per player uninformed under
    some hypothesis, private components per suspect for the players informed
    of it.  A suspect's options depend only on the shared components of the
    players it leaves uninformed, so they are computed once per such
    choice.

    In a pruned build (`enc.pruned`), a suspect's options for one shared
    choice keep only their ⊆-minimal reach masks.  Replacing a suspect's move by one of the same
    shared choice with a smaller reach mask leaves the move function enabled
    and shrinks its reach tuple, so every dropped move function is dominated
    by a kept one (see the module docstring).  Without suspects a pruned
    build keeps, per complying target, the moves with no other reach tuple
    of that target strictly within theirs.

    The pruned output is then filtered, in order, to the reach tuples with
    no other tuple of the state strictly within them.  Each of those is
    yielded at the same shared choice, with the same action, as without the
    per-choice pruning: wherever it is enabled, each of its masks is already
    ⊆-minimal among its suspect's options, or a smaller tuple would exist."""
    v, pairs = key
    table = enc.moves(v)
    if not pairs:
        seen = set()
        found = []
        for move, (target, reach) in table.items():
            if (target, reach) not in seen:
                seen.add((target, reach))
                found.append((move, reach, target))
        for move, reach, target in found:
            if not enc.pruned or not any(
                    t == target and other != reach
                    and all(o & ~r == 0 for o, r in zip(other, reach))
                    for _move, other, t in found):
                yield move, reach, target
        return
    game = enc.game
    players = game.players
    allow = game.allow[game.vertices[v]]
    shared = [a for a in range(len(players)) if any(not m >> a & 1 for _, m in pairs)]
    plans = []
    for d, m in pairs:
        private = [a for a in range(len(players)) if m >> a & 1]
        reads = [q for q, a in enumerate(shared) if not m >> a & 1]
        # A move is read off (private components) + (the shared ones it reads).
        order = [
            private.index(a) if m >> a & 1 else len(private) + reads.index(shared.index(a))
            for a in range(len(players))
        ]
        plans.append((d, [allow[players[a]] for a in private], reads, order, {}))
    seen_options = set()
    seen = set()
    found = []
    for st in product(*(allow[players[a]] for a in shared)):
        options = []
        for d, private_allow, reads, order, cache in plans:
            read = tuple(map(st.__getitem__, reads))
            opts = cache.get(read)
            if opts is None:
                opts = cache[read] = {}
                for pr in product(*private_allow):
                    source = pr + read
                    move = tuple(map(source.__getitem__, order))
                    opts.setdefault(table[move][1][d], move)
                if enc.pruned:
                    opts = cache[read] = _minimal(opts)
            options.append(opts)
        signature = tuple(tuple(opts) for opts in options)
        if signature in seen_options:
            continue
        seen_options.add(signature)
        for reach in product(*options):
            if reach not in seen:
                seen.add(reach)
                found.append((tuple(map(dict.__getitem__, options, reach)), reach, -1))
    for action, reach, comply in found:
        if not enc.pruned or not any(
                other != reach and all(o & ~r == 0 for o, r in zip(other, reach))
                for _action, other, _comply in found):
            yield action, reach, comply


def per_state_memo_build(game: ConcurrentGame, graph: CommGraph,
                         pruned: bool = False, split: bool = False) -> EpistemicGame:
    """`build_reachable` with a fresh successor memo for every expanded
    state, instead of one resolution table per grown-mask tuple.  Split
    states are left unexpanded only under `split`: `build_reachable(...,
    pruned=True)` is `pruned=True, split=True`, and `pruned=True` alone is
    the plain pruned build, every state expanded and no AND node in its
    region games (`plain_pruned_build`)."""
    eg = EpistemicGame(game, graph)
    enc = eg._encoding
    enc.pruned = pruned
    eg._splits = split
    while len(eg.eve_succ) < len(eg._keys):
        eid = len(eg.eve_succ)
        key = eg._keys[eid]
        grown = expand(enc, key)
        memo: dict[int, int] = {}
        first = eg.adam_count()
        for action, reach, comply in () if eid in eg.split else _distinct_actions(enc, key):
            eg.adam_action.append(action)
            eg.adam_succ.append(successors(enc, grown, reach, comply, eg._intern, memo))
        eg.eve_succ.append(range(first, eg.adam_count()))
    eg.built = (eg.eve_count(), eg.adam_count())
    return eg


def plain_pruned_build(game: ConcurrentGame, graph: CommGraph) -> EpistemicGame:
    """The dominance-pruned build with every state expanded, split ones
    included: the game `solve` read before split states became AND nodes
    of its region games."""
    return per_state_memo_build(game, graph, pruned=True)


@dataclass
class AdamNode:
    origin: int
    action: EveAction
    succ: tuple[tuple[str, int], ...]  # (chosen vertex, successor Eve id)
    comply: Optional[int]  # Eve id of the complying successor, if any


@dataclass
class ReferenceGame:
    eve_states: list[EveState]
    eve_succ: list[tuple[int, ...]]
    adam_nodes: list[AdamNode]
    init: int
    sig_index: list[dict]


def reference_build_reachable(game: ConcurrentGame, graph: CommGraph) -> ReferenceGame:
    """Breadth-first build of the reachable epistemic game on strings, one
    EveState per successor of every enabled action; Adam nodes merged by
    successor signature keep the first action that produced them."""
    eve_states: list[EveState] = []
    eve_index: dict[EveState, int] = {}
    eve_succ: list[tuple[int, ...]] = []
    adam_nodes: list[AdamNode] = []
    sig_index: list[dict] = []

    def intern(state: EveState) -> int:
        i = eve_index.get(state)
        if i is None:
            i = eve_index[state] = len(eve_states)
            eve_states.append(state)
            sig_index.append({})
        return i

    init = intern(EveState(game.init_vertex, ()))
    while len(eve_succ) < len(eve_states):
        eid = len(eve_succ)
        state = eve_states[eid]
        out_edges = []
        for action, reach, comply in _reference_distinct_actions(game, state):
            sig = tuple(
                (t, intern(st2))
                for t, st2 in reference_successors(game, graph, state, reach, comply)
            )
            if sig not in sig_index[eid]:
                aid = sig_index[eid][sig] = len(adam_nodes)
                comply_id = None if comply is None else eve_index[EveState(comply, ())]
                adam_nodes.append(AdamNode(eid, action, sig, comply_id))
                out_edges.append(aid)
        eve_succ.append(tuple(out_edges))
    return ReferenceGame(eve_states, eve_succ, adam_nodes, init, sig_index)


# ---------------------------------------------------------------------------
# Literal knowledge update rules, replayed over a built game.


def literal_knowledge_from_empty(
    game: ConcurrentGame, graph: CommGraph, new_state: EveState
) -> dict[str, dict[str, frozenset[str]]]:
    """Knowledge after the first visible deviation: an uninformed player
    suspects every possible deviator it does not observe directly."""
    devs = frozenset(new_state.deviators())
    informed = new_state.informed_map()
    out: dict[str, dict[str, frozenset[str]]] = {}
    for d in devs:
        per: dict[str, frozenset[str]] = {}
        for a in game.players:
            if a in informed[d]:
                per[a] = frozenset((d,))
            else:
                per[a] = devs - frozenset(graph.vois[a])
        out[d] = per
    return out


def literal_knowledge_from_nonempty(
    game: ConcurrentGame,
    graph: CommGraph,
    state: EveState,
    prev_k: dict[str, dict[str, frozenset[str]]],
    reach: dict[str, frozenset[str]],
    new_state: EveState,
) -> dict[str, dict[str, frozenset[str]]]:
    """Literal one-step knowledge update.

    For an uninformed player a, the new suspicion set keeps the previously
    suspected players whose continuation matches the observed vertex, minus
    every suspect whose signal would have reached a by now (one step beyond
    the spread recorded in its informed set).  The spread bound is only
    defined for tracked suspects, which is also all the minuend can contain.
    """
    target = new_state.vertex
    old_informed = state.informed_map()
    new_informed = new_state.informed_map()
    dist = graph.dist
    spread_plus_one: dict[str, float] = {}
    for c in state.deviators():
        spread = max(dist[(c, x)] for x in old_informed[c])
        spread_plus_one[c] = spread + 1
    out: dict[str, dict[str, frozenset[str]]] = {}
    for d in new_state.deviators():
        per: dict[str, frozenset[str]] = {}
        for a in game.players:
            if a in new_informed[d]:
                per[a] = frozenset((d,))
            else:
                kept = frozenset(
                    b for b in prev_k[d][a] if target in reach[b]
                )
                ruled_out = frozenset(
                    c
                    for c in state.deviators()
                    if dist[(c, a)] <= spread_plus_one[c]
                )
                per[a] = kept - ruled_out
        out[d] = per
    return out


_literal_walks: dict[int, list[str]] = {}  # id of a walked game -> its violations


def literal_knowledge_violations(eg) -> list[str]:
    """`_literal_walk` of `eg`, memoised per game object: the walk runs once
    on a game that both the build wrapper in `conftest` and a test check.  A
    built game is never changed in place; a test that corrupts one corrupts
    a copy, which is walked afresh."""
    walked = _literal_walks.get(id(eg))
    if walked is None:
        walked = _literal_walks[id(eg)] = _literal_walk(eg)
        weakref.finalize(eg, _literal_walks.pop, id(eg), None)
    return list(walked)


def _literal_walk(eg) -> list[str]:
    """Recompute the knowledge sets of every deviated state of a built game
    with the literal update rules and check them against the knowledge
    characterization.

    Eve states are visited in id order, so each state's knowledge is known
    before its own successors are updated (every deviated state is first
    reached from a smaller id).  An Adam node stands for all actions merged
    into it; they share its successors, and at a non-deviated state the
    literal rule does not depend on the move, so its stored action gives the
    same update as any of them.  Disagreeing recomputations of one state, a
    deviated state never reached, and a stored move function without one
    move per suspect of its state are reported too.  The walk does not
    update the successors of such a move function, nor those of a state
    never reached or whose knowledge names a player it does not suspect
    (which the characterization check reports).  A split state of a pruned
    build hands each component state its own suspects' knowledge: a player
    uninformed under a suspect suspects only players of its component."""
    game, graph = eg.game, eg.graph
    known: list = [None] * eg.eve_count()
    out: list[str] = []

    def record(sid: int, k: dict) -> None:
        if known[sid] is None:
            known[sid] = k
        elif known[sid] != k:
            out.append(f"literal knowledge oracle diverged at {state_key(eg.eve_states[sid])}")

    for eid, state in enumerate(eg.eve_states):
        suspects = set(state.deviators())
        if state.deviated and (known[eid] is None or any(
                not sus <= suspects for per in known[eid].values() for sus in per.values())):
            continue
        for c in eg.split.get(eid, ()):
            record(c, {d: known[eid][d] for d in eg.eve_states[c].deviators()})
        v = state.vertex
        for aid in eg.eve_succ[eid]:
            if state.deviated:
                action = eg.adam_action[aid]
                if len(action) != len(state.deviators()):
                    out.append(f"{state_key(state)}: Adam id {aid} holds {len(action)} "
                               f"moves for {len(state.deviators())} suspects")
                    continue
                reach = {d: deviation_reach(game, v, m, d)
                         for d, m in zip(state.deviators(), action)}
            for sid in eg.adam_succ[aid]:
                new_state = eg.eve_states[sid]
                if not state.deviated:
                    if new_state.deviated:
                        record(sid, literal_knowledge_from_empty(game, graph, new_state))
                else:
                    record(sid, literal_knowledge_from_nonempty(
                        game, graph, state, known[eid], reach, new_state))
    for eid, state in enumerate(eg.eve_states):
        if not state.deviated:
            continue
        if known[eid] is None:
            out.append(f"no literal knowledge recorded for {state_key(state)}")
        else:
            out.extend(knowledge_violations(state, game.players, known[eid]))
    return out


# ---------------------------------------------------------------------------
# Enabled move functions: the slot decomposition, and the full function
# space filtered pairwise.


def _slots(game: ConcurrentGame, state: EveState):
    informed = state.informed_map()
    devs = state.deviators()
    shared = [a for a in game.players if any(a not in informed[d] for d in devs)]
    private = {d: [a for a in game.players if a in informed[d]] for d in devs}
    return shared, private


def enabled_eve_actions(game: ConcurrentGame, state: EveState):
    """All actions Eve may take: joint moves when no suspect is tracked,
    otherwise every move function (one move per suspect, in the state's
    order) whose components agree for any player uninformed under both of two
    hypotheses.  Each player uninformed under some hypothesis gets one shared
    component; a player informed of suspect d gets a free component in d's
    move."""
    v = state.vertex
    if not state.deviated:
        yield from game.moves(v)
        return
    informed = state.informed_map()
    devs = state.deviators()
    shared, private = _slots(game, state)
    for st in product(*(game.allow[v][a] for a in shared)):
        st_map = dict(zip(shared, st))
        per_dev_moves = []
        for d in devs:
            opts = []
            for pr in product(*(game.allow[v][a] for a in private[d])):
                pr_map = dict(zip(private[d], pr))
                move = tuple(
                    pr_map[a] if a in informed[d] else st_map[a]
                    for a in game.players
                )
                opts.append(move)
            per_dev_moves.append(opts)
        for combo in product(*per_dev_moves):
            yield combo


def count_enabled_eve_actions(game: ConcurrentGame, state: EveState) -> int:
    v = state.vertex
    if not state.deviated:
        return game.move_count(v)
    shared, private = _slots(game, state)
    n = 1
    for a in shared:
        n *= len(game.allow[v][a])
    for d in state.deviators():
        for a in private[d]:
            n *= len(game.allow[v][a])
    return n



def brute_force_devfunctions(game: ConcurrentGame, state: EveState):
    """All move functions allowed at a deviated state, one move per suspect
    in the state's order: filter the full space f: suspects -> moves by the pairwise component-equality rule
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
            out.add(combo)
    return out


# ---------------------------------------------------------------------------
# Max-parity games: random generation, positional-strategy enumeration and
# the plain recursive solver.


def random_parity_game(rng: random.Random, max_nodes: int = 8,
                       max_priority: int = 5) -> ParityGame:
    n = rng.randint(1, max_nodes)
    owner = [rng.randint(0, 1) for _ in range(n)]
    priority = [rng.randint(0, max_priority) for _ in range(n)]
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


def _reference_attractor(pg: ParityGame, region: set[int], target: set[int],
                         player: int, strategy: dict[int, int]) -> set[int]:
    """Player-`player` attractor of `target` within `region`, with the
    predecessor map rebuilt over the whole region; records a move towards
    the target for the player's newly attracted nodes."""
    pred: dict[int, list[int]] = {v: [] for v in region}
    out_deg = {}
    for v in region:
        live = [w for w in pg.succ[v] if w in region]
        out_deg[v] = len(live)
        for w in live:
            pred[w].append(v)
    attracted = set(target)
    queue = list(target)
    while queue:
        w = queue.pop()
        for v in pred[w]:
            if v in attracted:
                continue
            if pg.owner[v] == player:
                attracted.add(v)
                if v not in strategy:
                    strategy[v] = w
                queue.append(v)
            else:
                out_deg[v] -= 1
                if out_deg[v] == 0:
                    attracted.add(v)
                    queue.append(v)
    return attracted


def _reference_solve(pg: ParityGame, region: set[int]):
    w0: set[int] = set()
    w1: set[int] = set()
    s0: dict[int, int] = {}
    s1: dict[int, int] = {}
    if not region:
        return w0, w1, s0, s1

    # Nodes stuck without a move lose for their owner; peel them (and the
    # opponent attractors they seed) off first, in every call.
    while True:
        stuck0 = {v for v in region if pg.owner[v] == 0
                  and not any(w in region for w in pg.succ[v])}
        stuck1 = {v for v in region if pg.owner[v] == 1
                  and not any(w in region for w in pg.succ[v])}
        if not stuck0 and not stuck1:
            break
        if stuck0:
            a = _reference_attractor(pg, region, stuck0, 1, s1)
            w1 |= a
            region = region - a
        if stuck1:
            a = _reference_attractor(pg, region, stuck1, 0, s0)
            w0 |= a
            region = region - a
    if not region:
        return w0, w1, s0, s1

    p = max(pg.priority[v] for v in region)
    player = p % 2
    strat_winner: dict[int, int] = {}
    top = {v for v in region if pg.priority[v] == p}
    a = _reference_attractor(pg, region, top, player, strat_winner)
    sub0, sub1, sub_s0, sub_s1 = _reference_solve(pg, region - a)
    opp_sub = sub1 if player == 0 else sub0
    if not opp_sub:
        # Winner takes everything: arbitrary in-region move on the top nodes.
        for v in top:
            if pg.owner[v] == player and v not in strat_winner:
                for w in pg.succ[v]:
                    if w in region:
                        strat_winner[v] = w
                        break
        if player == 0:
            w0 |= region
            s0.update(sub_s0)
            s0.update(strat_winner)
            s1.update(sub_s1)
        else:
            w1 |= region
            s1.update(sub_s1)
            s1.update(strat_winner)
            s0.update(sub_s0)
        return w0, w1, s0, s1

    strat_opp: dict[int, int] = dict(sub_s1 if player == 0 else sub_s0)
    b = _reference_attractor(pg, region, set(opp_sub), 1 - player, strat_opp)
    r0, r1, rs0, rs1 = _reference_solve(pg, region - b)
    if player == 0:
        w1 |= b | r1
        s1.update(strat_opp)
        s1.update(rs1)
        w0 |= r0
        s0.update(rs0)
    else:
        w0 |= b | r0
        s0.update(strat_opp)
        s0.update(rs0)
        w1 |= r1
        s1.update(rs1)
    return w0, w1, s0, s1


def parity_regions(pg: ParityGame):
    """`equisynth.parity.solve_parity` on `pg`, read into the reference
    solver's shape: (win0, win1, strat0, strat1), each player's region as a
    set and its positional strategy as a dict over the nodes it owns there.
    The per-node sequences must cover every node and name a winner each."""
    winner, move = solve_parity(pg)
    n = pg.node_count()
    assert len(winner) == len(move) == n and set(winner) <= {0, 1}
    won = [{v for v in range(n) if winner[v] == player} for player in (0, 1)]
    strat = [{v: move[v] for v in won[player] if pg.owner[v] == player} for player in (0, 1)]
    return won[0], won[1], strat[0], strat[1]


def reference_solve_parity(pg: ParityGame):
    """The plain recursive Zielonka solver: same contract as
    `equisynth.parity.solve_parity`.  It recurses about twice per node, so
    it is meant for games of up to a few hundred nodes."""
    w0, w1, s0, s1 = _reference_solve(pg, set(range(pg.node_count())))
    s0 = {v: w for v, w in s0.items() if v in w0 and pg.owner[v] == 0}
    s1 = {v: w for v, w in s1.items() if v in w1 and pg.owner[v] == 1}
    return w0, w1, s0, s1


def _cycle_parts(nodes: list[int], succ) -> list[list[int]]:
    """The strongly connected parts that hold a cycle of the graph `succ`
    induces on `nodes` (Kosaraju: finishing order forward, then the parts
    backward in reverse finishing order)."""
    pos = {v: i for i, v in enumerate(nodes)}
    adj = [[pos[w] for w in succ[v] if w in pos] for v in nodes]
    radj: list[list[int]] = [[] for _ in nodes]
    for i, ws in enumerate(adj):
        for j in ws:
            radj[j].append(i)
    order: list[int] = []
    seen = [False] * len(nodes)
    for root in range(len(nodes)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(adj[root]))]
        while stack:
            v, rest = stack[-1]
            for w in rest:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(adj[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    part = [-1] * len(nodes)
    out = []
    for root in reversed(order):
        if part[root] >= 0:
            continue
        part[root] = root
        comp, stack = [root], [root]
        while stack:
            for w in radj[stack.pop()]:
                if part[w] < 0:
                    part[w] = root
                    comp.append(w)
                    stack.append(w)
        if len(comp) > 1 or root in adj[root]:
            out.append([nodes[i] for i in comp])
    return out


def check_parity_certificate(pg: ParityGame, winner, move) -> list[str]:
    """Why `winner` and `move`, as `solve_parity` returns them, are no
    certificate of who wins each node of `pg` (empty if they are one): a
    positional strategy of each player that wins on its region.

    For each player i, fix i's moves on the nodes i wins and keep every
    opponent move there.  Closure: each fixed move is a successor of its
    node and is won by i, and every opponent successor is won by i too.
    Cycles: every cycle of that graph has a top priority of i's parity.
    Peeling checks it: in each strongly connected part with a cycle, the
    top priority must be i's, since a cycle of the part goes through a top
    node; the cycles that avoid the top nodes are those of the part without
    them, checked the same way.  Every play from i's region then stays in
    it, and either ends at a stuck opponent node or wins for i."""
    out: list[str] = []
    owner, priority, succ = pg.owner, pg.priority, pg.succ
    for i in (0, 1):
        region = [v for v in range(pg.node_count()) if winner[v] == i]
        fixed: dict[int, list[int]] = {}
        for v in region:
            if owner[v] == i:
                fixed[v] = [move[v]]
                if move[v] not in succ[v]:
                    out.append(f"player {i}: move {move[v]} of node {v} is no successor")
                elif winner[move[v]] != i:
                    out.append(f"player {i}: move of node {v} leaves the region")
            else:
                fixed[v] = list(succ[v])
                if any(winner[w] != i for w in succ[v]):
                    out.append(f"player {i}: the opponent leaves the region at node {v}")
        parts = _cycle_parts(region, fixed)
        while parts:
            part = parts.pop()
            top = max(priority[v] for v in part)
            if top % 2 != i:
                out.append(f"player {i}: a cycle through node {part[0]} has top "
                           f"priority {top}")
                continue
            parts += _cycle_parts([v for v in part if priority[v] != top], fixed)
    return out


# ---------------------------------------------------------------------------
# Muller-to-parity reduction through latest appearance records.
#
# The record is a permutation of the color alphabet, most recently seen color
# first.  Reading color c moves it to the front; the *hit* is the 1-based
# position c came from.  Along any run, the largest hit occurring infinitely
# often equals the number of colors seen infinitely often, and at those
# moments the record prefix of that length is exactly the set of recurring
# colors.  Assigning priority 2h to an accepted prefix set and 2h+1 to a
# rejected one therefore turns any Muller condition into a max-parity one.

Record = tuple[int, ...]  # permutation of color indices, most recent first


@dataclass(frozen=True)
class LarState:
    record: Record
    hit: int  # 0 before any color was read


def initial_record(color_count: int) -> Record:
    return tuple(range(color_count))


def lar_step(state: LarState, color: int) -> LarState:
    pos = state.record.index(color)
    record = (color,) + state.record[:pos] + state.record[pos + 1 :]
    return LarState(record, pos + 1)


def lar_priority(state: LarState, accept) -> int:
    """Max-parity priority of a record state; even means accepted."""
    if state.hit == 0:
        return 0
    prefix = frozenset(state.record[: state.hit])
    return 2 * state.hit if accept(prefix) else 2 * state.hit + 1


# ---------------------------------------------------------------------------
# Lassos: payoffs, and recurrence read directly or through the record.


def payoff_of_lasso(spec, prefix, cycle):
    """Payoff of the ultimately-periodic play prefix . cycle^omega.

    Only the cycle determines the Inf set; the prefix is accepted for
    interface symmetry and ignored.  The cycle must be nonempty.
    """
    cycle = tuple(cycle)
    if not cycle:
        raise InvalidInput("lasso cycle must be nonempty")
    return spec.value(frozenset(cycle))


def muller_accepts_lasso(prefix, cycle, accept) -> bool:
    """Direct evaluation: the recurring colors are exactly the cycle's."""
    if not cycle:
        raise ValueError("lasso cycle must be nonempty")
    return accept(frozenset(cycle))


def parity_accepts_lasso(prefix, cycle, color_count: int, accept) -> bool:
    """Evaluate the same lasso through the record construction: run the
    record over the prefix, pump the cycle until the (cycle position, record)
    pair repeats, and check the parity of the highest priority on the loop."""
    if not cycle:
        raise ValueError("lasso cycle must be nonempty")
    state = LarState(initial_record(color_count), 0)
    for c in prefix:
        state = lar_step(state, c)
    seen: dict[tuple[int, LarState], int] = {}
    trace: list[LarState] = []
    pos = 0
    while (pos, state) not in seen:
        seen[(pos, state)] = len(trace)
        state = lar_step(state, cycle[pos])
        pos = (pos + 1) % len(cycle)
        trace.append(state)
    start = seen[(pos, state)]
    loop = trace[start:]
    top = max(lar_priority(s, accept) for s in loop)
    return top % 2 == 0


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


def seed_color_classes(game: ConcurrentGame, layer_vertices) -> list[list[str]]:
    """Atom singletons plus one class of the other vertices, in vertex order."""
    atoms = game.payoff.atoms()
    vorder = {v: i for i, v in enumerate(game.vertices)}
    partition = [[v] for v in layer_vertices if v in atoms]
    rest = [v for v in layer_vertices if v not in atoms]
    if rest:
        partition.append(rest)
    partition.sort(key=lambda cls: vorder[cls[0]])
    return partition


def brute_force_color_classes(game: ConcurrentGame, p, dev, layer_vertices):
    """The seed classes, then merge the first pair of classes (in vertex
    order) that `vertex_subset_table` still accepts, until no pair can merge.
    Returns (classes, table)."""
    vorder = {v: i for i, v in enumerate(game.vertices)}
    partition = seed_color_classes(game, layer_vertices)
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


def record_punishment_win(eg, p) -> frozenset[int]:
    """The punishment region through latest appearance records: layers in
    increasing suspect sets, each reduced to max-parity by a record over its
    merged payoff-equivalence classes, exits to smaller layers as sinks."""
    game = eg.game
    states = eg.eve_states
    groups: dict[tuple[str, ...], list[int]] = {}
    for eid in eg.deviated_ids():
        groups.setdefault(states[eid].deviators(), []).append(eid)
    win: set[int] = set()
    for dev in sorted(groups, key=lambda d: (len(d), d)):
        layer = set(groups[dev])
        layer_vertices = sorted({states[e].vertex for e in layer},
                                key=game.vertex_index.__getitem__)
        classes, table = brute_force_color_classes(game, p, dev, layer_vertices)
        cls_of = {v: ci for ci, cls in enumerate(classes) for v in cls}
        owner, priority, succ = [0, 1], [0, 1], [[0], [1]]  # win and lose sinks
        index: dict = {}
        queue: list = []

        def intern(node) -> int:
            if node not in index:
                index[node] = len(owner)
                is_eve = node[0] == "e"
                owner.append(0 if is_eve else 1)
                priority.append(lar_priority(node[2], table.__getitem__) if is_eve else 0)
                succ.append([])
                queue.append(node)
            return index[node]

        start = LarState(initial_record(len(classes)), 0)
        entry = {e: ("e", e, lar_step(start, cls_of[states[e].vertex])) for e in layer}
        for e in sorted(layer):
            intern(entry[e])
        while queue:
            node = queue.pop()
            out = succ[index[node]]
            if node[0] == "e":
                out += [intern(("a", aid, node[2])) for aid in eg.eve_succ[node[1]]]
                continue
            for sid in eg.adam_succ[node[1]]:
                if sid in layer:
                    ls = lar_step(node[2], cls_of[states[sid].vertex])
                    out.append(intern(("e", sid, ls)))
                else:
                    out.append(0 if sid in win else 1)
        winner = solve_parity(ParityGame(owner, priority, succ))[0]
        win |= {e for e in layer if winner[index[entry[e]]] == 0}
    return frozenset(win)


# ---------------------------------------------------------------------------
# The punishment region layer by layer, each layer in its own product.


def _layered_solve(eg, p, dev, layer_eves, global_win: set[int], lar_cap: int) -> LayerTable:
    """One layer as a parity game on its own product with the Zielonka tree.

    An Eve node is (Eve id, leaf before the state's own color is read), an
    Adam node (Adam id, leaf after it); each is keyed id * leaves + leaf.
    Entering the layer starts at leaf 0; exits to smaller layers are sinks
    whose winner is already known."""
    classes, tree = _layer_setup(eg.game, p, dev)
    table = LayerTable(classes=classes, tree=tree, entries={})
    adam_succ, eve_succ, leaves = eg.adam_succ, eg.eve_succ, len(tree)
    of = eg.game.colors.of
    color = {e: of[eg.eve_states[e].vertex] for e in layer_eves}

    WIN, LOSE = 0, 1
    owner, priority, succ = [0, 1], [0, 1], [[WIN], [LOSE]]
    keys = [-1, -1]  # node -> key
    eve_index: dict[int, int] = {}  # key -> node
    adam_index: dict[int, int] = {}

    def intern(index: dict, ident: int, leaf: int, is_eve: bool) -> int:
        key = ident * leaves + leaf
        node = index.get(key)
        if node is None:
            node = len(owner)
            if node >= lar_cap:
                raise LarCapExceeded(
                    f"punishment product exceeded {lar_cap} nodes in the layer with "
                    f"suspects {{{','.join(dev)}}}"
                )
            index[key] = node
            owner.append(0 if is_eve else 1)
            priority.append(tree[leaf][color[ident]][1] if is_eve else 0)
            succ.append([])
            keys.append(key)
        return node

    for e in layer_eves:
        intern(eve_index, e, 0, True)
    node = 2
    while node < len(owner):  # the product grows while it is read
        ident, leaf = divmod(keys[node], leaves)
        out = succ[node]
        if owner[node] == 0:
            nxt = tree[leaf][color[ident]][0]
            for aid in eve_succ[ident]:
                out.append(intern(adam_index, aid, nxt, False))
        else:
            for sid in adam_succ[ident]:
                if sid in color:
                    out.append(intern(eve_index, sid, leaf, True))
                else:
                    out.append(WIN if sid in global_win else LOSE)
        node += 1

    winner, move = solve_parity(ParityGame(owner, priority, succ))
    for key, node in eve_index.items():
        if winner[node] == 0:
            table.entries[divmod(key, leaves)] = keys[move[node]] // leaves
    return table


def layered_punishment_region(eg, p, lar_cap: int = LAR_CAP) -> PunishmentSolution:
    """The punishment region solved one suspect-set layer at a time, in
    increasing suspect sets: each layer is copied into its own product with
    its Zielonka tree, at every leaf count, and solved as its own parity
    game, with exits to smaller layers as sinks.  This is how
    `solver.punishment_region` worked before it solved the whole region as
    one game; `lar_cap` bounds each layer's product.  A split state of a
    pruned build is won iff its component states, in smaller layers, are,
    and is an exit of its own layer."""
    groups = _layer_groups(eg)
    global_win: set[int] = set()
    layers: dict[tuple[str, ...], LayerTable] = {}
    for dev in sorted(groups, key=lambda d: (len(d), d)):
        global_win.update(e for e in groups[dev] if e in eg.split
                          and all(c in global_win for c in eg.split[e]))
        table = _layered_solve(eg, p, dev, [e for e in groups[dev] if e not in eg.split],
                               global_win, lar_cap)
        layers[dev] = table
        # Every layer state is interned at leaf 0, so it is won iff it has an
        # entry there.
        global_win.update(e for e, leaf in table.entries if leaf == 0)
    return PunishmentSolution(win=frozenset(global_win), layers=layers)


# ---------------------------------------------------------------------------
# Histories: validation, player projections, and the main outcome of a
# profile.


def validate_history(h: FullHistory, game: ConcurrentGame) -> None:
    """Every step uses allowed actions and follows the transition table."""
    for i, (v, m) in enumerate(zip(h.vertices, h.moves)):
        for a, act in zip(game.players, m):
            if act not in game.allow[v][a]:
                raise InvalidInput(f"step {i}: action {act!r} not allowed for {a!r}")
        if game.tab[v][m] != h.vertices[i + 1]:
            raise InvalidInput(f"step {i}: successor inconsistent with tab")


@dataclass(frozen=True)
class LocalHistory:
    """What one player has observed: vertices plus per-step observations,
    each restricted to the player's in-neighbourhood (canonical order)."""

    player: str
    vois: tuple[str, ...]
    vertices: tuple[str, ...]
    observations: tuple[tuple[tuple[str, str, Message], ...], ...]


def project_history(h: FullHistory, player: str, game: ConcurrentGame, graph: CommGraph) -> LocalHistory:
    """Project a full history to what `player` observes under `graph`."""
    vois = graph.vois[player]
    idx = [game.player_index[b] for b in vois]
    obs = tuple(
        tuple((b, move[i], msgs[i]) for b, i in zip(vois, idx))
        for move, msgs in zip(h.moves, h.messages)
    )
    return LocalHistory(player, vois, h.vertices, obs)


def main_outcome(game: ConcurrentGame, graph: CommGraph, profile, limit: int = 10_000):
    """Run the profile without interference until the machine product cycles.

    Returns (vertices, cycle_start, history): the visited vertices, the index
    where the cycle begins, and the corresponding full history.
    """
    v = game.init_vertex
    mstates = tuple(profile.initial(a) for a in game.players)
    seen: dict = {}
    verts = [v]
    moves: list[Move] = []
    messages: list[tuple[Message, ...]] = []
    while (v, mstates) not in seen:
        if len(verts) > limit:
            raise InvalidInput(f"no cycle within {limit} steps of the main outcome")
        seen[(v, mstates)] = len(verts) - 1
        outs = [profile.output(a, ms) for a, ms in zip(game.players, mstates)]
        move = tuple(o[0] for o in outs)
        msgs = tuple(o[1] for o in outs)
        v2 = game.successor(v, move)
        msg_map = dict(zip(game.players, msgs))
        mstates = tuple(
            profile.advance(a, ms, {b: msg_map[b] for b in graph.vois[a]}, v2)
            for a, ms in zip(game.players, mstates)
        )
        verts.append(v2)
        moves.append(move)
        messages.append(msgs)
        v = v2
    start = seen[(v, mstates)]
    history = FullHistory(tuple(verts), tuple(moves), tuple(messages))
    return verts, start, history


# ---------------------------------------------------------------------------
# Comm-graph helper reused by a few suites.


def complete_graph(players) -> CommGraph:
    return CommGraph(
        tuple(players),
        frozenset((a, b) for a in players for b in players if a != b),
    )


def edgeless_graph(players) -> CommGraph:
    return CommGraph(tuple(players), frozenset())


# ---------------------------------------------------------------------------
# `verify` on the full epistemic game.


def full_build_verify(eg, data):
    """`verify` the way it ran before it made only what the checks reach:
    read the profile `data` on the full game `eg` (`build_reachable`), then
    run the three checks.  Returns (strategy, check report, failures), as
    `cli._verify_profile` does."""
    # Imported here: `conftest` wraps `build_reachable` after importing this
    # module, and `cli` must bind the wrapped one.
    from equisynth.cli import _verify_strategy

    strategy = EveStrategy.from_dict(eg, data)
    return (strategy, *_verify_strategy(eg.game, eg.graph, eg, strategy))


def verify_outcome(verify, *args):
    """(exit code, check report, failures) of `verify(*args)`, or (exit
    code, exception type, message) when it raises: the exit code `cli.main`
    gives, and everything the report or the error shows."""
    from equisynth.cli import _CHECK_ERRORS

    try:
        _strategy, checks, failures = verify(*args)
    except InvalidInput as exc:
        return 2, type(exc), str(exc)
    except CapExceeded as exc:
        return 3, type(exc), str(exc)
    except _CHECK_ERRORS as exc:
        return 4, type(exc), str(exc)
    return 4 if failures else 0, checks, failures


# ---------------------------------------------------------------------------
# Nash equilibrium of a profile, checked on the concurrent game.


def nash_violations(game: ConcurrentGame, graph: CommGraph, profile, p) -> list[str]:
    """Why the machines of `profile` are no Nash equilibrium with payoff `p`
    (empty if they are one), under the deviation model of
    `translate.check_normed` and `simulate`: a deviator d follows its
    machine up to a visible deviation, the onset, and from then on plays any
    allowed action and broadcasts its own id.

    Each d is explored over the product of vertex, machine states, last
    messages and onset flag.  Before the onset that product is the
    complying outcome, which every d shares; after it, keys are
    deduplicated, so the search needs no depth bound.  A violation is a
    complying outcome that does not pay exactly p, a vertex set that can
    recur after the onset and pays d more than p[d] (found with
    `solver.recurring_sets`), or a machine that rejects its input
    (`ProfileInputRejected`)."""
    players, index = game.players, game.player_index
    colors, outcomes = game.colors, game.payoff.outcomes

    def outputs(mstates):
        outs = [profile.output(a, ms) for a, ms in zip(players, mstates)]
        return tuple(o[0] for o in outs), tuple(o[1] for o in outs)

    def advance(mstates, msgs, v2):
        return tuple(
            profile.advance(a, ms, {b: msgs[index[b]] for b in graph.vois[a]}, v2)
            for a, ms in zip(players, mstates))

    # The complying outcome: (vertex, machine states, move, messages) per step.
    comply: list = []
    pos: dict = {}
    v, mstates = game.init_vertex, tuple(profile.initial(a) for a in players)
    try:
        while (v, mstates) not in pos:
            pos[v, mstates] = len(comply)
            move, msgs = outputs(mstates)
            comply.append((v, mstates, move, msgs))
            v2 = game.successor(v, move)
            v, mstates = v2, advance(mstates, msgs, v2)
    except ProfileInputRejected as exc:
        return [f"complying outcome: machines rejected their input: {exc}"]
    violations = []
    pay = game.payoff.value(frozenset(step[0] for step in comply[pos[v, mstates]:]))
    if pay != tuple(p):
        violations.append(f"complying outcome pays ({','.join(map(str, pay))}), "
                          f"expected ({','.join(map(str, p))})")

    for d in players:
        i = index[d]
        keys: dict = {}  # (vertex, machine states, last messages) -> node
        nodes: list = []
        succ: list[list[int]] = []

        def visit(mstates, msgs, v2, where: str) -> Optional[int]:
            sent = substitute(msgs, i, d)
            try:
                key = (v2, advance(mstates, sent, v2), sent)
            except ProfileInputRejected as exc:
                violations.append(f"deviator {d!r}, {where} to {v2!r}: {exc}")
                return None
            node = keys.get(key)
            if node is None:
                node = keys[key] = len(nodes)
                nodes.append(key)
                succ.append([])
            return node

        for v, mstates, move, msgs in comply:
            target = game.successor(v, move)
            for delta in game.allow[v][d]:
                v2 = game.successor(v, substitute(move, i, delta))
                if v2 != target:
                    visit(mstates, msgs, v2, f"onset at {v!r}")
        for node, (v, mstates, _last) in enumerate(nodes):  # grows while it is read
            try:
                move, msgs = outputs(mstates)
            except ProfileInputRejected as exc:
                violations.append(f"deviator {d!r}, at {v!r}: {exc}")
                continue
            for delta in game.allow[v][d]:
                nxt = visit(mstates, msgs, game.successor(v, substitute(move, i, delta)),
                            f"step from {v!r}")
                if nxt is not None:
                    succ[node].append(nxt)
        color = [colors.of[key[0]] for key in nodes]
        for cc, witness in recurring_sets(range(len(nodes)), succ, color, colors.shared,
                                          lambda cc: outcomes[colors.rule[cc]][i] > p[i]):
            verts = sorted({nodes[n][0] for n in witness})
            violations.append(f"deviator {d!r} gets {outcomes[colors.rule[cc]][i]} > {p[i]} "
                              f"by recurring on {{{','.join(verts)}}}")
    return violations
