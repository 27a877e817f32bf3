"""Two-player epistemic abstraction of a concurrent game with communication.

The protagonist (Eve, playing for the coalition that follows the suggested
profile) tracks a set of *situations*: at most one entry per suspected
deviator d, carrying the set I_d of players already informed of d's identity.
The antagonist (Adam) resolves which successor vertex actually happens, i.e.
which continuations of which suspects are consistent with the observed play.

Knowledge sets (who player a thinks could have deviated) are never stored:
they are derived on demand from the (d, I_d) entries, which is sound because
informed players know the deviator exactly and uninformed players suspect
precisely the deviators that would not have informed them yet.  The test
suite recomputes knowledge with the literal step-by-step update rules on the
bundled example and on every random test instance, and checks the derived
sets against it.

Eve states are (vertex, situations); Adam states pair an Eve state with a
suggested joint move (no suspects) or with a per-suspect move function
(suspects present).  Move functions must suggest the same action to any
player uninformed under both of two hypotheses; Adam states that induce the
same labelled successor set are merged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .errors import InvalidInput, StateCapExceeded
from .game import CommGraph, ConcurrentGame, Move, substitute

# A per-suspect move suggestion, canonically sorted by player order.
DevFunction = tuple[tuple[str, Move], ...]
EveAction = Move | DevFunction


@dataclass(frozen=True)
class Situation:
    """One deviation hypothesis: the suspect and the players informed of it."""

    deviator: str
    informed: tuple[str, ...]


@dataclass(frozen=True)
class EveState:
    vertex: str
    situations: tuple[Situation, ...]

    @property
    def deviated(self) -> bool:
        return bool(self.situations)

    def deviators(self) -> tuple[str, ...]:
        return tuple(s.deviator for s in self.situations)

    def informed(self, deviator: str) -> tuple[str, ...]:
        for s in self.situations:
            if s.deviator == deviator:
                return s.informed
        raise KeyError(deviator)

    def informed_map(self) -> dict[str, frozenset[str]]:
        return {s.deviator: frozenset(s.informed) for s in self.situations}


def state_key(state: EveState) -> str:
    """Canonical text key for an Eve state (stable across builds)."""
    if not state.situations:
        return f"{state.vertex}|-"
    parts = [f"{s.deviator}:{','.join(s.informed)}" for s in state.situations]
    return f"{state.vertex}|{';'.join(parts)}"


def action_key(action: EveAction) -> str:
    """Canonical text key for an Eve action."""
    if action and isinstance(action[0], tuple):
        return ";".join(f"{d}={','.join(m)}" for d, m in action)
    return ",".join(action)  # plain joint move


def derive_knowledge(state: EveState, deviator: str, player: str) -> frozenset[str]:
    """Who `player` holds possible as deviator, assuming `deviator` acted.

    Informed players know the deviator exactly; an uninformed player suspects
    every tracked deviator that has not informed it yet.
    """
    informed = state.informed_map()
    if deviator not in informed:
        raise InvalidInput(f"{deviator!r} is not a tracked deviator")
    if player in informed[deviator]:
        return frozenset((deviator,))
    return frozenset(
        d for d, inf in informed.items() if player not in inf
    )


def knowledge_violations(state: EveState, players, knowledge=None) -> list[str]:
    """Check a single Eve state against the knowledge characterization.

    `players` are the game's players.  `knowledge` maps deviator -> player ->
    frozenset; when omitted the derived sets are used (then only structural
    properties can fail).
    """
    out: list[str] = []
    if not state.deviated:
        return out
    devs = state.deviators()
    if len(set(devs)) != len(devs):
        out.append(f"{state_key(state)}: duplicate deviator entries")
    informed = state.informed_map()
    for d, inf in informed.items():
        if d not in inf:
            out.append(f"{state_key(state)}: deviator {d} missing from own informed set")
    k = knowledge or {
        d: {a: derive_knowledge(state, d, a) for a in players} for d in devs
    }
    for d in devs:
        for a in players:
            got = k[d][a]
            if a in informed[d]:
                want = frozenset((d,))
            else:
                want = frozenset(x for x in devs if a not in informed[x])
            if got != want:
                out.append(
                    f"{state_key(state)}: knowledge({d}, {a}) = "
                    f"{sorted(got)}, characterization gives {sorted(want)}"
                )
    for i, d in enumerate(devs):
        for d2 in devs[i + 1 :]:
            for a in players:
                if a not in informed[d] and a not in informed[d2]:
                    if k[d][a] != k[d2][a]:
                        out.append(
                            f"{state_key(state)}: knowledge of {a} differs between "
                            f"hypotheses {d} and {d2} though uninformed under both"
                        )
    return out


# ---------------------------------------------------------------------------
# Successors.


def _sorted_players(game: ConcurrentGame, players) -> tuple[str, ...]:
    return tuple(sorted(players, key=game.player_index.__getitem__))


def _make_state(game: ConcurrentGame, vertex: str, informed: dict[str, set[str]]) -> EveState:
    situations = tuple(
        Situation(d, _sorted_players(game, informed[d]))
        for d in _sorted_players(game, informed)
    )
    return EveState(vertex, situations)


def deviation_reach(game: ConcurrentGame, vertex: str, move: Move, d: str) -> frozenset[str]:
    """The vertices hypothesis `d` can reach from `vertex` by changing its own
    action in `move`, the suggested action included."""
    i = game.player_index[d]
    row = game.tab[vertex]
    return frozenset(row[substitute(move, i, alt)] for alt in game.allow[vertex][d])


def successors(
    game: ConcurrentGame,
    graph: CommGraph,
    state: EveState,
    reach: dict[str, frozenset[str]],
    comply: Optional[str] = None,
) -> list[tuple[str, EveState]]:
    """Labelled successors of `state`, in vertex order, when each hypothesis
    d continues to the vertices `reach[d]`.

    A target keeps the hypotheses that reach it, and every informed set grows
    by one communication step.  At a non-deviated state every player is a
    fresh hypothesis whose informed set starts at (d,), so one step informs
    exactly its direct observers; there `comply`, the vertex the suggested
    move leads to, is followed by the non-deviated state, since no deviation
    that ends there is visible.
    """
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


# ---------------------------------------------------------------------------
# Enabled Eve actions.


def _slots(game: ConcurrentGame, state: EveState):
    """Decompose move-function components into one shared slot per player that
    is uninformed under some hypothesis, plus per-(player, suspect) free slots."""
    informed = state.informed_map()
    devs = state.deviators()
    shared = [a for a in game.players if any(a not in informed[d] for d in devs)]
    private = {d: [a for a in game.players if a in informed[d]] for d in devs}
    return shared, private


def _check_enabled(game, state: EveState, action: EveAction) -> None:
    """Validate an action against the enabledness contract (raises InvalidInput)."""
    v = state.vertex
    if not state.deviated:
        if len(action) != len(game.players) or any(
            act not in game.allow[v][a] for a, act in zip(game.players, action)
        ):
            raise InvalidInput(f"move {action!r} not allowed at {v!r}")
        return
    f = dict(action)
    if tuple(f) != state.deviators():
        raise InvalidInput("move function must cover exactly the tracked suspects")
    informed = state.informed_map()
    for d, move in f.items():
        if len(move) != len(game.players) or any(
            act not in game.allow[v][a] for a, act in zip(game.players, move)
        ):
            raise InvalidInput(f"move {move!r} not allowed at {v!r}")
    devs = state.deviators()
    for i, d in enumerate(devs):
        for d2 in devs[i + 1 :]:
            for j, a in enumerate(game.players):
                if a not in informed[d] and a not in informed[d2]:
                    if f[d][j] != f[d2][j]:
                        raise InvalidInput(
                            f"components for {a!r} differ between hypotheses "
                            f"{d!r} and {d2!r} though both leave it uninformed"
                        )


def _distinct_actions(game: ConcurrentGame, state: EveState, reach_of):
    """Eve's enabled actions at `state` up to equal reach sets, each as
    (action, reach map, complying vertex or None).

    With suspects present the move functions are enumerated through their
    per-suspect reach sets (shared components once, private components per
    suspect), never one function at a time."""
    v = state.vertex
    if not state.deviated:
        for move in game.moves(v):
            reach = {d: reach_of(v, move, d) for d in game.players}
            yield move, reach, game.tab[v][move]
        return
    devs = state.deviators()
    informed = state.informed_map()
    shared, private = _slots(game, state)
    for st in product(*(game.allow[v][a] for a in shared)):
        st_map = dict(zip(shared, st))
        per_dev: list[list[tuple[frozenset[str], Move]]] = []
        for d in devs:
            opts: dict[frozenset[str], Move] = {}
            for pr in product(*(game.allow[v][a] for a in private[d])):
                pr_map = dict(zip(private[d], pr))
                move = tuple(
                    pr_map[a] if a in informed[d] else st_map[a]
                    for a in game.players
                )
                opts.setdefault(reach_of(v, move, d), move)
            per_dev.append(list(opts.items()))
        for combo in product(*per_dev):
            action: DevFunction = tuple((d, m) for d, (_r, m) in zip(devs, combo))
            yield action, {d: r for d, (r, _m) in zip(devs, combo)}, None


# ---------------------------------------------------------------------------
# Reachable epistemic game.


@dataclass
class AdamNode:
    origin: int
    action: EveAction
    succ: tuple[tuple[str, int], ...]  # (chosen vertex, successor Eve id)
    comply: Optional[int]  # Eve id of the complying successor, if any


@dataclass
class EpistemicGame:
    game: ConcurrentGame
    graph: CommGraph
    eve_states: list[EveState]
    eve_index: dict[EveState, int]
    eve_succ: list[tuple[int, ...]]
    adam_nodes: list[AdamNode]
    init: int
    _sig_index: list[dict]
    _action_index: list[dict]

    def eve_count(self) -> int:
        return len(self.eve_states)

    def adam_count(self) -> int:
        return len(self.adam_nodes)

    def deviated_ids(self) -> list[int]:
        return [i for i, s in enumerate(self.eve_states) if s.deviated]

    def adam_for_action(self, eve_id: int, action: EveAction) -> int:
        """Resolve any enabled action to its merged Adam node."""
        cached = self._action_index[eve_id].get(action)
        if cached is not None:
            return cached
        state = self.eve_states[eve_id]
        _check_enabled(self.game, state, action)
        sig = _signature(self.game, self.graph, self.eve_index, state, action)
        aid = self._sig_index[eve_id].get(sig)
        if aid is None:
            raise InvalidInput(
                f"action {action_key(action)} at {state_key(state)} resolves to "
                "an unknown successor signature"
            )
        self._action_index[eve_id][action] = aid
        return aid

    def size_bounds(self) -> dict:
        g = self.game
        n = len(g.players)
        tab = g.tab_size()
        eve_bound = len(g.vertices) + len(g.vertices) * tab * tab * (self.graph.diameter + 2)
        adam_bound = self.eve_count() * len(g.actions) ** (n * n)
        return {
            "eve_states": self.eve_count(),
            "eve_bound": eve_bound,
            "adam_states": self.adam_count(),
            "adam_bound": adam_bound,
            "diameter": self.graph.diameter,
            "tab_entries": tab,
        }


def _signature(game, graph, eve_index, state: EveState, action: EveAction):
    """Successor signature of an enabled action, used to merge Adam nodes.

    Uses existing Eve ids; unknown successors mean the action cannot belong
    to the built game (callers treat that as an error)."""
    v = state.vertex
    if state.deviated:
        reach = {d: deviation_reach(game, v, m, d) for d, m in action}
        comply = None
    else:
        reach = {d: deviation_reach(game, v, action, d) for d in game.players}
        comply = game.tab[v][action]
    out = []
    for t, st2 in successors(game, graph, state, reach, comply):
        i = eve_index.get(st2)
        if i is None:
            raise InvalidInput("successor state not present in the built game")
        out.append((t, i))
    return tuple(out)


def build_reachable(
    game: ConcurrentGame,
    graph: CommGraph,
    state_cap: int = 1_000_000,
) -> EpistemicGame:
    """Breadth-first construction of the reachable epistemic game.

    Adam nodes are merged by successor signature; each keeps the first
    action (in enumeration order) that produced it.
    """
    if tuple(graph.players) != tuple(game.players):
        raise InvalidInput("comm graph players must match game players")
    eve_states: list[EveState] = []
    eve_index: dict[EveState, int] = {}
    eve_succ: list[tuple[int, ...]] = []
    adam_nodes: list[AdamNode] = []
    sig_index: list[dict] = []

    def intern(state: EveState) -> int:
        i = eve_index.get(state)
        if i is None:
            if len(eve_states) >= state_cap:
                raise StateCapExceeded(
                    f"epistemic construction exceeded {state_cap} Eve states"
                )
            i = len(eve_states)
            eve_states.append(state)
            eve_index[state] = i
            sig_index.append({})
        return i

    reach_cache: dict[tuple, frozenset[str]] = {}

    def reach_of(v: str, move: Move, d: str) -> frozenset[str]:
        i = game.player_index[d]
        key = (v, d, move[:i], move[i + 1 :])
        r = reach_cache.get(key)
        if r is None:
            r = reach_cache[key] = deviation_reach(game, v, move, d)
        return r

    init = intern(EveState(game.init_vertex, ()))
    cursor = 0
    while cursor < len(eve_states):
        eid = cursor
        cursor += 1
        state = eve_states[eid]
        sigs = sig_index[eid]
        out_edges: list[int] = []
        for action, reach, comply in _distinct_actions(game, state, reach_of):
            ids = tuple(
                (t, intern(st2)) for t, st2 in successors(game, graph, state, reach, comply)
            )
            if ids not in sigs:
                aid = sigs[ids] = len(adam_nodes)
                comply_id = None if comply is None else eve_index[EveState(comply, ())]
                adam_nodes.append(AdamNode(eid, action, ids, comply_id))
                out_edges.append(aid)
        eve_succ.append(tuple(out_edges))

    return EpistemicGame(
        game=game,
        graph=graph,
        eve_states=eve_states,
        eve_index=eve_index,
        eve_succ=eve_succ,
        adam_nodes=adam_nodes,
        init=init,
        _sig_index=sig_index,
        _action_index=[{} for _ in eve_states],
    )


# ---------------------------------------------------------------------------
# Whole-game checks.


def check_knowledge_invariant(eg: EpistemicGame) -> list[str]:
    """Knowledge characterization on every reachable deviated Eve state."""
    out: list[str] = []
    for state in eg.eve_states:
        out.extend(knowledge_violations(state, eg.game.players))
    return out


def check_distance_characterization(eg: EpistemicGame) -> list[str]:
    """After r steps, a player is informed of a suspect iff it sits within
    communication distance r of it (finite reachability once saturated).

    The step counts r at which each deviated state occurs come from a
    breadth-first walk from the first visible deviations, saturating one past
    any informative value (the diameter plus two)."""
    cap = eg.graph.diameter + 2
    dev_steps: list[set[int]] = [set() for _ in eg.eve_states]
    queue: list[tuple[int, int]] = []
    for node in eg.adam_nodes:
        if not eg.eve_states[node.origin].deviated:
            for _t, sid in node.succ:
                if eg.eve_states[sid].deviated and 1 not in dev_steps[sid]:
                    dev_steps[sid].add(1)
                    queue.append((sid, 1))
    qi = 0
    while qi < len(queue):
        eid, step = queue[qi]
        qi += 1
        nxt = min(step + 1, cap)
        for aid in eg.eve_succ[eid]:
            for _t, sid in eg.adam_nodes[aid].succ:
                if nxt not in dev_steps[sid]:
                    dev_steps[sid].add(nxt)
                    queue.append((sid, nxt))

    out: list[str] = []
    dist = eg.graph.dist
    for eid, state in enumerate(eg.eve_states):
        if not state.deviated:
            continue
        informed = state.informed_map()
        for r in sorted(dev_steps[eid]):
            for d in state.deviators():
                if r >= cap:
                    expected = frozenset(
                        a for a in eg.game.players if dist[(d, a)] != math.inf
                    )
                else:
                    expected = frozenset(
                        a for a in eg.game.players if dist[(d, a)] <= r
                    )
                if informed[d] != expected:
                    out.append(
                        f"{state_key(state)} at step {r}: informed({d}) = "
                        f"{sorted(informed[d])}, distances give {sorted(expected)}"
                    )
    return out
