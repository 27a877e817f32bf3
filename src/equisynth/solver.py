"""Synthesis on the epistemic game: find a payoff vector the suggested
coalition can lock in, together with the strategy that enforces it.

For a candidate vector p the deviated region is solved as a zero-sum game
where the protagonist must keep every surviving suspect at or below its
component of p on the recurring vertices.  Suspect sets only shrink, so the
region splits into layers ordered by the suspect set; each layer becomes a
parity game through a latest-appearance record over the layer's vertices,
grouped into payoff-equivalence classes (the grouping is checked against a
per-layer acceptance table before use).  Exits to smaller layers are sinks
whose winner is already known.

On top of the punished region, a complying move is p-safe when every visible
deviation it admits lands in the won region.  The main outcome is then a
lasso over p-safe moves whose recurring vertex set evaluates to exactly p.
Lasso candidates are color sets, not state subsets: each payoff atom is its
own color and every other vertex shares one color (with a required
recurring set, every vertex is its own color and that set is the only
candidate).  There is no size cap: each candidate costs one SCC
decomposition of the reachable p-safe graph.

`model_check_strategy` re-verifies any strategy against the epistemic game:
the unique complying outcome must pay exactly p, and every recurring color
set reachable in the deviated product must satisfy the bound for every
surviving suspect.

Both searches share `recurring_witness`: a color set CC can recur iff, after
restricting the graph to CC-colored nodes, some strongly connected part with
an edge still shows every color of CC (the SCC-restriction step of generic
Emerson-Lei emptiness checks).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .epistemic import EpistemicGame, EveAction, state_key
from .errors import (
    InvalidInput,
    LarCapExceeded,
    StateCapExceeded,
    StrategyUndefined,
    rejects_malformed,
)
from .game import ConcurrentGame
from .lar import LarState, initial_record, lar_priority, lar_step
from .parity import ParityGame, solve_parity

Vector = tuple[Fraction, ...]
DevKey = tuple[str, ...]


def candidate_payoffs(game: ConcurrentGame, query=None) -> list[Vector]:
    """Payoff vectors worth trying: the rule vectors plus the default, in
    rule order, filtered by the query predicate."""
    vectors = game.payoff.vectors()
    if query is not None:
        vectors = [v for v in vectors if query.matches(v)]
    return vectors


# ---------------------------------------------------------------------------
# Generic iterative SCC decomposition (Tarjan).


def strongly_connected_components(n: int, succ: list[list[int]]) -> list[list[int]]:
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 1
    for root in range(n):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                visited[v] = True
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while ei < len(succ[v]):
                w = succ[v][ei]
                ei += 1
                if not visited[w]:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                parent, _ = work[-1]
                low[parent] = min(low[parent], low[v])
    return comps


def recurring_witness(nodes, succ, color, cc) -> Optional[list]:
    """Nodes of a strongly connected part with an edge, inside the nodes whose
    color lies in `cc`, that shows every color of `cc`; None if there is none.

    `succ[v]` and `color[v]` give a node's successors and color; successors
    outside `nodes` are ignored."""
    keep = [v for v in nodes if color[v] in cc]
    ids = {v: i for i, v in enumerate(keep)}
    adj = [[ids[t] for t in succ[v] if t in ids] for v in keep]
    for comp in strongly_connected_components(len(keep), adj):
        if len(comp) == 1 and comp[0] not in adj[comp[0]]:
            continue
        if len({color[keep[i]] for i in comp}) == len(cc):
            return [keep[i] for i in comp]
    return None


def _color_sets(colors: Sequence) -> Iterable[frozenset]:
    """Nonempty subsets of `colors`, in binary-counting order."""
    for mask in range(1, 1 << len(colors)):
        yield frozenset(c for k, c in enumerate(colors) if mask >> k & 1)


# ---------------------------------------------------------------------------
# Punishment region, layer by layer.


@dataclass
class LayerTable:
    dev: DevKey
    classes: tuple[tuple[str, ...], ...]  # color id -> vertices of that class
    entries: dict[tuple[int, LarState], int]  # (eve id, record) -> adam id
    win: frozenset[int]
    class_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.class_of = {v: ci for ci, cls in enumerate(self.classes) for v in cls}

    def entry_state(self, color: int) -> LarState:
        return lar_step(LarState(initial_record(len(self.classes)), 0), color)


@dataclass
class PunishmentSolution:
    payoff: Vector
    win: frozenset[int]
    layers: dict[DevKey, LayerTable]


def _layer_color_classes(game: ConcurrentGame, p: Vector, dev: DevKey,
                         layer_vertices: list[str]):
    """Partition the layer's vertices so the acceptance predicate depends only
    on which classes recur; return the classes in vertex order and the
    acceptance table, keyed by sets of class ids.

    The seed partition puts each payoff atom in a class of its own and all
    other vertices in one class.  The predicate depends only on the atoms
    that recur, so it is evaluated once per nonempty set of seed classes,
    into the layer's acceptance table.  Pairs of classes are then merged
    greedily while every two seed patterns that the merged partition maps to
    the same key still agree in that table; a merge only regroups its keys.
    """
    dev_idx = [game.player_index[d] for d in dev]
    atoms = game.payoff.atoms()
    vorder = {v: i for i, v in enumerate(game.vertices)}

    seed = [[v] for v in layer_vertices if v in atoms]
    rest = [v for v in layer_vertices if v not in atoms]
    if rest:
        seed.append(rest)
    seed.sort(key=lambda cls: vorder[cls[0]])
    accepted: dict[frozenset[int], bool] = {}
    for pattern in _color_sets(range(len(seed))):
        vec = game.payoff.value(v for si in pattern for v in seed[si])
        accepted[pattern] = all(vec[i] <= p[i] for i in dev_idx)

    def regroup(groups: list[list[int]]):
        group_of = {si: gi for gi, grp in enumerate(groups) for si in grp}
        table: dict[frozenset[int], bool] = {}
        for pattern, val in accepted.items():
            key = frozenset(group_of[si] for si in pattern)
            if table.setdefault(key, val) != val:
                return None
        return table

    # Groups of seed ids; seeds are in vertex order, so sorting the groups
    # sorts the classes by their first vertex.
    groups = [[si] for si in range(len(seed))]
    table = regroup(groups)
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                cand = [grp for k, grp in enumerate(groups) if k not in (i, j)]
                cand.append(sorted(groups[i] + groups[j]))
                cand.sort()
                t = regroup(cand)
                if t is not None:
                    groups, table = cand, t
                    merged = True
                    break
            if merged:
                break
    classes = tuple(
        tuple(sorted((v for si in grp for v in seed[si]), key=vorder.__getitem__))
        for grp in groups
    )
    return classes, table


def _solve_layer(eg: EpistemicGame, p: Vector, dev: DevKey, layer_eves: list[int],
                 global_win: set[int], lar_cap: int) -> LayerTable:
    game = eg.game
    vorder = {v: i for i, v in enumerate(game.vertices)}
    layer_vertices = sorted(
        {eg.eve_states[e].vertex for e in layer_eves}, key=vorder.__getitem__
    )
    classes, acc_table = _layer_color_classes(game, p, dev, layer_vertices)
    table = LayerTable(dev=dev, classes=classes, entries={}, win=frozenset())
    cls_of = table.class_of
    accept = acc_table.__getitem__

    layer_set = set(layer_eves)
    owner: list[int] = [0, 1]  # 0: win sink, 1: lose sink
    priority: list[int] = [0, 1]
    succ: list[list[int]] = [[0], [1]]
    labels: list = [None, None]
    index: dict = {}
    WIN, LOSE = 0, 1

    def intern(node) -> int:
        i = index.get(node)
        if i is None:
            if len(owner) >= lar_cap:
                raise LarCapExceeded(
                    f"record product exceeded {lar_cap} nodes in layer {dev}"
                )
            i = len(owner)
            index[node] = i
            labels.append(node)
            if node[0] == "e":
                owner.append(0)
                priority.append(lar_priority(node[2], accept))
            else:
                owner.append(1)
                priority.append(0)
            succ.append([])
            queue.append(node)
        return i

    queue: deque = deque()
    entry_nodes = {
        e: ("e", e, table.entry_state(cls_of[eg.eve_states[e].vertex]))
        for e in layer_eves
    }
    for e in layer_eves:
        intern(entry_nodes[e])
    while queue:
        node = queue.popleft()
        nid = index[node]
        if node[0] == "e":
            _, e, ls = node
            for aid in eg.eve_succ[e]:
                succ[nid].append(intern(("a", aid, ls)))
        else:
            _, aid, ls = node
            for _t, sid in eg.adam_nodes[aid].succ:
                if sid in layer_set:
                    nxt = ("e", sid, lar_step(ls, cls_of[eg.eve_states[sid].vertex]))
                    succ[nid].append(intern(nxt))
                else:
                    succ[nid].append(WIN if sid in global_win else LOSE)

    w0, _w1, s0, _s1 = solve_parity(ParityGame(owner, priority, succ))
    for node, nid in index.items():
        if node[0] != "e" or nid not in w0:
            continue
        choice = s0.get(nid)
        if choice is None:
            raise RuntimeError(f"missing strategy on won node {node}")
        target = labels[choice]
        table.entries[(node[1], node[2])] = target[1]
    table.win = frozenset(
        e for e in layer_eves if index[entry_nodes[e]] in w0
    )
    return table


def punishment_region(eg: EpistemicGame, p: Vector, lar_cap: int = 500_000) -> PunishmentSolution:
    """Deviated Eve states from which the coalition can bound every surviving
    suspect by p on every outcome, with the enforcing strategy tables."""
    groups: dict[DevKey, list[int]] = {}
    for eid in eg.deviated_ids():
        groups.setdefault(eg.eve_states[eid].deviators(), []).append(eid)
    global_win: set[int] = set()
    layers: dict[DevKey, LayerTable] = {}
    for dev in sorted(groups, key=lambda d: (len(d), d)):
        table = _solve_layer(eg, p, dev, groups[dev], global_win, lar_cap)
        layers[dev] = table
        global_win |= table.win
    return PunishmentSolution(payoff=p, win=frozenset(global_win), layers=layers)


# ---------------------------------------------------------------------------
# Full synthesis: p-safe complying lasso + punishment tables.


@dataclass
class EveStrategy:
    """Finite-memory protagonist strategy: follow the complying lasso, and on
    any visible deviation switch to the punished layer's record-based table."""

    eg: EpistemicGame
    payoff: Vector
    prefix: tuple[tuple[int, int], ...]  # (eve id, adam id) along the stem
    cycle: tuple[tuple[int, int], ...]  # (eve id, adam id) around the loop
    layers: dict[DevKey, LayerTable]

    # -- policy protocol -------------------------------------------------
    def initial(self):
        return ("c", 0)

    def _comply_entry(self, pos: int) -> tuple[int, int]:
        if pos < len(self.prefix):
            return self.prefix[pos]
        return self.cycle[(pos - len(self.prefix)) % len(self.cycle)]

    def action(self, eve_id: int, mem) -> EveAction:
        if mem[0] == "c":
            entry_eve, aid = self._comply_entry(mem[1])
            if entry_eve != eve_id:
                raise StrategyUndefined(
                    f"complying track expected state {entry_eve}, got {eve_id}"
                )
            return self.eg.adam_nodes[aid].action
        _tag, dev, ls = mem
        table = self.layers.get(dev)
        if table is None:
            raise StrategyUndefined(f"no punishment table for suspects {dev}")
        aid = table.entries.get((eve_id, ls))
        if aid is None:
            raise StrategyUndefined(
                f"punishment table for {dev} undefined at "
                f"{state_key(self.eg.eve_states[eve_id])} with record {ls}"
            )
        return self.eg.adam_nodes[aid].action

    def advance(self, mem, eve_id: int, action: EveAction, next_eve_id: int):
        nxt = self.eg.eve_states[next_eve_id]
        if mem[0] == "c":
            if not nxt.deviated:
                pos = mem[1] + 1
                if pos >= len(self.prefix) + len(self.cycle):
                    pos = len(self.prefix)
                return ("c", pos)
            return self._enter_layer(next_eve_id)
        _tag, dev, ls = mem
        if nxt.deviators() == dev:
            table = self.layers[dev]
            color = table.class_of[nxt.vertex]
            return ("p", dev, lar_step(ls, color))
        return self._enter_layer(next_eve_id)

    def _enter_layer(self, eve_id: int):
        state = self.eg.eve_states[eve_id]
        dev = state.deviators()
        table = self.layers.get(dev)
        if table is None:
            raise StrategyUndefined(f"no punishment table for suspects {dev}")
        color = table.class_of[state.vertex]
        return ("p", dev, table.entry_state(color))

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        eg = self.eg

        def action_json(action: EveAction):
            if action and isinstance(action[0], tuple):
                return {d: list(m) for d, m in action}
            return list(action)

        def comply_json(entries):
            return [
                {
                    "eve": e,
                    "key": state_key(eg.eve_states[e]),
                    "action": action_json(eg.adam_nodes[aid].action),
                }
                for e, aid in entries
            ]

        layers = []
        for dev in sorted(self.layers):
            table = self.layers[dev]
            rows = []
            for (e, ls), aid in sorted(
                table.entries.items(), key=lambda kv: (kv[0][0], kv[0][1].record, kv[0][1].hit)
            ):
                rows.append(
                    {
                        "eve": e,
                        "key": state_key(eg.eve_states[e]),
                        "record": list(ls.record),
                        "hit": ls.hit,
                        "action": action_json(eg.adam_nodes[aid].action),
                    }
                )
            layers.append(
                {
                    "dev": list(dev),
                    "classes": [list(cls) for cls in table.classes],
                    "win": sorted(table.win),
                    "entries": rows,
                }
            )
        return {
            "format": "equisynth-profile-v1",
            "payoff": [str(q) for q in self.payoff],
            "comply": {
                "prefix": comply_json(self.prefix),
                "cycle": comply_json(self.cycle),
            },
            "punish": layers,
        }

    @staticmethod
    @rejects_malformed("profile")
    def from_dict(eg: EpistemicGame, data: dict) -> "EveStrategy":
        if data.get("format") != "equisynth-profile-v1":
            raise InvalidInput("unknown profile format")

        def move_of(raw) -> tuple[str, ...]:
            if not isinstance(raw, list) or not all(isinstance(a, str) for a in raw):
                raise InvalidInput("profile action must be a JSON list of action names")
            return tuple(raw)

        def action_of(raw, eve_id) -> EveAction:
            state = eg.eve_states[eve_id]
            if isinstance(raw, dict):
                try:
                    return tuple(
                        (d, move_of(raw[d])) for d in state.deviators()
                    )
                except KeyError as exc:
                    raise InvalidInput(f"profile action misses suspect {exc}") from exc
            return move_of(raw)

        def comply_of(rows):
            out = []
            for row in rows:
                e = int(row["eve"])
                if not 0 <= e < eg.eve_count() or state_key(eg.eve_states[e]) != row["key"]:
                    raise InvalidInput("profile does not match the built game")
                aid = eg.adam_for_action(e, action_of(row["action"], e))
                out.append((e, aid))
            return tuple(out)

        payoff = tuple(Fraction(x) for x in data["payoff"])
        if len(payoff) != len(eg.game.players):
            raise InvalidInput("profile payoff does not give one value per player")
        prefix = comply_of(data["comply"]["prefix"])
        cycle = comply_of(data["comply"]["cycle"])
        if not cycle:
            raise InvalidInput("profile complying cycle is empty")
        layers: dict[DevKey, LayerTable] = {}
        for block in data.get("punish", []):
            dev = tuple(block["dev"])
            classes = tuple(tuple(cls) for cls in block["classes"])
            entries: dict[tuple[int, LarState], int] = {}
            for row in block["entries"]:
                e = int(row["eve"])
                if not 0 <= e < eg.eve_count() or state_key(eg.eve_states[e]) != row["key"]:
                    raise InvalidInput("profile does not match the built game")
                ls = LarState(tuple(row["record"]), int(row["hit"]))
                entries[(e, ls)] = eg.adam_for_action(e, action_of(row["action"], e))
            layers[dev] = LayerTable(
                dev=dev,
                classes=classes,
                entries=entries,
                win=frozenset(int(x) for x in block.get("win", [])),
            )
        return EveStrategy(eg=eg, payoff=payoff, prefix=prefix, cycle=cycle, layers=layers)


@dataclass
class SolveResult:
    payoff: Vector
    strategy: EveStrategy
    lasso_prefix: tuple[str, ...]
    lasso_cycle: tuple[str, ...]
    candidates_tried: list[Vector]


def solve(
    eg: EpistemicGame,
    query=None,
    main_inf: Optional[frozenset[str]] = None,
    lar_cap: int = 500_000,
) -> Optional[SolveResult]:
    """Try each candidate payoff in order; return the first enforceable one.

    A result bundles the complying lasso over p-safe moves and the punishment
    tables the lasso's safety relies on.  `main_inf` additionally requires
    the complying outcome to visit infinitely often exactly that vertex set.
    """
    tried: list[Vector] = []
    for p in candidate_payoffs(eg.game, query):
        tried.append(p)
        punish = punishment_region(eg, p, lar_cap)
        result = _find_lasso(eg, p, punish, main_inf)
        if result is not None:
            prefix, cycle = result
            states = eg.eve_states
            strategy = EveStrategy(
                eg=eg, payoff=p, prefix=prefix, cycle=cycle, layers=punish.layers
            )
            return SolveResult(
                payoff=p,
                strategy=strategy,
                lasso_prefix=tuple(states[e].vertex for e, _ in prefix),
                lasso_cycle=tuple(states[e].vertex for e, _ in cycle),
                candidates_tried=tried,
            )
    return None


def _find_lasso(eg: EpistemicGame, p: Vector, punish: PunishmentSolution,
                main_inf: Optional[frozenset[str]]):
    states = eg.eve_states
    # p-safe complying edges: every visible deviation falls into the won region.
    safe_succ: dict[int, dict[int, int]] = {}
    for e in range(eg.eve_count()):
        if states[e].deviated:
            continue
        row: dict[int, int] = {}
        for aid in eg.eve_succ[e]:
            node = eg.adam_nodes[aid]
            if all(
                sid in punish.win
                for _t, sid in node.succ
                if states[sid].deviated
            ):
                row.setdefault(node.comply, aid)
        safe_succ[e] = row

    # Reachable part of the p-safe graph.
    reach: list[int] = []
    seen = {eg.init}
    queue = deque([eg.init])
    while queue:
        e = queue.popleft()
        reach.append(e)
        for t in safe_succ[e]:
            if t not in seen:
                seen.add(t)
                queue.append(t)

    verts = {e: states[e].vertex for e in reach}
    if main_inf is not None:
        if eg.game.payoff.value(main_inf) != p:
            return None
        color, candidates = verts, [main_inf]
    else:
        atoms = eg.game.payoff.atoms()
        color = {e: v if v in atoms else None for e, v in verts.items()}
        colors = sorted(set(color.values()), key=lambda c: (c is None, c))
        candidates = (
            cc for cc in _color_sets(colors)
            if eg.game.payoff.value(c for c in cc if c is not None) == p
        )
    for cc in candidates:
        witness = recurring_witness(reach, safe_succ, color, cc)
        if witness is not None:
            return _build_lasso(eg, safe_succ, set(witness))
    return None


def _bfs_path(src: int, dst, succ_of) -> list[int]:
    """Vertex path src..dst (dst may be a set); deterministic BFS."""
    targets = dst if isinstance(dst, set) else {dst}
    prev = {src: None}
    queue = deque([src])
    found = src if src in targets else None
    while queue and found is None:
        x = queue.popleft()
        for t in succ_of(x):
            if t not in prev:
                prev[t] = x
                if t in targets:
                    found = t
                    break
                queue.append(t)
    if found is None:
        raise RuntimeError("no path in p-safe graph")
    path = [found]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def _build_lasso(eg: EpistemicGame, safe_succ, sub: set[int]):
    order = sorted(sub)
    stem_path = _bfs_path(eg.init, sub, lambda e: sorted(safe_succ[e]))
    s0 = stem_path[-1]
    prefix = tuple(
        (e, safe_succ[e][t]) for e, t in zip(stem_path, stem_path[1:])
    )
    inside = lambda e: sorted(t for t in safe_succ[e] if t in sub)
    walk = [s0]
    cur = s0
    for target in [e for e in order if e != s0] + [s0]:
        leg = _bfs_path(cur, target, inside)
        walk.extend(leg[1:])
        cur = target
    if len(walk) == 1:  # single state: use its self-loop
        walk.append(s0)
    cycle = tuple((e, safe_succ[e][t]) for e, t in zip(walk, walk[1:]))
    return prefix, cycle


# ---------------------------------------------------------------------------
# Independent verification of a strategy on the epistemic game.


@dataclass
class ModelCheckReport:
    ok: bool
    complying_prefix: tuple[str, ...]
    complying_cycle: tuple[str, ...]
    complying_payoff: Vector
    violations: list[str]
    product_nodes: int


def model_check_strategy(
    eg: EpistemicGame, policy, p: Vector, node_cap: int = 1_000_000
) -> ModelCheckReport:
    """Drive `policy` against every antagonist choice and verify the payoff
    contract: complying outcome exactly p, every deviated recurring behavior
    at or below p for each surviving suspect."""
    states = eg.eve_states
    index: dict = {}
    nodes: list = []
    succ: list[list[int]] = []

    def intern(eve_id: int, mem) -> int:
        key = (eve_id, mem)
        i = index.get(key)
        if i is None:
            if len(nodes) >= node_cap:
                raise StateCapExceeded(
                    f"verification product exceeded {node_cap} nodes"
                )
            i = len(nodes)
            index[key] = i
            nodes.append(key)
            succ.append([])
            queue.append(key)
        return i

    queue: deque = deque()
    root = intern(eg.init, policy.initial())
    while queue:
        eve_id, mem = queue.popleft()
        nid = index[(eve_id, mem)]
        action = policy.action(eve_id, mem)
        aid = eg.adam_for_action(eve_id, action)
        for _t, sid in eg.adam_nodes[aid].succ:
            mem2 = policy.advance(mem, eve_id, action, sid)
            succ[nid].append(intern(sid, mem2))

    violations: list[str] = []

    # The unique complying outcome.
    walk: list[int] = []
    pos: dict[int, int] = {}
    cur = root
    while cur not in pos:
        pos[cur] = len(walk)
        walk.append(cur)
        eve_id, mem = nodes[cur]
        action = policy.action(eve_id, mem)
        node = eg.adam_nodes[eg.adam_for_action(eve_id, action)]
        if node.comply is None:
            raise StrategyUndefined("complying outcome left the complying region")
        mem2 = policy.advance(mem, eve_id, action, node.comply)
        cur = index[(node.comply, mem2)]
    start = pos[cur]
    comply_prefix = tuple(states[nodes[i][0]].vertex for i in walk[:start])
    comply_cycle = tuple(states[nodes[i][0]].vertex for i in walk[start:])
    comply_payoff = eg.game.payoff.value(frozenset(comply_cycle))
    if comply_payoff != tuple(p):
        violations.append(
            f"complying outcome pays {tuple(str(q) for q in comply_payoff)}, "
            f"expected {tuple(str(q) for q in p)}"
        )

    # Deviated product region: exact recurring-color-set analysis.
    atoms = eg.game.payoff.atoms()
    vertex = [states[eve_id].vertex for eve_id, _mem in nodes]
    color = [v if v in atoms else None for v in vertex]
    deviated = [i for i in range(len(nodes)) if states[nodes[i][0]].deviated]
    dev_ids = {i: n for n, i in enumerate(deviated)}
    sub_adj = [
        [dev_ids[t] for t in succ[i] if t in dev_ids] for i in deviated
    ]
    for comp in strongly_connected_components(len(deviated), sub_adj):
        comp_nodes = [deviated[i] for i in comp]
        dev = states[nodes[comp_nodes[0]][0]].deviators()
        dev_idx = [eg.game.player_index[d] for d in dev]
        colors = sorted({color[i] for i in comp_nodes}, key=lambda c: (c is None, c))
        for cc in _color_sets(colors):
            if recurring_witness(comp_nodes, succ, color, cc) is None:
                continue
            verts = frozenset(c for c in cc if c is not None)
            vec = eg.game.payoff.value(verts)
            bad = [
                dev[k] for k, i in enumerate(dev_idx) if vec[i] > p[i]
            ]
            if bad:
                violations.append(
                    "recurring vertices "
                    + "{" + ",".join(sorted(verts)) + "}"
                    + f" with suspects {{{','.join(dev)}}} pay "
                    + f"({','.join(str(q) for q in vec)})"
                    + f" exceeding the bound for {{{','.join(bad)}}}"
                )

    return ModelCheckReport(
        ok=not violations,
        complying_prefix=comply_prefix,
        complying_cycle=comply_cycle,
        complying_payoff=comply_payoff,
        violations=violations,
        product_nodes=len(nodes),
    )
