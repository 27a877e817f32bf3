"""Synthesis on the epistemic game: find a payoff vector the suggested
coalition can lock in, together with the strategy that enforces it.

For a candidate vector p the deviated region is solved as a zero-sum game
where the protagonist must keep every surviving suspect at or below its
component of p on the recurring vertices.  Suspect sets only shrink, so the
region splits into layers ordered by the suspect set.  Each layer becomes a
parity game through its product with the Zielonka tree of its Muller
condition, whose leaves are the only memory the punishment needs; with one
leaf the product is the layer itself.  Every play ends in one layer, whose
priorities alone recur, so the products of all layers form one parity game
on the epistemic game's own nodes (`_RegionGame`), in which the states
without suspects are stuck.  It is solved layer by layer in one call: each
layer is a block of `parity.solve_parity`, smallest suspect sets first, so
a layer's exits into smaller layers already have their winners.

A split state of a pruned build (see `epistemic`) is won iff each of its
component states is: masks only grow, so components only split, and a
layer's condition bounds each surviving suspect.  The region game makes it
an Adam node whose successors are its component states, in smaller layers,
so its block's exit pass settles it with no product node and no Zielonka
work.

On top of the punished region, a complying move is p-safe when every visible
deviation it admits lands in the won region.  The main outcome is then a
lasso over p-safe moves, found at the states they reach from the initial one,
whose recurring vertex set evaluates to exactly p.
`model_check_strategy` re-verifies any strategy against the epistemic game:
the unique complying outcome must pay exactly p, and no recurring set
reachable in the deviated product may pay a surviving suspect more.

All three read one coloring, `ConcurrentGame.colors`: each payoff atom is
its own color, every other vertex of the game shares one, and the payoff
rule deciding each set of colors is found once per game.  A layer compares
the rules' vectors with p, so its classes and tree depend only on the game,
p and its suspects, and a pruned build (`epistemic.build_reachable`) gives
the same trees, and leaves, as the full one.  The lasso search and the
model check take from `recurring_sets` the color sets that pay exactly p,
or some suspect more, in an order vertex names do not change.  A set CC
can recur iff, restricted to CC-colored nodes, some strongly connected part
with an edge still shows every color of CC (`recurring_witness`, the
SCC-restriction step of Emerson-Lei emptiness checks): one SCC
decomposition per candidate, and no size cap.  With a required recurring
set, every vertex is its own color and that set is the only candidate.

A strategy is any object with the policy protocol:

    initial()                            -> memory at the initial Eve state
    action(eve_id, mem)                  -> the Adam id Eve chooses
    advance(mem, eve_id, next_eve_id)    -> memory at the next Eve state

Eve moves by choosing an Adam state, so a choice travels as an Adam id.
Action tuples are resolved only where they arrive from outside: the rows of
a profile file (`EveStrategy.from_dict`) and the suggestions of profile
machines (`translate.UpsilonPolicy`).

At a split state the found strategy joins its component states' moves,
which never conflict, and makes the Adam node on demand
(`EveStrategy._joined`).  A row holds one tree leaf, so where a split state
the play reaches has a component whose layer's tree has more, `solve`
expands every split state (`EpistemicGame.expand_split`) and solves the
payoff again, on a region game with no AND node.

A policy's memory holds only what the Eve state does not say: whether the
play deviated, and which suspects it tracks, are read off the state's key
(`EpistemicView.keys`), and a layer is keyed by its suspects' indices.
Suspect sets only shrink, so a step stays in a punishment layer iff the
number of suspects stays the same.  `EveStrategy` keeps one int, the lasso
position at states without suspects and the tree leaf elsewhere;
`UpsilonPolicy` keeps the machine-state vector of the complying history, or
one vector per suspect in the state's order.

A profile (`EveStrategy.to_dict`, format `equisynth-profile-v4`) holds the
payoff and rows that name their state by `state_key`, never by Eve id: the
complying rows give an action, the punishment rows a tree leaf and an
action.  `EveStrategy.from_dict` rebuilds everything else, each layer's
color classes and tree included, from the game, the payoff and the suspects.
"""
from __future__ import annotations

import functools
import logging
from array import array
from collections import deque
from itertools import chain
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .epistemic import EpistemicGame, EpistemicView, EveAction, state_key, suspects
from .errors import (
    InvalidInput,
    LarCapExceeded,
    StateCapExceeded,
    StrategyUndefined,
    rejects_malformed,
)
from .game import ConcurrentGame
from .parity import ParityGame, solve_parity
from .parsing import _as_rational

Vector = tuple[Fraction, ...]
DevKey = tuple[int, ...]  # a layer's suspects, as player indices

# Default cap on the product nodes each punishment layer adds to the region's
# parity game (`--lar-cap`); a layer with a one-leaf tree adds none.
LAR_CAP = 500_000
# Node cap of the searches that re-verify a strategy (exit 3 above it).
VERIFY_NODE_CAP = 1_000_000

log = logging.getLogger(__name__)


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


def recurring_witness(nodes, succ, color, cc: int) -> Optional[list]:
    """Nodes of a strongly connected part with an edge, inside the nodes whose
    color lies in `cc`, that shows every color of `cc`; None if there is none.

    `succ[v]` and `color[v]` give a node's successors and int color, and `cc`
    is a bitmask of colors; successors outside `nodes` are ignored."""
    keep = [v for v in nodes if cc >> color[v] & 1]
    ids = {v: i for i, v in enumerate(keep)}
    adj = [[ids[t] for t in succ[v] if t in ids] for v in keep]
    for comp in strongly_connected_components(len(keep), adj):
        if len(comp) == 1 and comp[0] not in adj[comp[0]]:
            continue
        if len({color[keep[i]] for i in comp}) == cc.bit_count():
            return [keep[i] for i in comp]
    return None


def recurring_sets(nodes, succ, color, shared: int, accept):
    """Yield (color set, witness) for every set of the colors on `nodes` that
    `accept` takes and that can recur (`recurring_witness`).  The sets come
    in binary-counting order over the atoms by position, with the `shared`
    color (`Colors.shared`) as the top digit."""
    sets = [0]
    for c in {color[v] for v in nodes}:
        sets += [cc | 1 << c for cc in sets]
    for cc in sorted(sets[1:], key=lambda cc: (cc & shared, cc)):
        if accept(cc):
            witness = recurring_witness(nodes, succ, color, cc)
            if witness is not None:
                yield cc, witness


# ---------------------------------------------------------------------------
# Punishment region: the suspect-set layers as one parity game.


Tree = tuple[tuple[tuple[int, int], ...], ...]  # [leaf][color] -> (leaf, priority)


@functools.lru_cache(maxsize=128)
def zielonka_tree(colors: int, acc: tuple[bool, ...]) -> Tree:
    """The Zielonka-tree parity automaton (Zielonka, TCS 1998; Casares,
    Colcombet, Fijalkow, ICALP 2021) of the Muller condition `acc`, a verdict
    for every nonempty set of colors in range(colors), indexed by its bitmask.

    The root holds every color, and the children of a node are the maximal
    color sets below it whose acceptance differs from the node's, so the
    acceptance alternates with depth.  The automaton's states are the leaves,
    numbered left to right; leaf 0 is the initial one.  Reading color c at a
    leaf finds the deepest ancestor n that holds c.  If n is the leaf itself
    the automaton stays; otherwise it moves to the leftmost leaf below the
    child of n that follows, cyclically, the child leading to the leaf.  The
    output is a max-parity priority that falls with the depth of n, even
    exactly where n accepts: the shallowest node met infinitely often holds
    the recurring colors and no child does, so it accepts iff they do.

    Returns the (next leaf, priority) pair per leaf and color.  The tree is
    immutable and depends on nothing else, so it is made once per process
    and table: the layers of a game, and the games of a run, share few
    acceptance tables."""
    def children(top: int) -> list[int]:
        # Subsets in decreasing order: a strict superset comes first.
        kids: list[int] = []
        sub = (top - 1) & top
        while sub:
            if acc[sub] != acc[top] and all(sub & k != sub for k in kids):
                kids.append(sub)
            sub = (sub - 1) & top
        return kids

    full = (1 << colors) - 1
    paths: list[tuple[int, ...]] = []  # leaves left to right, as paths of node sets
    stack = [(full,)]
    while stack:
        path = stack.pop()
        kids = children(path[-1])
        stack.extend(path + (k,) for k in reversed(kids))
        if not kids:
            paths.append(path)
    top = max(map(len, paths)) - 1
    base = top + (acc[full] != (top % 2 == 0))  # even exactly at accepting nodes
    step = []
    for leaf, path in enumerate(paths):
        row = []
        for c in range(colors):
            d = max(i for i, node in enumerate(path) if node >> c & 1)
            nxt = leaf
            if d < len(path) - 1:
                kids = children(path[d])
                sib = path[:d + 1] + (kids[(kids.index(path[d + 1]) + 1) % len(kids)],)
                nxt = next(i for i, q in enumerate(paths) if q[:d + 2] == sib)
            row.append((nxt, base - d))
        step.append(tuple(row))
    return tuple(step)


@dataclass
class LayerTable:
    classes: tuple[tuple[str, ...], ...]  # color id -> vertices of that class
    tree: Tree
    entries: dict[tuple[int, int], int]  # (eve id, leaf) -> adam id


@dataclass
class PunishmentSolution:
    win: frozenset[int]
    layers: dict[DevKey, LayerTable]


def _layer_groups(eg: EpistemicGame) -> dict[DevKey, list[int]]:
    """The deviated Eve ids the build made, grouped by suspect set."""
    groups: dict[DevKey, list[int]] = {}
    keys = eg.keys
    for eid in range(eg.built[0]):
        if keys[eid][1]:
            groups.setdefault(suspects(keys[eid]), []).append(eid)
    return groups


def _names(game: ConcurrentGame, dev: DevKey) -> tuple[str, ...]:
    """The names of the suspects `dev`, for text."""
    return tuple(game.players[d] for d in dev)


def _layer_color_classes(game: ConcurrentGame, p: Vector, dev: DevKey):
    """The color classes of the layer with suspects `dev`, which are the
    game's (`ConcurrentGame.colors`), and its acceptance table per bitmask
    of classes: each rule's vector is compared with p once, and each set of
    classes reads the verdict of its rule."""
    colors = game.colors
    ok = [all(vec[i] <= p[i] for i in dev) for vec in game.payoff.outcomes]
    return colors.classes, [ok[k] for k in colors.rule]


def _layer_setup(game: ConcurrentGame, p: Vector, dev: DevKey):
    """The color classes and the Zielonka tree of the layer with suspects
    `dev`."""
    classes, accepted = _layer_color_classes(game, p, dev)
    return classes, zielonka_tree(len(classes), tuple(accepted))


class _RegionGame:
    """The punishment region of one candidate as one parity game.  The tree
    product's node (id, leaf) is, at leaf 0, the epistemic game's own node:
    Eve id e is node e and Adam id a node E + a, for E Eve states the build
    made.  An Adam node at leaf 0 leads to Eve nodes at leaf 0, of its layer
    or a smaller one, so it keeps `eg.adam_succ`.  Only multi-leaf layers
    add nodes, one per (id, leaf >= 1) reached; in a one-leaf layer the Adam
    nodes take the layer's one priority, so its block has one priority.  A
    split state (`eg.split`) is one Adam node at every leaf, an AND node
    whose successors are its component states, in smaller layers, with the
    priority an Eve node of its layer would take.  States without
    suspects get no successors, and no deviated node leads to them or their
    Adam nodes.  They and their Adam nodes form the last block (`blocks`),
    where each Adam node leads to its stuck complying successor, which loses
    for Eve, so the parity solver settles both as lost.

    `suspects` weighs the exits for `solve_parity`: where Eve can leave a
    layer for won states only, she takes the Adam node whose successors
    have the fewest suspects in all."""

    def __init__(self, eg: EpistemicGame, lar_cap: int):
        self.eg, self.lar_cap = eg, lar_cap
        eves, adams = eg.built
        self.eves = eves
        self.base = eves + adams
        self.owner = bytearray(eves) + b"\x01" * adams
        self.priority = bytearray(self.base)
        self.succ: list = [()] * eves + eg.adam_succ[:adams]
        # Added node - base -> its Eve or Adam id, and its leaf.
        self.ids, self.leaf = array("i"), array("i")
        # Per layer: its table, its Eve ids and the nodes it added.
        self.layers: list[tuple[LayerTable, list[int], range]] = []
        # Eve id -> its number of suspects.
        self.suspects = [len(pairs) for _v, pairs in eg.keys[:eves]]

    def key(self, node: int) -> tuple[int, int]:
        if node < self.eves:
            return node, 0
        if node < self.base:
            return node - self.eves, 0
        return self.ids[node - self.base], self.leaf[node - self.base]

    def blocks(self):
        """The nodes of each layer, in the order the layers were added, and
        then those of the states without suspects: every edge stays in its
        block or leads to an earlier one."""
        eves, eve_succ = self.eves, self.eg.eve_succ

        def with_adam(ids: list[int]):
            return chain(ids, chain.from_iterable(
                range(eves + eve_succ[e].start, eves + eve_succ[e].stop) for e in ids))

        for _table, layer_eves, added in self.layers:
            yield chain(with_adam(layer_eves), added)
        yield with_adam([e for e, (_v, pairs) in enumerate(self.eg.keys[:eves]) if not pairs])


def _solve_layer(region: _RegionGame, p: Vector, dev: DevKey, layer_eves: list[int]) -> LayerTable:
    """Add the layer with suspects `dev`, as its product with its Zielonka
    tree, to the region game, and return its table for `punishment_region`
    to fill in.  An Eve node is (Eve id, leaf before the state's own color
    is read), an Adam node (Adam id, leaf after it).  Entering the layer
    starts at leaf 0, which a one-leaf tree never leaves.  A split state
    becomes its AND node (see `_RegionGame`)."""
    eg = region.eg
    classes, tree = _layer_setup(eg.game, p, dev)
    eves, base = region.eves, region.base
    owner, priority, succ = region.owner, region.priority, region.succ
    adam_succ, eve_succ, keys, split = eg.adam_succ, eg.eve_succ, eg.keys, eg.split
    of = eg.game.colors.of
    index: dict[tuple[int, int, int], int] = {}  # (id, leaf, owner) -> added node
    first = len(owner)

    def node_of(ident: int, leaf: int, player: int) -> int:
        if leaf == 0:
            return ident + eves * player
        node = index.get((ident, leaf, player))
        if node is None:
            node = len(owner)
            if node - first >= region.lar_cap:
                raise LarCapExceeded(
                    f"punishment product exceeded {region.lar_cap} nodes in the layer with "
                    f"suspects {{{','.join(_names(eg.game, dev))}}}: {len(tree)} tree leaves, "
                    f"{len(layer_eves)} Eve states and "
                    f"{sum(len(eve_succ[e]) for e in layer_eves)} Adam nodes in the "
                    f"layer, {node - first} product nodes made"
                )
            index[ident, leaf, player] = node
            owner.append(player)
            priority.append(0 if player else tree[leaf][of[keys[ident][0]]][1])
            succ.append(())
            region.ids.append(ident)
            region.leaf.append(leaf)
        return node

    for e in layer_eves:
        nxt, priority[e] = tree[0][of[keys[e][0]]]
        if e in split:
            owner[e], succ[e] = 1, split[e]
            continue
        r = eve_succ[e]
        if len(tree) == 1:
            priority[eves + r.start:eves + r.stop] = bytes((priority[e],)) * len(r)
        succ[e] = (range(eves + r.start, eves + r.stop) if nxt == 0
                   else [node_of(aid, nxt, 1) for aid in r])
    layer = {e for e in layer_eves if e not in split} if len(owner) > first else ()
    node = first
    while node < len(owner):  # the product grows while it is read
        ident, leaf = region.ids[node - base], region.leaf[node - base]
        if owner[node] == 0:
            nxt = tree[leaf][of[keys[ident][0]]][0]
            succ[node] = [node_of(aid, nxt, 1) for aid in eve_succ[ident]]
        else:
            succ[node] = [node_of(sid, leaf, 0) if sid in layer else sid
                          for sid in adam_succ[ident]]
        node += 1
    table = LayerTable(classes=classes, tree=tree, entries={})
    region.layers.append((table, layer_eves, range(first, len(owner))))
    return table


def punishment_region(eg: EpistemicGame, p: Vector, lar_cap: int = LAR_CAP) -> PunishmentSolution:
    """Deviated Eve states from which the coalition can bound every surviving
    suspect by p on every outcome, with the enforcing strategy tables."""
    region = _RegionGame(eg, lar_cap)
    groups = _layer_groups(eg)
    layers: dict[DevKey, LayerTable] = {}
    for dev in sorted(groups, key=lambda d: (len(d), _names(eg.game, d))):
        layers[dev] = _solve_layer(region, p, dev, groups[dev])
    winner, move = solve_parity(ParityGame(region.owner, region.priority, region.succ),
                                region.blocks(), region.suspects)
    for table, layer_eves, added in region.layers:
        for node in chain(layer_eves, added):
            if winner[node] == 0 and region.owner[node] == 0:
                table.entries[region.key(node)] = region.key(move[node])[0]
    win = frozenset(e for eves in groups.values() for e in eves if winner[e] == 0)
    return PunishmentSolution(win=win, layers=layers)


# ---------------------------------------------------------------------------
# Full synthesis: p-safe complying lasso + punishment tables.

PROFILE_FORMAT = "equisynth-profile-v4"


@dataclass
class EveStrategy:
    """Finite-memory protagonist strategy: follow the complying lasso, and on
    any visible deviation switch to the punished layer's table.  The memory
    is the lasso position at states without suspects, the tree leaf of the
    state's layer elsewhere.  A solved strategy has a table for every layer
    its play reaches, holding the entries it reaches (`_reached`); a read
    one has a table for every layer its rows name.  A layer without a table
    has no entries."""

    eg: EpistemicView
    payoff: Vector
    prefix: tuple[tuple[int, int], ...]  # (eve id, adam id) along the stem
    cycle: tuple[tuple[int, int], ...]  # (eve id, adam id) around the loop
    layers: dict[DevKey, LayerTable]

    # -- policy protocol -------------------------------------------------
    def initial(self) -> int:
        return 0

    def _comply_entry(self, pos: int) -> tuple[int, int]:
        if pos < len(self.prefix):
            return self.prefix[pos]
        return self.cycle[(pos - len(self.prefix)) % len(self.cycle)]

    def action(self, eve_id: int, mem: int) -> int:
        eg, key = self.eg, self.eg.keys[eve_id]
        if not key[1]:
            entry_eve, aid = self._comply_entry(mem)
            if entry_eve != eve_id:
                raise StrategyUndefined(
                    f"complying track expected state "
                    f"{state_key(eg.state(entry_eve))}, got {state_key(eg.state(eve_id))}"
                )
            return aid
        dev = suspects(key)
        table = self.layers.get(dev)
        aid = None if table is None else table.entries.get((eve_id, mem))
        if aid is None and eve_id in eg.split:
            aid = self._joined(eve_id, mem)
        if aid is None:
            raise StrategyUndefined(
                f"punishment table for {_names(eg.game, dev)} undefined at "
                f"{state_key(eg.state(eve_id))} with leaf {mem}"
            )
        return aid

    def _joined(self, eve_id: int, mem: int) -> Optional[int]:
        """At the split state `eve_id`, the Adam node that joins its
        component states' moves at leaf 0, made on demand and kept as the
        entry at `mem`.  Components never share a player uninformed under
        both, so the moves never conflict.  None where a component has no
        entry, or its layer's tree more than one leaf: it needs memory of
        its own, which no row can hold."""
        eg = self.eg
        moves: dict[int, tuple[str, ...]] = {}
        for c in eg.split[eve_id]:
            dev = suspects(eg.keys[c])
            table = self.layers.get(dev)
            aid = None if table is None or len(table.tree) > 1 else table.entries.get((c, 0))
            if aid is None:
                return None
            moves.update(zip(dev, eg.adam_action[aid]))
        dev = suspects(eg.keys[eve_id])
        aid = eg.adam_for_action(eve_id, tuple(map(moves.__getitem__, dev)))
        if dev not in self.layers:
            self.layers[dev] = LayerTable(*_layer_setup(eg.game, self.payoff, dev), entries={})
        self.layers[dev].entries[eve_id, mem] = aid
        return aid

    def advance(self, mem: int, eve_id: int, next_eve_id: int) -> int:
        key, nxt = self.eg.keys[eve_id], self.eg.keys[next_eve_id][1]
        if not nxt:
            pos = mem + 1
            return pos if pos < len(self.prefix) + len(self.cycle) else len(self.prefix)
        if len(nxt) == len(key[1]):
            table = self.layers[suspects(key)]
            return table.tree[mem][self.eg.game.colors.of[key[0]]][0]
        return 0

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        """The profile: punishment rows by their suspects' names, then by
        (Eve id, leaf)."""
        eg = self.eg

        def row_json(e: int, aid: int, **extra):
            state, action = eg.state(e), eg.adam_action[aid]
            action_json = (dict(zip(state.deviators(), map(list, action))) if state.deviated
                           else list(action))
            return {"key": state_key(state), **extra, "action": action_json}

        return {
            "format": PROFILE_FORMAT,
            "payoff": [str(q) for q in self.payoff],
            "comply": {
                "prefix": [row_json(e, aid) for e, aid in self.prefix],
                "cycle": [row_json(e, aid) for e, aid in self.cycle],
            },
            "punish": [
                row_json(e, aid, leaf=leaf)
                for dev in sorted(self.layers, key=lambda dev: _names(eg.game, dev))
                for (e, leaf), aid in sorted(self.layers[dev].entries.items())
            ],
        }

    @staticmethod
    @rejects_malformed("profile")
    def from_dict(eg: EpistemicView, data: dict) -> "EveStrategy":
        """Read a profile back on a built game or an `EpistemicView`.  Each
        row names its state by key, and a punishment row belongs to the
        layer of its state's suspects, whose color classes and tree are
        rebuilt from the game, the payoff and the suspects.  A state or an
        Adam node `eg` lacks is made on demand (see `eve_for_key` and
        `adam_for_action`), so the rows may come in any order.  A profile
        with a key no reachable state can have, an action not enabled at
        its state, a punishment row at a state without suspects, a leaf
        outside its layer's tree, or two rows for one state and leaf is
        rejected."""
        if data.get("format") != PROFILE_FORMAT:
            raise InvalidInput(
                f"unsupported profile format {data.get('format')!r}: expected "
                f"{PROFILE_FORMAT}; solve again to get a profile in that format"
            )

        def move_of(raw) -> tuple[str, ...]:
            if not isinstance(raw, list) or not all(isinstance(a, str) for a in raw):
                raise InvalidInput("profile action must be a JSON list of action names")
            return tuple(raw)

        def action_of(row, eve_id) -> EveAction:
            # An Eve id read from a row has the row's key as its `state_key`.
            raw, dev = row["action"], suspects(eg.keys[eve_id])
            if isinstance(raw, dict) != bool(dev):
                shape = "a JSON object keyed by suspect" if dev else "a JSON list of action names"
                raise InvalidInput(f"profile action at {row['key']} must be {shape}")
            if not dev:
                return move_of(raw)
            names = _names(eg.game, dev)
            others = sorted(set(raw) - set(names))
            if others:
                raise InvalidInput(f"profile action at {row['key']} names non-suspects {others}")
            try:
                return tuple(move_of(raw[d]) for d in names)
            except KeyError as exc:
                raise InvalidInput(f"profile action misses suspect {exc}") from exc

        def eve_of(row) -> int:
            key = row["key"]
            e = eg.eve_for_key(key) if isinstance(key, str) else None
            if e is None:
                raise InvalidInput(
                    f"profile does not match the built game: it has no state {key}")
            return e

        def comply_of(rows):
            out = []
            for row in rows:
                e = eve_of(row)
                out.append((e, eg.adam_for_action(e, action_of(row, e))))
            return tuple(out)

        if not isinstance(data["payoff"], list):
            raise InvalidInput("profile payoff must be a JSON list")
        payoff = tuple(_as_rational(x) for x in data["payoff"])
        if len(payoff) != len(eg.game.players):
            raise InvalidInput("profile payoff does not give one value per player")
        prefix = comply_of(data["comply"]["prefix"])
        cycle = comply_of(data["comply"]["cycle"])
        if not cycle:
            raise InvalidInput("profile complying cycle is empty")
        layers: dict[DevKey, LayerTable] = {}
        for row in data["punish"]:
            e = eve_of(row)
            dev = suspects(eg.keys[e])
            if not dev:
                raise InvalidInput(
                    f"profile punishment row at {row['key']}, a state without suspects")
            table = layers.get(dev)
            if table is None:
                table = layers[dev] = LayerTable(
                    *_layer_setup(eg.game, payoff, dev), entries={})
            leaf = row["leaf"]
            if isinstance(leaf, bool) or not isinstance(leaf, int):
                raise InvalidInput(f"profile leaf {leaf!r} is not a JSON integer")
            if not 0 <= leaf < len(table.tree):
                raise InvalidInput(
                    f"profile leaf {leaf} at {row['key']} is outside the layer's "
                    f"tree of {len(table.tree)} leaves"
                )
            if (e, leaf) in table.entries:
                raise InvalidInput(f"profile has two rows for {row['key']} at leaf {leaf}")
            table.entries[(e, leaf)] = eg.adam_for_action(e, action_of(row, e))
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
    lar_cap: int = LAR_CAP,
) -> Optional[SolveResult]:
    """Try each candidate payoff in order; return the first enforceable one.

    A result bundles the complying lasso over p-safe moves and the punishment
    tables the lasso's safety relies on.  `main_inf` additionally requires
    the complying outcome to visit infinitely often exactly that vertex set,
    so a candidate that set does not pay is tried without a punishment solve.
    Without it, so is a candidate no nonempty color set pays (its rules are
    shadowed by earlier ones): `_find_lasso` accepts only sets that pay p.
    """
    payoff = eg.game.payoff
    paid = {payoff.outcomes[r] for r in set(eg.game.colors.rule[1:])}
    tried: list[Vector] = []
    for p in candidate_payoffs(eg.game, query):
        tried.append(p)
        pays = payoff.value(main_inf) == p if main_inf is not None else p in paid
        if not pays:
            continue
        punish = punishment_region(eg, p, lar_cap)
        result = _find_lasso(eg, p, punish, main_inf)
        if result is not None:
            prefix, cycle = result
            strategy = _reached(EveStrategy(
                eg=eg, payoff=p, prefix=prefix, cycle=cycle, layers=punish.layers
            ))
            if strategy is None:
                log.info("expanding %d split states: the profile needs memory per component",
                         len(eg.split))
                eg.expand_split()
                strategy = _reached(EveStrategy(
                    eg=eg, payoff=p, prefix=prefix, cycle=cycle,
                    layers=punishment_region(eg, p, lar_cap).layers,
                ))
            vertices, keys = eg.game.vertices, eg.keys
            return SolveResult(
                payoff=p,
                strategy=strategy,
                lasso_prefix=tuple(vertices[keys[e][0]] for e, _ in prefix),
                lasso_cycle=tuple(vertices[keys[e][0]] for e, _ in cycle),
                candidates_tried=tried,
            )
    return None


def _reached(strategy: EveStrategy) -> Optional[EveStrategy]:
    """`strategy` with only the punishment entries met on its product with
    the game (`_product`, the walk `model_check_strategy` checks), the
    joined entries of the split states it meets included.  Every check, and
    `omega`'s machines, read a strategy only at nodes of that product.  A
    node where the strategy is undefined is kept as it is, for the checks to
    report.  None if a split state it meets has a component whose layer's
    tree has more than one leaf (see `EveStrategy._joined`)."""
    eg = strategy.eg
    seen = set(_product(eg, strategy, partial=True)[0])
    leaves = {dev: len(table.tree) for dev, table in strategy.layers.items()}
    if eg.split and any(leaves.get(suspects(eg.keys[c]), 1) > 1
                        for e, _mem in seen if e in eg.split for c in eg.split[e]):
        return None
    layers = {}
    for dev, table in strategy.layers.items():
        entries = {key: aid for key, aid in table.entries.items() if key in seen}
        if entries:
            layers[dev] = replace(table, entries=entries)
    log.info("profile keeps %d of %d punishment table entries as rows",
             sum(len(t.entries) for t in layers.values()),
             sum(len(t.entries) for t in strategy.layers.values()))
    return replace(strategy, layers=layers)


def _find_lasso(eg: EpistemicGame, p: Vector, punish: PunishmentSolution,
                main_inf: Optional[frozenset[str]]):
    keys = eg.keys
    # Reachable part of the p-safe graph: a complying edge is p-safe when
    # every visible deviation falls into the won region.
    safe_succ: dict[int, dict[int, int]] = {}
    reach: list[int] = []
    seen = {eg.init}
    queue = deque([eg.init])
    while queue:
        e = queue.popleft()
        reach.append(e)
        row = safe_succ[e] = {}
        for aid in eg.eve_succ[e]:
            succ = eg.adam_succ[aid]
            if all(sid in punish.win for sid in succ if keys[sid][1]):
                # The complying successor is the one non-deviated successor.
                row.setdefault(next(sid for sid in succ if not keys[sid][1]), aid)
        for t in row:
            if t not in seen:
                seen.add(t)
                queue.append(t)

    if main_inf is not None:
        index = eg.game.vertex_index
        color = {e: keys[e][0] for e in reach}
        witness = recurring_witness(
            reach, safe_succ, color, sum(1 << index[v] for v in main_inf))
    else:
        colors = eg.game.colors
        pays = [vec == p for vec in eg.game.payoff.outcomes]
        color = {e: colors.of[keys[e][0]] for e in reach}
        found = recurring_sets(reach, safe_succ, color, colors.shared,
                               lambda cc: pays[colors.rule[cc]])
        witness = next((w for _cc, w in found), None)
    return None if witness is None else _build_lasso(eg, safe_succ, set(witness))


def _bfs_path(src: int, targets: set[int], succ_of) -> list[int]:
    """Vertex path from src to the first of `targets` found; deterministic BFS."""
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
        leg = _bfs_path(cur, {target}, inside)
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
    complying_cycle: tuple[str, ...]
    complying_payoff: Vector
    violations: list[str]
    product_nodes: int


def _product(eg: EpistemicView, policy, partial: bool = False) -> tuple[list, list[list[int]]]:
    """The nodes `(eve id, memory)` of `policy`'s product with the game,
    walked breadth-first from the initial state through every Adam
    successor, and each node's successor indices.  Under `partial` a node
    where `policy` is undefined gets no successors instead of raising."""
    index: dict = {}
    nodes: list = []
    succ: list[list[int]] = []

    def intern(eve_id: int, mem) -> int:
        key = (eve_id, mem)
        i = index.get(key)
        if i is None:
            if len(nodes) >= VERIFY_NODE_CAP:
                raise StateCapExceeded(
                    f"verification product exceeded {VERIFY_NODE_CAP} nodes: "
                    f"{nid} nodes expanded"
                )
            i = len(nodes)
            index[key] = i
            nodes.append(key)
            succ.append([])
        return i

    nid = 0
    intern(eg.init, policy.initial())
    while nid < len(nodes):  # the product grows while it is read
        eve_id, mem = nodes[nid]
        try:
            sids = eg.adam_succ[policy.action(eve_id, mem)]
        except StrategyUndefined:
            if not partial:
                raise
            sids = ()
        for sid in sids:
            succ[nid].append(intern(sid, policy.advance(mem, eve_id, sid)))
        nid += 1
    return nodes, succ


def model_check_strategy(eg: EpistemicView, policy, p: Vector) -> ModelCheckReport:
    """Drive `policy` against every antagonist choice and verify the payoff
    contract: complying outcome exactly p, every deviated recurring behavior
    at or below p for each surviving suspect.

    `policy` follows the protocol of the module docstring: `initial()`,
    `action(eve_id, mem)` returning an Adam id, and
    `advance(mem, eve_id, next_eve_id)`."""
    keys, players = eg.keys, eg.game.players
    nodes, succ = _product(eg, policy)

    violations: list[str] = []

    # The unique complying outcome.
    pos: dict[int, int] = {}  # node -> position on the walk
    cur = 0  # the initial node
    while cur not in pos:
        pos[cur] = len(pos)
        # The one successor without suspects, if any.
        cur = next((c for c in succ[cur] if not keys[nodes[c][0]][1]), None)
        if cur is None:
            raise StrategyUndefined("complying outcome left the complying region")
    comply_cycle = tuple(eg.game.vertices[keys[nodes[i][0]][0]] for i in list(pos)[pos[cur]:])
    comply_payoff = eg.game.payoff.value(frozenset(comply_cycle))
    if comply_payoff != tuple(p):
        violations.append(
            f"complying outcome pays {tuple(str(q) for q in comply_payoff)}, "
            f"expected {tuple(str(q) for q in p)}"
        )

    # Deviated product region: exact recurring-color-set analysis.
    colors, outcomes = eg.game.colors, eg.game.payoff.outcomes
    color = [colors.of[keys[eve_id][0]] for eve_id, _mem in nodes]
    deviated = [i for i in range(len(nodes)) if keys[nodes[i][0]][1]]
    dev_ids = {i: n for n, i in enumerate(deviated)}
    sub_adj = [
        [dev_ids[t] for t in succ[i] if t in dev_ids] for i in deviated
    ]
    # Per suspect set, per payoff rule, the suspects its vector pays more than p.
    bad_by_dev: dict[DevKey, list[list[str]]] = {}
    for comp in strongly_connected_components(len(deviated), sub_adj):
        comp_nodes = [deviated[i] for i in comp]
        dev = suspects(keys[nodes[comp_nodes[0]][0]])
        bad = bad_by_dev.get(dev)
        if bad is None:
            bad = bad_by_dev[dev] = [[players[d] for d in dev if vec[d] > p[d]]
                                     for vec in outcomes]
        for cc, _witness in recurring_sets(comp_nodes, succ, color, colors.shared,
                                           lambda cc: bad[colors.rule[cc]]):
            rule = colors.rule[cc]
            verts = sorted(cls[0] for c, cls in enumerate(colors.classes)
                           if (cc & ~colors.shared) >> c & 1)
            violations.append(
                "recurring vertices "
                + "{" + ",".join(verts) + "}"
                + f" with suspects {{{','.join(_names(eg.game, dev))}}} pay "
                + f"({','.join(str(q) for q in outcomes[rule])})"
                + f" exceeding the bound for {{{','.join(bad[rule])}}}"
            )

    return ModelCheckReport(
        ok=not violations,
        complying_cycle=comply_cycle,
        complying_payoff=comply_payoff,
        violations=violations,
        product_nodes=len(nodes),
    )
