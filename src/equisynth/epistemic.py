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
suggested joint move (no suspects) or with a move function (suspects
present): one joint move per suspect, in the state's suspect order, so the
suspects' names are kept only in the Eve state.  Move functions must suggest
the same action to any player uninformed under both of two hypotheses.
Actions with the same successors share one Adam node, and there is nothing
left to merge once the actions are enumerated one per distinct (reach
tuple, complying target) pair: two different pairs differ at some target,
which either keeps a different set of surviving hypotheses or is the
complying target of one pair only, so their successor tuples differ.

An Adam node stores only its action (`adam_action[aid]`) and its successor
Eve ids in vertex order (`adam_succ[aid]`); the rest is derived.  The Adam
ids of one Eve state form a contiguous block, handed out in order, and
`eve_succ[eid]` is that range, so it gives each node's origin; a
successor's vertex is its Eve state's vertex.  The complying successor is
the one non-deviated successor: only the target of the suggested move at a
non-deviated state continues with no surviving hypothesis.  Every other
target, and every target of a deviated state, is a target because some
hypothesis reaches it, and that hypothesis survives there.

The build works on integers: a state's key is (vertex index, ((deviator
index, informed mask), ...)), with informed sets as player bitmasks, reach
sets as vertex bitmasks, and each player's direct observers as one
precomputed mask.  Per build, the `Encoding` keeps each vertex's move table
(every move's target and per-player reach masks, one mask per group of
moves that differ only in that player's action) and one options table per
(vertex, suspect, informed mask): a suspect's options depend on nothing
else of the state but the actions of the players it leaves uninformed, and
the table holds them as bitmasks over the vertex's moves.  Both are built on
first use, an options table in one pass over the move table, since the
enumeration reads all of it.  Both find groups of moves by index
arithmetic, not by comparing action tuples: move i is the mixed-radix
number whose digits are its actions' positions in the allowed lists, the
first player's the most significant, so the moves that differ only in
player a's action are the ones whose indices differ only in a's digit, a
run of indices spaced by the product of the later players' action counts.
Per expanded state the grown informed masks are computed once, and each
distinct reach tuple is found once, as a nonzero AND of its suspects'
option bitmasks.  A successor's key, its target and the grown masks of the
hypotheses that survive there, depends on nothing else of the state or the
action, so a view resolves keys through one table per grown-mask tuple,
shared by every state and action lookup with that tuple: informed masks
saturate within the graph's diameter, so few tuples serve many states.
The string `EveState` that solver, translation and reports read is made
once, when a new key is interned, and its `Situation`s once per (suspect,
informed mask) and encoding: states share equal situations.

The build `solve` uses is dominance-pruned (antichains for games of
imperfect information, De Wulf, Doyen, Henzinger and Raskin, CAV 2006).  At
a state with suspects, the successor at target t keeps exactly the
hypotheses j with t in reach[j], and every action of the state gives them
the same grown masks.  So if reach2[j] ⊆ reach1[j] for every j, each
successor (t, S2) of the second action has a successor (t, S1) of the
first with S2 ⊆ S1.  Fewer hypotheses only make Eve's objective easier:
she restricts her strategy from S1 to S2.  At a state without suspects
every player is a fresh hypothesis with the same grown mask under every
move, and the same holds at every target but the complying one, which
continues with no hypothesis.  So of two moves with the same complying
target the one with the smaller reach tuple is p-safe whenever the other
is, and both lead to the same complying successor.  Keeping only the
⊆-minimal reach tuples of each state with suspects, and of each complying
target of a state without, each with the full build's action, therefore
keeps every win region, verdict and lasso (every other tuple lies above a
kept one), and every strategy of the pruned game is one of the full game.
The Adam nodes a strategy picks have the same successors in both builds.

The pruned build also leaves *split* states unexpanded.  Two suspects of a
state are coupled when some player is uninformed under both: the
move-function rule ties exactly their moves.  The components are the
classes of the transitive closure of coupling, and a state with two or more
offers the product of its component states' actions (same vertex, one
component's hypotheses and masks).  Masks only grow, so components only
split, never merge: a play from a split state, cut down to a component, is
a play of that component's state while any of its hypotheses survives, and
a layer's condition bounds each surviving suspect, so a split state is won
iff each of its component states is (compositional synthesis of
conjunctions, Filiot, Jin and Raskin, ATVA 2010).  The pruned build interns
a split state's component states, which sit in smaller suspect sets,
instead of its successors (`EpistemicView.split`); `expand_split` expands
the split states after all.

`verify` builds neither: a finite-memory strategy is checked on its product
with the epistemic game, and only the reachable part of that product
matters.  `EpistemicView` makes only the states and Adam nodes that profile
rows and checks name (on-the-fly exploration, as in explicit-state model
checkers), and `Encoding.key_of_text` checks a row's key without a build.
A built game (`EpistemicGame`) is a view in which every reachable state has
been expanded, but for the split states of a pruned build, whose Adam nodes
it makes on demand as a view does: both intern states through one routine
under one state cap, and strategies, profile rows and checks read either
through the view's members.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import InvalidInput, StateCapExceeded
from .game import CommGraph, ConcurrentGame, Move

# A move function: its suspects' moves, in the state's suspect order.
DevFunction = tuple[Move, ...]
# A joint move at a state without suspects, a move function elsewhere.
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
    # The suspects in situation order, made once: every strategy step reads them.
    _deviators: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_deviators", tuple(s.deviator for s in self.situations))

    @property
    def deviated(self) -> bool:
        return bool(self.situations)

    def deviators(self) -> tuple[str, ...]:
        return self._deviators

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


def action_key(state: EveState, action: EveAction) -> str:
    """Canonical text key for an Eve action at `state`."""
    if state.deviated:
        return ";".join(f"{d}={','.join(m)}" for d, m in zip(state.deviators(), action))
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
# Integer encoding.

# The build's key for an Eve state: the vertex index and one
# (deviator index, informed mask) pair per hypothesis, in player order; bit b
# of a mask stands for the b-th player.
StateKey = tuple[int, tuple[tuple[int, int], ...]]


def _bits(mask: int):
    """Positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Encoding:
    """Integer view of a game and its communication graph: vertices and
    players by position, informed sets as player bitmasks and reach sets as
    vertex bitmasks."""

    def __init__(self, game: ConcurrentGame, graph: CommGraph):
        self.game = game
        index = game.player_index
        self.observers = tuple(
            sum(1 << index[b] for b in graph.informed_by[a]) for a in game.players
        )
        self._moves: dict[int, dict[Move, tuple[int, tuple[int, ...]]]] = {}
        self._move_lists: dict[int, list[Move]] = {}
        # Set by `build_reachable`: one encoding serves one build.
        self.pruned = False
        self._options: dict[tuple[int, int, int], list[tuple]] = {}
        self._situations: dict[tuple[int, int], Situation] = {}
        self._by_radius: Optional[list[tuple[tuple[str, tuple[int, int]], ...]]] = None

    def grow(self, mask: int) -> int:
        """The informed mask `mask` after one communication step."""
        grown = mask
        for b in _bits(mask):
            grown |= self.observers[b]
        return grown

    def moves(self, v: int) -> dict[Move, tuple[int, tuple[int, ...]]]:
        """Each allowed joint move at vertex `v`, in canonical order, mapped to
        its target and, per player d, the vertices d reaches by changing its
        own action in the move (the suggested action included).

        The moves that differ only in d's action form one group, and d's
        reach mask is the union of the group's targets.  Groups are found by
        the moves' indices (see the module docstring)."""
        table = self._moves.get(v)
        if table is None:
            game = self.game
            name = game.vertices[v]
            row, vidx = game.tab[name], game.vertex_index
            moves = list(game.moves(name))
            targets = [vidx[row[move]] for move in moves]
            bits = [1 << t for t in targets]
            # Per player, last first: `stride` is the product of the later
            # players' action counts.  A block of `stride * k` moves, k the
            # player's action count, holds k runs of `stride` moves, one per
            # action: the moves at the same offset in each run form one
            # group, and its reach mask, the OR of the runs' target bits,
            # fills that offset of every run.
            reach: list[list[int]] = []
            stride = 1
            for a in reversed(game.players):
                k = len(game.allow[name][a])
                block, col = stride * k, []
                for hi in range(0, len(moves), block):
                    masks = bits[hi:hi + stride]
                    for lo in range(hi + stride, hi + block, stride):
                        masks = list(map(int.__or__, masks, bits[lo:lo + stride]))
                    col += masks * k
                reach.append(col)
                stride = block
            reach.reverse()
            table = dict(zip(moves, zip(targets, zip(*reach))))
            self._moves[v] = table
            self._move_lists[v] = moves
        return table

    def move_list(self, v: int) -> list[Move]:
        """The moves of `moves(v)` in order: bit i of an `options` bitmask
        stands for the i-th."""
        self.moves(v)
        return self._move_lists[v]

    def options(self, v: int, d: int, m: int) -> list[tuple]:
        """Suspect `d`'s options at vertex `v` under informed mask `m`, as
        bitmasks over the moves of `move_list(v)`.  A move's read is the
        actions of the players `m` leaves uninformed, and the read's options
        are d's reach masks over its moves.

        One entry (x, eq, sub, strict, first) per reach mask x: `eq` holds
        the moves whose read has option x, and first[i] is the first move of
        move i's read that reaches x.  In a pruned build `sub` and `strict`
        hold the moves whose read has an option ⊆ x and ⊊ x; in a full build
        both are 0.  The entries are in the order the masks first appear,
        reads taken in canonical order.  One table per build and triple,
        made in one pass over the moves."""
        table = self._options.get((v, d, m))
        if table is None:
            game = self.game
            allow = game.allow[game.vertices[v]]
            # By the moves' numbering (see the module docstring), the moves of
            # one read are its lowest move (its base) plus the offsets the
            # informed players' actions span.
            bases = offsets = [0]
            stride = 1
            for a in reversed(range(len(game.players))):
                steps = range(0, stride * len(allow[game.players[a]]), stride)
                if m >> a & 1:
                    offsets = [s + o for s in steps for o in offsets]
                else:
                    bases = [s + b for s in steps for b in bases]
                stride *= len(allow[game.players[a]])
            reach = [r[d] for _t, r in self.moves(v).values()]
            span = sum(1 << o for o in offsets)
            eqs: dict[int, int] = {}
            firsts: dict[int, list[int]] = {}
            for b in bases:
                opts: dict[int, int] = {}
                for o in offsets:
                    opts.setdefault(reach[b + o], b + o)
                for x, i in opts.items():
                    if x not in eqs:
                        eqs[x], firsts[x] = 0, [i] * stride
                    eqs[x] |= span << b
                    first = firsts[x]
                    for o in offsets:
                        first[b + o] = i
            entries = []
            for x, eq in eqs.items():
                sub = strict = 0
                for y, eq_y in eqs.items() if self.pruned else ():
                    if y & ~x == 0:
                        sub |= eq_y
                        strict |= 0 if y == x else eq_y
                entries.append((x, eq, sub, strict, firsts[x]))
            table = self._options[v, d, m] = entries
        return table

    def state(self, key: StateKey) -> EveState:
        v, pairs = key
        players, situations = self.game.players, self._situations
        for d, m in pairs:
            if (d, m) not in situations:
                situations[d, m] = Situation(players[d], tuple(players[b] for b in _bits(m)))
        return EveState(self.game.vertices[v], tuple(map(situations.__getitem__, pairs)))

    def key_of_text(self, text: str) -> Optional[StateKey]:
        """The key whose `state_key` is `text`, if a reachable state can have
        it, else None: the game's vertex and suspects in canonical order, and
        informed masks that pass the distance characterization (every
        hypothesis began at the same step, so the masks are balls of one
        common radius around their suspects).  Names may contain separators:
        whole situation texts are matched, with backtracking."""
        for v, name in enumerate(self.game.vertices):
            if not text.startswith(name + "|"):
                continue
            rest = text[len(name) + 1:]
            if rest == "-":
                return v, ()
            for situations in self._situations_by_radius():
                pairs = _match_situations(rest, situations, 0)
                if pairs is not None:
                    return v, pairs
        return None

    def _situations_by_radius(self) -> list[tuple[tuple[str, tuple[int, int]], ...]]:
        """Per radius r from 1 until the balls stop growing, per player d:
        the text of d's situation informed of the ball of radius r (what r
        steps of `expand` make of a fresh hypothesis) and its (d, mask)."""
        if self._by_radius is None:
            players = self.game.players
            masks = tuple(1 << d for d in range(len(players)))
            self._by_radius = []
            while True:
                grown = tuple(map(self.grow, masks))
                if self._by_radius and grown == masks:
                    break
                masks = grown
                self._by_radius.append(tuple(
                    (f"{players[d]}:{','.join(players[b] for b in _bits(m))}", (d, m))
                    for d, m in enumerate(masks)
                ))
        return self._by_radius


def _match_situations(text: str, situations, first: int):
    """The (deviator, mask) pairs of `situations`, deviators from `first`
    on in increasing order, whose texts joined by ';' are `text`; None if
    there are none."""
    for d in range(first, len(situations)):
        own, pair = situations[d]
        if text == own:
            return (pair,)
        if text.startswith(own + ";"):
            tail = _match_situations(text[len(own) + 1:], situations, d + 1)
            if tail is not None:
                return (pair, *tail)
    return None


# ---------------------------------------------------------------------------
# Successors.


def expand(enc: Encoding, key: StateKey) -> tuple[tuple[int, int], ...]:
    """The hypotheses the successors of `key` continue: each deviator with
    its informed mask grown by one communication step.  At a non-deviated
    state every player is a fresh hypothesis informed only of itself, so one
    step informs exactly its direct observers."""
    return tuple((d, enc.grow(m))
                 for d, m in key[1] or [(i, 1 << i) for i in range(len(enc.observers))])


def components(enc: Encoding, key: StateKey) -> tuple[StateKey, ...]:
    """The component states of `key`, in the order of their first
    hypotheses, if its suspects fall into two or more components (see the
    module docstring), else ().  Two suspects are coupled iff the OR of
    their informed masks misses some player."""
    v, pairs = key
    everyone = (1 << len(enc.observers)) - 1
    union = 0
    for _d, m in pairs:
        union |= m
    if len(pairs) < 2 or union != everyone:  # one player uninformed under all
        return ()
    # per hypothesis j, the hypotheses coupled with j, as a bitmask
    coupled = [sum(1 << i for i, (_d2, m2) in enumerate(pairs) if m | m2 != everyone)
               for _d, m in pairs]
    parts = []
    left = (1 << len(pairs)) - 1
    while left:
        part, grown = 0, left & -left
        while grown != part:
            part = grown
            for j in _bits(part):
                grown |= coupled[j]
        parts.append(part)
        left &= ~part
    if len(parts) < 2:
        return ()
    return tuple((v, tuple(pairs[j] for j in _bits(part))) for part in parts)


def action_reach(enc: Encoding, key: StateKey, action: EveAction):
    """(reach masks, complying target or -1) of an action at `key`: a joint
    move at a non-deviated state, else a move function in hypothesis order.

    Raises InvalidInput unless the action is enabled: every move is allowed
    (a key of the move table), the move function has one move per suspect,
    and two hypotheses give the same action to every player informed of
    neither."""
    v, pairs = key
    table = enc.moves(v)
    players = enc.game.players

    def allowed(move):
        if move not in table:
            raise InvalidInput(f"move {move!r} not allowed at {enc.game.vertices[v]!r}")
        return table[move]

    if not pairs:
        comply, reach = allowed(action)
        return reach, comply
    if len(action) != len(pairs):
        raise InvalidInput(
            f"move function has {len(action)} moves for {len(pairs)} tracked suspects")
    reach = tuple(allowed(move)[1][d] for (d, _m), move in zip(pairs, action))
    for i, (d, m) in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            d2, m2 = pairs[j]
            for a in range(len(players)):
                if not (m | m2) >> a & 1 and action[i][a] != action[j][a]:
                    raise InvalidInput(
                        f"components for {players[a]!r} differ between hypotheses "
                        f"{players[d]!r} and {players[d2]!r} though both leave it uninformed"
                    )
    return reach, -1


def successors(enc: Encoding, grown, reach, comply: int, resolve, memo=None):
    """Successors, in vertex order, of a state whose hypotheses (`grown`,
    from `expand`) continue to the vertex masks `reach`: resolve(successor
    key) per target.

    A target keeps the hypotheses that reach it, with their grown masks.
    `comply`, the vertex index the suggested move leads to at a non-deviated
    state (-1 elsewhere), is followed by the non-deviated state, since no
    deviation that ends there is visible.  `memo` maps the slot `target +
    |V| * survivor mask` to the resolved successor.  Survivor mask 0 occurs
    only at the complying target, whose successor is `(target, ())` from
    any state, so the key depends only on `grown` and the slot, and one
    memo may serve every call with equal `grown`.  A resolve that raises
    stores nothing."""
    if memo is None:
        memo = {}
    nv = len(enc.game.vertices)
    union = 0
    for r in reach:
        union |= r
    out = []
    while union:
        bit = union & -union
        union ^= bit
        t = bit.bit_length() - 1
        survivors = 0
        if t != comply:
            for j, r in enumerate(reach):
                if r & bit:
                    survivors |= 1 << j
        slot = t + nv * survivors
        sid = memo.get(slot)
        if sid is None:
            sid = memo[slot] = resolve((t, tuple(grown[j] for j in _bits(survivors))))
        out.append(sid)
    return tuple(out)


# ---------------------------------------------------------------------------
# Enabled Eve actions.


def _distinct_actions(enc: Encoding, key: StateKey):
    """Eve's enabled actions at the state `key`, the first of each distinct
    reach tuple (and complying target) in enumeration order, each as
    (action, reach masks in hypothesis order, complying target or -1).

    With suspects present, a move function is one move per suspect, and two
    suspects' moves agree on every player uninformed under both: they share
    one choice of those players' actions.  A suspect's options depend only on
    the vertex, its informed mask and the actions of the players it leaves
    uninformed, so they come from the build's table for that triple
    (`Encoding.options`), as bitmasks over the vertex's moves.  A reach tuple
    exists iff some move's reads have every suspect's option, that is iff
    the AND of the options' `eq` masks is not 0.  Its lowest move is the
    first shared choice that yields it, its action the suspects' first moves
    there, and sorting by those moves gives the enumeration order: shared
    choices in canonical order, then each suspect's options in read order.

    A pruned build keeps only the ⊆-minimal reach tuples.  Some tuple lies
    strictly within x iff a move's reads have, for every suspect j, an option
    ⊆ x_j and, for some j, one ⊊ x_j: iff AND_j sub & OR_j strict is not 0.
    A dropped tuple is dominated by a kept one (see the module docstring).
    Without suspects a pruned build keeps, per complying target, only the
    ⊆-minimal reach tuples of the moves leading there: every target keeps a
    move, and the lasso reads only the complying targets."""
    v, pairs = key
    if not pairs:
        distinct: dict[tuple[int, tuple[int, ...]], Move] = {}
        for move, (target, reach) in enc.moves(v).items():
            distinct.setdefault((target, reach), move)
        by_target: dict[int, list[tuple[int, ...]]] = {}
        for target, reach in distinct if enc.pruned else ():
            by_target.setdefault(target, []).append(reach)
        for (target, reach), move in distinct.items():
            if not any(other != reach and all(o & ~r == 0 for o, r in zip(other, reach))
                       for other in by_target.get(target, ())):
                yield move, reach, target
        return
    # (the moves where every suspect so far has its option and none a
    # strictly smaller one, AND of sub, OR of strict, masks, first moves) per
    # partial tuple.  A branch ends once `live` is 0: each of its tuples
    # would be dropped.  A kept tuple's `live` is the AND of its `eq` masks,
    # since a common move with a strictly smaller option would drop it.
    rows = [(-1, -1, 0, (), ())]
    tables = [enc.options(v, d, m) for d, m in pairs]
    for entries in tables[:-1]:
        rows = [(live, sub_all & sub, strict_any | strict, xs + (x,), firsts + (first,))
                for was_live, sub_all, strict_any, xs, firsts in rows
                for x, eq, sub, strict, first in entries
                if (live := was_live & eq & ~strict)]
    # (lowest move, the first moves there of all suspects but the last, the
    # last one's, reach tuple) per kept tuple
    found = []
    for was_live, sub_all, strict_any, xs, firsts in rows:
        for x, eq, sub, strict, first in tables[-1]:
            if (live := was_live & eq & ~strict) and not sub_all & sub & (strict_any | strict):
                mu = (live & -live).bit_length() - 1
                found.append((mu, [f[mu] for f in firsts], first[mu], xs + (x,)))
    found.sort()
    moves = enc.move_list(v)
    for _mu, picks, pick, xs in found:
        yield (*[moves[i] for i in picks], moves[pick]), xs, -1


# ---------------------------------------------------------------------------
# The epistemic game: read on demand, or built whole.

# Default cap on the Eve states of one build or `EpistemicView` (`--state-cap`).
STATE_CAP = 1_000_000


class EpistemicView:
    """The part of the full epistemic game that is read, made as it is read.
    Its members are all that strategies, profile rows and checks read of an
    epistemic game, built (`EpistemicGame`) or not.

    An Eve state is interned when a profile row names its key
    (`eve_for_key`) or an action resolved to an Adam node
    (`adam_for_action`) leads to it; no state is expanded, so `eve_succ`
    stays empty.  Ids follow that order, not a full build's, but each key
    has one Eve id, each successor tuple of a state one Adam id (keeping the
    first action resolved to it), and every successor tuple is the full
    game's.  `state_cap` bounds the Eve states interned."""

    # Names the stage in the `StateCapExceeded` message.
    _stage = "on-demand epistemic game"

    def __init__(self, game: ConcurrentGame, graph: CommGraph, state_cap: int = STATE_CAP):
        if tuple(graph.players) != tuple(game.players):
            raise InvalidInput("comm graph players must match game players")
        self.game = game
        self.graph = graph
        self.eve_states: list[EveState] = []
        self.eve_succ: list[range] = []  # expanded Eve id -> its block of Adam ids
        self.adam_action: list[EveAction] = []  # Adam id -> the action producing it
        # Adam id -> successor Eve ids, in vertex order
        self.adam_succ: list[tuple[int, ...]] = []
        # Unexpanded split Eve id -> its component states' Eve ids: filled in
        # only by a pruned build, which interns a state's components with it.
        self.split: dict[int, tuple[int, ...]] = {}
        self._splits = False
        self._encoding = Encoding(game, graph)
        self._state_cap = state_cap
        self._keys: list[StateKey] = []
        self._key_index: dict[StateKey, int] = {}
        self._adam_index: dict[tuple[int, tuple[int, ...]], int] = {}
        # Grown-mask tuple -> its successor memo (see `successors`); what is
        # made on demand resolves through `_on_demand`, here the same tables.
        self._tables: dict[tuple[tuple[int, int], ...], dict[int, int]] = {}
        self._on_demand = self._tables
        self.init = self._intern((game.vertex_index[game.init_vertex], ()))

    def _intern(self, key: StateKey) -> int:
        i = self._key_index.get(key)
        if i is None:
            if len(self._keys) >= self._state_cap:
                raise StateCapExceeded(
                    f"{self._stage} exceeded {self._state_cap} Eve states: "
                    f"{len(self._keys)} states interned, {len(self.eve_succ)} states "
                    f"expanded, {len(self.adam_succ)} Adam nodes made"
                )
            i = self._key_index[key] = len(self._keys)
            self._keys.append(key)
            self.eve_states.append(self._encoding.state(key))
            if self._splits and len(key[1]) > 1:
                parts = components(self._encoding, key)
                if parts:
                    self.split[i] = tuple(map(self._intern, parts))
        return i

    def eve_count(self) -> int:
        return len(self.eve_states)

    def adam_count(self) -> int:
        return len(self.adam_succ)

    def deviated_ids(self) -> list[int]:
        return [i for i, s in enumerate(self.eve_states) if s.deviated]

    def eve_for_key(self, text: str) -> Optional[int]:
        """The Eve id of the state whose `state_key` is `text`, interned on
        first use, or None if no reachable state can have that key."""
        key = self._encoding.key_of_text(text)
        return None if key is None else self._intern(key)

    def adam_for_action(self, eve_id: int, action: EveAction) -> int:
        """The Adam node an enabled action of `eve_id` leads to, made on
        first use.  An action that is not enabled there raises InvalidInput
        (see `action_reach`)."""
        enc, key = self._encoding, self._keys[eve_id]
        grown = expand(enc, key)
        sig = successors(enc, grown, *action_reach(enc, key, action), self._intern,
                         self._on_demand.setdefault(grown, {}))
        aid = self._adam_index.get((eve_id, sig))
        if aid is None:
            aid = self._adam_index[eve_id, sig] = len(self.adam_succ)
            self.adam_action.append(action)
            self.adam_succ.append(sig)
        return aid


class EpistemicGame(EpistemicView):
    """The reachable epistemic game: a view in which `build_reachable` has
    expanded every state but the split states of a pruned build (`split`),
    so `eve_succ[eid]` is the block of Adam ids of every Eve id it made,
    empty at a split state.  Queries never grow what it expanded: a key or
    a successor the build did not reach from there is not in it.  At the
    states it did not expand, `adam_for_action` makes Adam nodes and states
    on demand, as a view does, with ids after the `built` ones."""

    _stage = "epistemic build"

    def __init__(self, game: ConcurrentGame, graph: CommGraph, state_cap: int = STATE_CAP):
        super().__init__(game, graph, state_cap)
        self.built = (0, 0)  # (Eve states, Adam nodes) the build made
        self._on_demand = {}  # apart from the build's, so `expand_split` can drop it

    def _grow(self, redo: list[int]) -> None:
        """Make the Adam nodes of the states `redo`, from its end, and then
        expand the interned states from `len(eve_succ)` on, in id order,
        each successor interned as it is met; a split state gets an empty
        block."""
        enc, keys, tables, intern = self._encoding, self._keys, self._tables, self._intern
        eve_succ, split, adam_action, adam_succ = (
            self.eve_succ, self.split, self.adam_action, self.adam_succ)
        while redo or len(eve_succ) < len(keys):
            e = redo.pop() if redo else len(eve_succ)
            first = len(adam_succ)
            if e not in split:
                key = keys[e]
                grown = expand(enc, key)
                memo = tables.setdefault(grown, {})
                for action, reach, comply in _distinct_actions(enc, key):
                    adam_action.append(action)
                    adam_succ.append(successors(enc, grown, reach, comply, intern, memo))
            if e < len(eve_succ):
                eve_succ[e] = range(first, len(adam_succ))
            else:
                eve_succ.append(range(first, len(adam_succ)))
        self.built = (len(keys), len(adam_succ))

    def expand_split(self) -> None:
        """Expand every split state after all, and every new state that
        leads to, so that no state is left unexpanded.  What was made on
        demand is dropped first, so a strategy made on this game before may
        name ids that no longer hold; each split state keeps its id, and its
        block of Adam ids follows the build's."""
        eves, adams = self.built
        for key in self._keys[eves:]:
            del self._key_index[key]
        del self._keys[eves:], self.eve_states[eves:]
        del self.adam_action[adams:], self.adam_succ[adams:]
        self._adam_index.clear()
        self._on_demand.clear()
        split, self.split, self._splits = self.split, {}, False
        self._grow(sorted((e for e in split if e < eves), reverse=True))

    def eve_for_key(self, text: str) -> Optional[int]:
        """The Eve id of the state whose `state_key` is `text`, or None."""
        return self._key_index.get(self._encoding.key_of_text(text))

    def adam_for_action(self, eve_id: int, action: EveAction) -> int:
        """Resolve any enabled action to the Adam node of `eve_id` with the
        same successors, looked up by its successor signature within the
        state's range of Adam ids, or at a state the build did not expand
        made on demand.  An action that is not enabled there raises
        InvalidInput (see `action_reach`), and so does one of an expanded
        state whose successors the build did not make."""
        if eve_id in self.split or eve_id >= len(self.eve_succ):
            return super().adam_for_action(eve_id, action)
        enc, key = self._encoding, self._keys[eve_id]

        def resolve(successor: StateKey) -> int:
            sid = self._key_index.get(successor)
            if sid is None:
                raise InvalidInput("successor state not present in the built game")
            return sid

        grown = expand(enc, key)
        sig = successors(enc, grown, *action_reach(enc, key, action), resolve,
                         self._tables.setdefault(grown, {}))
        ids = self.eve_succ[eve_id]
        try:
            return self.adam_succ.index(sig, ids.start, ids.stop)
        except ValueError:
            state = self.eve_states[eve_id]
            raise InvalidInput(
                f"action {action_key(state, action)} at {state_key(state)} "
                "resolves to an unknown successor signature"
            ) from None

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


def build_reachable(
    game: ConcurrentGame,
    graph: CommGraph,
    state_cap: int = STATE_CAP,
    *,
    pruned: bool = False,
) -> EpistemicGame:
    """Breadth-first construction of the reachable epistemic game: the view
    of the initial state, whose states are expanded in id order, each
    successor interned as it is met.

    Each action `_distinct_actions` yields at a state becomes one Adam
    node, which keeps that action.  No two of them share a successor tuple
    (see the module docstring), so nothing is merged, and the nodes of one
    state get consecutive ids.

    `pruned` builds the dominance-pruned game `solve` uses, which leaves
    split states unexpanded and interns their component states instead (see
    the module docstring for why both are exact); states reached only
    through dropped actions or split states are never built.  The full game
    is the paper's construction, which `build` reports; `verify` reads only
    its part a profile reaches (`EpistemicView`).
    """
    eg = EpistemicGame(game, graph, state_cap)
    eg._encoding.pruned = eg._splits = pruned
    eg._grow([])
    return eg


# ---------------------------------------------------------------------------
# Whole-game checks.


def check_knowledge_invariant(eg: EpistemicView) -> list[str]:
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
    for eid, state in enumerate(eg.eve_states):
        if state.deviated:
            continue
        for aid in eg.eve_succ[eid]:
            for sid in eg.adam_succ[aid]:
                if eg.eve_states[sid].deviated and 1 not in dev_steps[sid]:
                    dev_steps[sid].add(1)
                    queue.append((sid, 1))
    qi = 0
    while qi < len(queue):
        eid, step = queue[qi]
        qi += 1
        nxt = min(step + 1, cap)
        for aid in eg.eve_succ[eid]:
            for sid in eg.adam_succ[aid]:
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
