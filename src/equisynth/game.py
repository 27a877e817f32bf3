"""Core model: concurrent games, communication graphs, payoffs, histories.

All players pick an action simultaneously; the joint move (one action per
player, in player order) drives the arena deterministically to the next
vertex.  A directed communication graph over the players fixes what each
player observes: the actions and messages of its in-neighbours (every player
observes itself).  Payoffs are exact rationals computed from the set of
vertices visited infinitely often through an ordered first-match rule list.

Everything here is immutable once constructed and safe to share.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterator, Mapping, Optional

from .errors import InvalidInput

# A move is one action per player, aligned with the game's player order.
Move = tuple[str, ...]


def substitute(move: Move, index: int, action: str) -> Move:
    """Return `move` with the component at `index` replaced by `action`."""
    if move[index] == action:
        return move
    return move[:index] + (action,) + move[index + 1 :]


# ---------------------------------------------------------------------------
# Payoff conditions: boolean formulas over "visited infinitely often" atoms.


@dataclass(frozen=True)
class InfAtom:
    vertex: str

    def holds(self, inf: frozenset[str]) -> bool:
        return self.vertex in inf

    def text(self) -> str:
        return f"inf({self.vertex})"

    def atoms(self) -> frozenset[str]:
        return frozenset((self.vertex,))


@dataclass(frozen=True)
class Not:
    operand: "Condition"

    def holds(self, inf: frozenset[str]) -> bool:
        return not self.operand.holds(inf)

    def text(self) -> str:
        return f"!{self.operand.text()}"

    def atoms(self) -> frozenset[str]:
        return self.operand.atoms()


@dataclass(frozen=True, init=False)
class _Chain:
    """A chain of one connective over its operands, leftmost first; `_op`
    is its text between the operands.  A first operand of the same
    connective is absorbed, so `(a & b) & c` is the chain a, b, c and
    equals `a & b & c`, while `a & (b & c)` is the chain a, (b & c).  The
    operands are stored flat, so no method recurses along a chain."""

    operands: tuple["Condition", ...]
    _op = ""

    def __init__(self, first: "Condition", *rest: "Condition"):
        head = first.operands if type(first) is type(self) else (first,)
        object.__setattr__(self, "operands", head + rest)

    def text(self) -> str:
        first, *rest = self.operands
        return "(" * len(rest) + first.text() + "".join(
            f" {self._op} {c.text()})" for c in rest)

    def atoms(self) -> frozenset[str]:
        return frozenset().union(*(c.atoms() for c in self.operands))


class And(_Chain):
    _op = "&"

    def holds(self, inf: frozenset[str]) -> bool:
        return all(c.holds(inf) for c in self.operands)


class Or(_Chain):
    _op = "|"

    def holds(self, inf: frozenset[str]) -> bool:
        return any(c.holds(inf) for c in self.operands)


Condition = InfAtom | Not | And | Or


@dataclass(frozen=True)
class PayoffRule:
    condition: Condition
    vector: tuple[Fraction, ...]


@dataclass(frozen=True)
class PayoffSpec:
    """Ordered first-match rules mapping an Inf set to a payoff vector.

    The first rule whose condition holds decides the vector; if none does,
    `default` applies.  Vectors are indexed by player order.
    """

    rules: tuple[PayoffRule, ...]
    default: tuple[Fraction, ...]

    @cached_property
    def outcomes(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rules' vectors and then the default, indexed by `first_match`."""
        return tuple(rule.vector for rule in self.rules) + (self.default,)

    def first_match(self, inf) -> int:
        """Index of the rule that decides `inf`; len(rules) for the default."""
        inf = frozenset(inf)
        for k, rule in enumerate(self.rules):
            if rule.condition.holds(inf):
                return k
        return len(self.rules)

    def value(self, inf) -> tuple[Fraction, ...]:
        return self.outcomes[self.first_match(inf)]

    def atoms(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for rule in self.rules:
            out |= rule.condition.atoms()
        return out

    def vectors(self) -> list[tuple[Fraction, ...]]:
        """Distinct achievable-by-rule vectors, rule order first, default last."""
        return list(dict.fromkeys(self.outcomes))


@dataclass(frozen=True)
class Colors:
    """The vertices split so that the payoff depends only on which parts
    recur: each payoff atom is a color of its own and every other vertex
    shares one color.  Colors are numbered by their first vertex and a set
    of colors is a bitmask.  `rule[mask]` is the index of the payoff rule
    that decides the set (`PayoffSpec.first_match`), and `shared` is the
    bitmask of the shared color (0 if every vertex is an atom)."""

    classes: tuple[tuple[str, ...], ...]  # color -> its vertices
    of: tuple[int, ...]  # vertex index -> color
    rule: tuple[int, ...]
    shared: int


# ---------------------------------------------------------------------------
# Communication graphs.


@dataclass(frozen=True)
class CommGraph:
    """Directed communication graph over the players of a game.

    An edge (a, b) lets b observe a's actions and messages.  Every player
    observes itself (reflexive closure is implicit; self-loop edges are
    rejected as input).
    """

    players: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        known = set(self.players)
        for a, b in self.edges:
            if a == b:
                raise InvalidInput(f"self-loop edge ({a}, {b}) not allowed")
            if a not in known or b not in known:
                raise InvalidInput(f"edge ({a}, {b}) mentions unknown player")

    @cached_property
    def vois(self) -> dict[str, tuple[str, ...]]:
        """vois[b]: players whose actions/messages b observes (incl. b)."""
        incoming: dict[str, set[str]] = {b: {b} for b in self.players}
        for a, b in self.edges:
            incoming[b].add(a)
        return {
            b: tuple(sorted(s, key=self.players.index)) for b, s in incoming.items()
        }

    @cached_property
    def informed_by(self) -> dict[str, tuple[str, ...]]:
        """informed_by[d]: players who observe d directly (incl. d itself)."""
        out: dict[str, set[str]] = {d: {d} for d in self.players}
        for a, b in self.edges:
            out[a].add(b)
        return {d: tuple(sorted(s, key=self.players.index)) for d, s in out.items()}

    @cached_property
    def dist(self) -> dict[tuple[str, str], float]:
        """Directed hop distance between all player pairs; math.inf if unreachable."""
        table: dict[tuple[str, str], float] = {}
        for src in self.players:
            dist = {src: 0}
            queue = deque([src])
            while queue:
                cur = queue.popleft()
                for nxt in self.informed_by[cur]:
                    if nxt not in dist:
                        dist[nxt] = dist[cur] + 1
                        queue.append(nxt)
            for dst in self.players:
                table[(src, dst)] = dist.get(dst, math.inf)
        return table

    @cached_property
    def diameter(self) -> int:
        """Largest finite pairwise distance (0 for an edgeless graph)."""
        finite = [d for d in self.dist.values() if d != math.inf]
        return int(max(finite)) if finite else 0


# ---------------------------------------------------------------------------
# Concurrent games.


@dataclass(frozen=True, eq=True)
class ConcurrentGame:
    """Finite concurrent multiplayer game arena with a payoff specification.

    `allow[v][a]` lists the actions player a may use at vertex v (nonempty);
    `tab[v][m]` is defined for exactly the allowed joint moves at v, making
    the arena non-blocking and deterministic.
    """

    vertices: tuple[str, ...]
    init_vertex: str
    players: tuple[str, ...]
    actions: tuple[str, ...]
    allow: Mapping[str, Mapping[str, tuple[str, ...]]]
    tab: Mapping[str, Mapping[Move, str]]
    payoff: PayoffSpec

    @cached_property
    def player_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.players)}

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def colors(self) -> Colors:
        """The game's color partition; the payoff rule deciding each set of
        colors is found once per game."""
        atoms = self.payoff.atoms()
        rest = tuple(v for v in self.vertices if v not in atoms)
        classes = [(v,) for v in self.vertices if v in atoms] + ([rest] if rest else [])
        classes.sort(key=lambda cls: self.vertex_index[cls[0]])
        color = {v: c for c, cls in enumerate(classes) for v in cls}
        union = [frozenset()]  # bitmask -> vertices of those colors
        for mask in range(1, 1 << len(classes)):
            low = mask & -mask
            union.append(union[mask ^ low] | frozenset(classes[low.bit_length() - 1]))
        rule = tuple(map(self.payoff.first_match, union))
        return Colors(tuple(classes), tuple(map(color.__getitem__, self.vertices)), rule,
                      1 << color[rest[0]] if rest else 0)

    @cached_property
    def action_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.actions)}

    def moves(self, vertex: str) -> Iterator[Move]:
        """All allowed joint moves at `vertex`, in canonical action order."""
        return product(*(self.allow[vertex][a] for a in self.players))

    def successor(self, vertex: str, move: Move) -> str:
        return self.tab[vertex][move]

    def move_count(self, vertex: str) -> int:
        n = 1
        for a in self.players:
            n *= len(self.allow[vertex][a])
        return n

    def tab_size(self) -> int:
        """Total number of transition-table entries across vertices."""
        return sum(len(self.tab[v]) for v in self.vertices)

    def validate(self) -> None:
        """`validate_declarations` and a walk over the allow and transition
        tables, for games built in code."""
        self.validate_declarations()
        for v in self.vertices:
            if v not in self.allow or v not in self.tab:
                raise InvalidInput(f"vertex {v!r} lacks allow/tab entries")
            for a in self.players:
                acts = self.allow[v].get(a, ())
                if not acts:
                    raise InvalidInput(f"allow({v!r}, {a!r}) is empty")
                for act in acts:
                    if act not in self.action_index:
                        raise InvalidInput(
                            f"allow({v!r}, {a!r}) uses unknown action {act!r}"
                        )
            expected = set(self.moves(v))
            got = set(self.tab[v])
            if expected != got:
                missing = sorted(expected - got)
                extra = sorted(got - expected)
                raise InvalidInput(
                    f"tab at {v!r} does not match allowed moves "
                    f"(missing {missing[:3]}, extra {extra[:3]})"
                )
            for m, target in self.tab[v].items():
                if target not in self.allow:
                    raise InvalidInput(f"tab({v!r}, {m}) -> unknown vertex {target!r}")

    def validate_declarations(self) -> None:
        """Distinct nonempty name lists, a known init vertex, and payoff
        vectors of the players' arity whose atoms are vertices."""
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidInput("duplicate vertex ids")
        if len(set(self.players)) != len(self.players):
            raise InvalidInput("duplicate player ids")
        if len(set(self.actions)) != len(self.actions):
            raise InvalidInput("duplicate action ids")
        if self.init_vertex not in self.vertices:
            raise InvalidInput(f"init vertex {self.init_vertex!r} unknown")
        if not self.players or not self.actions or not self.vertices:
            raise InvalidInput("players, actions and vertices must be nonempty")
        n = len(self.players)
        for rule in self.payoff.rules:
            if len(rule.vector) != n:
                raise InvalidInput("payoff rule vector arity mismatch")
            for atom in rule.condition.atoms():
                if atom not in self.vertex_index:
                    raise InvalidInput(f"payoff condition uses unknown vertex {atom!r}")
        if len(self.payoff.default) != n:
            raise InvalidInput("payoff default vector arity mismatch")


# ---------------------------------------------------------------------------
# Histories.

# A message is either None (silence) or the id of the blamed player.
Message = Optional[str]


@dataclass(frozen=True)
class FullHistory:
    """A finite play: vertices interleaved with (move, message-vector) steps."""

    vertices: tuple[str, ...]
    moves: tuple[Move, ...]
    messages: tuple[tuple[Message, ...], ...]

    def __post_init__(self):
        if len(self.vertices) != len(self.moves) + 1:
            raise InvalidInput("history needs exactly one more vertex than steps")
        if len(self.moves) != len(self.messages):
            raise InvalidInput("one message vector per move required")
