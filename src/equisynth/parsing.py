"""Input formats: game files, communication graphs, payoff conditions and
winning-query predicates.

Game file (JSON):
    {
      "players": [...], "actions": [...], "vertices": [...], "init": "v0",
      "allow": {vertex: {player: [actions]}},          # omitted -> all actions
      "transitions": {vertex: [{"pattern": ..., "to": vertex}, ...]},
      "payoff": {"rules": [{"if": expr, "then": [q, ...]}, ...],
                 "default": [q, ...]}
    }

A transition pattern is "*" (catch-all) or an object player -> action |
[actions] | "*"; omitted players are wildcards.  Entries are ordered and the
first match wins; the last entry of every vertex must be a catch-all.
Rationals are JSON numbers or strings like "3/2".

Comm graph file (JSON): {"edges": [[from, to], ...]}.

Winning queries are boolean formulas over comparisons `p[i] <= 3/2` (ops
=, !=, <=, >=, <, >) and exact vector equality `p = (0, 0, 1, 1, 1)`,
combined with &, | and !.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

from .errors import InvalidInput, rejects_malformed
from .game import (
    And,
    CommGraph,
    ConcurrentGame,
    Condition,
    InfAtom,
    Move,
    Not,
    Or,
    PayoffRule,
    PayoffSpec,
)

# ---------------------------------------------------------------------------
# Small shared tokenizer for the two expression languages.

# Two-character operators must come first: matching runs in declared order.
_PUNCT = ("<=", ">=", "!=", "(", ")", "&", "|", "!", "[", "]", ",", "<", ">", "=")


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(p)
                i += len(p)
                break
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'./-"):
                j += 1
            if j == i:
                raise InvalidInput(f"unexpected character {c!r} in expression {text!r}")
            tokens.append(text[i:j])
            i = j
    return tokens


# The deepest nesting of parentheses and negations an expression may have.
# The parser recurses once per level, so a fixed bound keeps it far below
# the interpreter's recursion limit.
MAX_NESTING = 100


class _TokenStream:
    def __init__(self, tokens: list[str], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise InvalidInput(f"unexpected end of expression in {self.source!r}")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise InvalidInput(f"expected {tok!r} but found {got!r} in {self.source!r}")

    def done(self) -> None:
        if self.pos != len(self.tokens):
            raise InvalidInput(
                f"trailing tokens {self.tokens[self.pos:]} in {self.source!r}"
            )


def _parse_or(ts: _TokenStream, atom_parser):
    operands = [_parse_and(ts, atom_parser)]
    while ts.peek() == "|":
        ts.next()
        operands.append(_parse_and(ts, atom_parser))
    return Or(*operands) if len(operands) > 1 else operands[0]


def _parse_and(ts: _TokenStream, atom_parser):
    operands = [_parse_unary(ts, atom_parser)]
    while ts.peek() == "&":
        ts.next()
        operands.append(_parse_unary(ts, atom_parser))
    return And(*operands) if len(operands) > 1 else operands[0]


def _parse_unary(ts: _TokenStream, atom_parser):
    tok = ts.peek()
    if tok not in ("!", "("):
        return atom_parser(ts)
    ts.next()
    ts.depth += 1
    if ts.depth > MAX_NESTING:
        raise InvalidInput(
            f"expression nests parentheses and negations deeper than {MAX_NESTING} levels")
    if tok == "!":
        node = Not(_parse_unary(ts, atom_parser))
    else:
        node = _parse_or(ts, atom_parser)
        ts.expect(")")
    ts.depth -= 1
    return node


# ---------------------------------------------------------------------------
# Payoff conditions: atoms are inf(vertex).


def _parse_inf_atom(ts: _TokenStream) -> Condition:
    tok = ts.next()
    if tok != "inf":
        raise InvalidInput(f"expected inf(...) atom, found {tok!r} in {ts.source!r}")
    ts.expect("(")
    vertex = ts.next()
    ts.expect(")")
    return InfAtom(vertex)


def parse_condition(text: str) -> Condition:
    ts = _TokenStream(_tokenize(text), text)
    node = _parse_or(ts, _parse_inf_atom)
    ts.done()
    return node


# ---------------------------------------------------------------------------
# Winning queries over payoff vectors.


@dataclass(frozen=True)
class Comparison:
    index: int
    op: str
    bound: Fraction

    _OPS = {
        "=": lambda x, y: x == y,
        "!=": lambda x, y: x != y,
        "<=": lambda x, y: x <= y,
        ">=": lambda x, y: x >= y,
        "<": lambda x, y: x < y,
        ">": lambda x, y: x > y,
    }

    def check_arity(self, players: int) -> None:
        if self.index >= players:
            raise InvalidInput(f"predicate index p[{self.index}] out of range")

    def holds(self, vector: tuple[Fraction, ...]) -> bool:
        self.check_arity(len(vector))
        return self._OPS[self.op](vector[self.index], self.bound)


@dataclass(frozen=True)
class VectorEquality:
    vector: tuple[Fraction, ...]

    def check_arity(self, players: int) -> None:
        if players != len(self.vector):
            raise InvalidInput("predicate vector arity mismatch")

    def holds(self, vector: tuple[Fraction, ...]) -> bool:
        self.check_arity(len(vector))
        return vector == self.vector


@dataclass(frozen=True)
class WinningQuery:
    """A boolean formula deciding which payoff vectors are of interest."""

    root: object

    def matches(self, vector: tuple[Fraction, ...]) -> bool:
        return self.root.holds(tuple(vector))

    def check_arity(self, players: int) -> None:
        """Raise InvalidInput unless every atom, left to right, fits payoff
        vectors of `players` components.  `matches` checks only the atoms
        that `&` and `|` do not cut short."""
        nodes = [self.root]
        while nodes:
            node = nodes.pop()
            if isinstance(node, Not):
                nodes.append(node.operand)
            elif isinstance(node, (And, Or)):
                nodes += reversed(node.operands)
            else:
                node.check_arity(players)


def parse_rational(token: str) -> Fraction:
    """`token` as a fraction.  `Fraction` also reads non-ASCII digits, and
    from Python 3.11 on `_` between digits, so those are refused first."""
    if not token.isascii() or "_" in token:
        raise InvalidInput(f"bad rational {token!r}")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"bad rational {token!r}") from exc


def _parse_query_atom(ts: _TokenStream):
    tok = ts.next()
    if tok != "p":
        raise InvalidInput(f"expected p[...] or p = (...), found {tok!r}")
    nxt = ts.next()
    if nxt == "[":
        idx_tok = ts.next()
        if not (idx_tok.isascii() and idx_tok.isdigit()):
            raise InvalidInput(f"bad component index {idx_tok!r}")
        ts.expect("]")
        op = ts.next()
        if op not in Comparison._OPS:
            raise InvalidInput(f"bad comparison operator {op!r}")
        return Comparison(int(idx_tok), op, parse_rational(ts.next()))
    if nxt == "=":
        ts.expect("(")
        values = [parse_rational(ts.next())]
        while ts.peek() == ",":
            ts.next()
            values.append(parse_rational(ts.next()))
        ts.expect(")")
        return VectorEquality(tuple(values))
    raise InvalidInput(f"expected '[' or '=' after p, found {nxt!r}")


def parse_query(text: str) -> WinningQuery:
    ts = _TokenStream(_tokenize(text), text)
    node = _parse_or(ts, _parse_query_atom)
    ts.done()
    return WinningQuery(node)


# ---------------------------------------------------------------------------
# Game files.


def _as_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise InvalidInput(f"bad rational {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise InvalidInput(
            f"float payoff {value!r} not accepted; use an int or a 'n/d' string"
        )
    raise InvalidInput(f"bad rational {value!r}")


def _json_list(value, what: str) -> list:
    """`value` if it is a JSON list; a string would read as its characters."""
    if not isinstance(value, list):
        raise InvalidInput(f"game file {what} must be a JSON list")
    return value


def _name(value, what: str) -> str:
    """`value` if it is a JSON string: `str()` would turn 0 into "0" and
    null into "None", so the game built would silently differ from the
    file."""
    if not isinstance(value, str):
        raise InvalidInput(f"{what} must be a JSON string, got {value!r}")
    return value


def _names(value, what: str) -> tuple[str, ...]:
    return tuple(_name(x, f"game file {what} entry") for x in _json_list(value, what))


def _known_keys(block: dict, names: tuple[str, ...], what: str, kind: str) -> None:
    """Reject a block keyed by a name the game does not declare: the game
    built from the file would silently differ from it."""
    unknown = sorted(set(block) - set(names))
    if unknown:
        raise InvalidInput(f"game file {what} names unknown {kind} {unknown[0]!r}")


def _is_catch_all(pattern) -> bool:
    if pattern == "*":
        return True
    if isinstance(pattern, dict):
        return all(v == "*" for v in pattern.values())
    return False


def _pattern_matcher(pattern, players, actions, allow_at, vertex):
    """Compile one pattern entry into the actions it matches per player, in
    the vertex's allowed order: the moves it matches are their product."""
    if pattern == "*":
        pattern = {}
    if not isinstance(pattern, dict):
        raise InvalidInput(f"bad pattern {pattern!r} at vertex {vertex!r}")
    for player in pattern:
        if player not in players:
            raise InvalidInput(f"pattern at {vertex!r} names unknown player {player!r}")
    sets = []
    for a in players:
        spec = pattern.get(a, "*")
        if spec == "*":
            sets.append(allow_at[a])
            continue
        opts = spec if isinstance(spec, list) else [spec]
        for act in opts:
            if act not in actions:
                raise InvalidInput(
                    f"pattern at {vertex!r} uses unknown action {act!r}"
                )
            if act not in allow_at[a]:
                raise InvalidInput(
                    f"pattern at {vertex!r} uses action {act!r} not allowed for {a!r}"
                )
        sets.append(tuple(act for act in allow_at[a] if act in opts))
    return sets


@rejects_malformed("game file")
def game_from_dict(data: dict) -> ConcurrentGame:
    for key in ("players", "actions", "vertices", "init", "transitions", "payoff"):
        if key not in data:
            raise InvalidInput(f"game file missing {key!r}")
    players = _names(data["players"], "'players'")
    actions = _names(data["actions"], "'actions'")
    vertices = _names(data["vertices"], "'vertices'")
    init = _name(data["init"], "game file 'init'")

    allow_in = data.get("allow", {})
    _known_keys(allow_in, vertices, "allow", "vertex")
    allow: dict[str, dict[str, tuple[str, ...]]] = {}
    for v in vertices:
        per_vertex = allow_in.get(v, {})
        _known_keys(per_vertex, players, f"allow({v!r})", "player")
        row = {}
        for a in players:
            acts = per_vertex.get(a)
            if acts is None:
                row[a] = actions
            else:
                if not _json_list(acts, f"allow({v!r}, {a!r})"):
                    raise InvalidInput(f"allow({v!r}, {a!r}) is empty")
                row[a] = tuple(act for act in actions if act in set(acts))
                if len(row[a]) != len(acts):
                    raise InvalidInput(
                        f"allow({v!r}, {a!r}) mentions unknown or duplicate actions"
                    )
        allow[v] = row

    transitions = data["transitions"]
    _known_keys(transitions, vertices, "transitions", "vertex")
    tab: dict[str, dict[Move, str]] = {}
    for v in vertices:
        entries = transitions.get(v)
        if not entries:
            raise InvalidInput(f"vertex {v!r} has no transition entries")
        if not _is_catch_all(entries[-1].get("pattern")):
            raise InvalidInput(f"missing default transition pattern at vertex {v!r}")
        compiled = []
        for entry in entries:
            if "pattern" not in entry or "to" not in entry:
                raise InvalidInput(f"transition entry at {v!r} needs pattern and to")
            target = _name(entry["to"], f"transition target at {v!r}")
            if target not in vertices:
                raise InvalidInput(f"transition at {v!r} targets unknown vertex {target!r}")
            compiled.append(
                (_pattern_matcher(entry["pattern"], players, actions, allow[v], v), target)
            )
        # First match wins: each pattern claims the moves it matches that no
        # earlier one claimed, and the closing catch-all takes the rest.
        claimed: dict[Move, str] = {}
        for sets, target in compiled[:-1]:
            for move in product(*sets):
                claimed.setdefault(move, target)
        default = compiled[-1][1]
        tab[v] = {move: claimed.get(move, default)
                  for move in product(*(allow[v][a] for a in players))}

    payoff_in = data["payoff"]
    if "default" not in payoff_in:
        raise InvalidInput("payoff block missing default vector")
    rules = []
    for rule in payoff_in.get("rules", []):
        if "if" not in rule or "then" not in rule:
            raise InvalidInput("payoff rule needs 'if' and 'then'")
        vector = tuple(_as_rational(x) for x in _json_list(rule["then"], "payoff 'then'"))
        rules.append(PayoffRule(parse_condition(str(rule["if"])), vector))
    default = _json_list(payoff_in["default"], "payoff 'default'")
    payoff = PayoffSpec(tuple(rules), tuple(_as_rational(x) for x in default))

    game = ConcurrentGame(
        vertices=vertices,
        init_vertex=init,
        players=players,
        actions=actions,
        allow=allow,
        tab=tab,
        payoff=payoff,
    )
    # The tables above are checked as they are built.
    game.validate_declarations()
    return game


def parse_game(path: str | Path) -> ConcurrentGame:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read game file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInput(f"game file {path} must hold a JSON object")
    return game_from_dict(data)


def game_to_dict(game: ConcurrentGame) -> dict:
    """Serialize a game back to the file schema.

    The transition list is normalized: for every vertex the most common target
    becomes the catch-all (ties broken by vertex order) and all other moves get
    explicit one-move patterns in canonical order.
    """
    transitions = {}
    for v in game.vertices:
        counts: dict[str, int] = {}
        for target in game.tab[v].values():
            counts[target] = counts.get(target, 0) + 1
        default_target = max(
            counts, key=lambda t: (counts[t], -game.vertices.index(t))
        )
        entries = []
        for move in game.moves(v):
            target = game.tab[v][move]
            if target != default_target:
                entries.append(
                    {"pattern": dict(zip(game.players, move)), "to": target}
                )
        entries.append({"pattern": "*", "to": default_target})
        transitions[v] = entries

    def vec(values) -> list[str]:
        return [str(q) for q in values]

    return {
        "players": list(game.players),
        "actions": list(game.actions),
        "vertices": list(game.vertices),
        "init": game.init_vertex,
        "allow": {
            v: {a: list(game.allow[v][a]) for a in game.players}
            for v in game.vertices
        },
        "transitions": transitions,
        "payoff": {
            "rules": [
                {"if": rule.condition.text(), "then": vec(rule.vector)}
                for rule in game.payoff.rules
            ],
            "default": vec(game.payoff.default),
        },
    }


def serialize_game(game: ConcurrentGame) -> str:
    return json.dumps(game_to_dict(game), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Comm graph files.


@rejects_malformed("comm graph file")
def comm_graph_from_dict(data: dict, players: tuple[str, ...]) -> CommGraph:
    if "edges" not in data:
        raise InvalidInput("comm graph file missing 'edges'")
    edges = set()
    for entry in data["edges"]:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise InvalidInput(f"bad comm edge {entry!r}")
        edges.add(tuple(_name(x, "comm edge endpoint") for x in entry))
    return CommGraph(players=players, edges=frozenset(edges))


def parse_comm_graph(path: str | Path, players: tuple[str, ...]) -> CommGraph:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read comm graph file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInput(f"comm graph file {path} must hold a JSON object")
    return comm_graph_from_dict(data, players)


def serialize_comm_graph(graph: CommGraph) -> str:
    order = {a: i for i, a in enumerate(graph.players)}
    edges = sorted(graph.edges, key=lambda e: (order[e[0]], order[e[1]]))
    return json.dumps({"edges": [list(e) for e in edges]}, indent=2) + "\n"
