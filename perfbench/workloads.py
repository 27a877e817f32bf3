"""Instance families of the benchmark and the operations run on them.

A workload is a fixed list of operations, each one `equisynth.cli.main`
call.  In `bundled`, every found `solve` is followed by a `verify` of the
report it wrote.

* `bundled`: the paper's five-player example under its three communication
  graphs, four queries each.  The files are the bundled assets written back
  through `serialize_game` / `serialize_comm_graph`; the seed only shuffles
  the order in which the twelve queries run.
* `wide`, `branchy`: dense generated games (full random transition
  table, two payoff rules over `inf` atoms, ring communication graph),
  solved with no predicate.  Each family's structure is drawn once from a
  fixed master seed; the benchmark seed renames the vertices and actions
  and shuffles the order of the instances.  The games keep their structure
  and the order of their vertex and action lists, so every seed does the
  same work, and the verdicts recorded in `expected.json` hold for every
  seed.  Reordering the vertices too would change the colour-class work by
  up to 10% from seed to seed.

Nothing here imports `equisynth` at module level: the set-up time includes
the import, so the package is imported inside the functions that need it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Optional

WORKLOADS = ("bundled", "wide", "branchy")

# Shape of each generated family: (players, vertices, actions, instances,
# master seed, payoff rule kinds).  Why each shape was chosen is recorded in
# BENCHMARK.json.
FAMILIES = {
    "wide": (4, 2, 2, 10, 101, ("inf",)),
    "branchy": (3, 6, 2, 10, 303, ("and", "andnot", "or")),
}

ACTION_NAMES = "abc"


@dataclass(frozen=True)
class DenseStructure:
    """A dense game as indices only: `tab[v][m]` is the target of the m-th
    joint move (in `product(range(actions), repeat=players)` order) at
    vertex v; vertex 0 is initial.  A payoff rule is (kind, atoms, vector)."""

    players: int
    vertices: int
    actions: int
    tab: tuple[tuple[int, ...], ...]
    rules: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...]
    default: tuple[int, ...]


def draw_dense(rng: random.Random, players: int, vertices: int, actions: int,
               kinds: tuple[str, ...] = ("inf",), rules: int = 2) -> DenseStructure:
    """Draw `tab[v][m]` for each vertex in order and each joint move in
    `product(actions, repeat=players)` order, then the payoff rules.  The
    transition draws come first, so the state-space size of an instance
    depends only on the draws the ROADMAP baseline made."""
    tab = tuple(
        tuple(rng.randrange(vertices) for _ in range(actions ** players))
        for _ in range(vertices)
    )
    drawn = []
    for _ in range(rules):
        kind = rng.choice(kinds) if vertices > 1 else "inf"
        atoms = tuple(rng.sample(range(vertices), 1 if kind == "inf" else 2))
        drawn.append((kind, atoms, tuple(rng.randint(0, 2) for _ in range(players))))
    default = tuple(rng.randint(0, 2) for _ in range(players))
    return DenseStructure(players, vertices, actions, tab, tuple(drawn), default)


def materialize(s: DenseStructure, vperm: Optional[list[int]] = None,
                aperm: Optional[list[int]] = None):
    """The game and ring communication graph of a structure, with vertex i
    named `v{vperm[i]}` and action j named `ACTION_NAMES[aperm[j]]`.  The
    vertex and action lists keep the structure's order: the engine orders
    its work by position in these lists, so renaming leaves the work as it
    is."""
    from equisynth.game import (
        And, CommGraph, ConcurrentGame, InfAtom, Not, Or, PayoffRule, PayoffSpec,
    )

    vperm = vperm or list(range(s.vertices))
    aperm = aperm or list(range(s.actions))
    vname = [f"v{vperm[i]}" for i in range(s.vertices)]
    aname = [ACTION_NAMES[aperm[j]] for j in range(s.actions)]
    vertices = tuple(vname)
    actions = tuple(aname)
    players = tuple(str(i) for i in range(s.players))
    tab: dict[str, dict[tuple[str, ...], str]] = {}
    for v in range(s.vertices):
        moves = product(range(s.actions), repeat=s.players)
        tab[vname[v]] = {
            tuple(aname[a] for a in move): vname[t] for move, t in zip(moves, s.tab[v])
        }
    allow = {v: {p: actions for p in players} for v in vertices}

    def condition(kind: str, atoms: tuple[int, ...]):
        first = InfAtom(vname[atoms[0]])
        if kind == "inf":
            return first
        second = InfAtom(vname[atoms[1]])
        if kind == "and":
            return And(first, second)
        if kind == "andnot":
            return And(first, Not(second))
        return Or(first, second)

    payoff = PayoffSpec(
        tuple(
            PayoffRule(condition(kind, atoms), tuple(Fraction(x) for x in vec))
            for kind, atoms, vec in s.rules
        ),
        tuple(Fraction(x) for x in s.default),
    )
    game = ConcurrentGame(
        vertices=vertices,
        init_vertex=vname[0],
        players=players,
        actions=actions,
        allow=allow,
        tab=tab,
        payoff=payoff,
    )
    game.validate()
    ring = frozenset((players[i], players[(i + 1) % s.players]) for i in range(s.players))
    return game, CommGraph(players, ring)


def family(name: str) -> list[DenseStructure]:
    players, vertices, actions, count, master, kinds = FAMILIES[name]
    rng = random.Random(master)
    return [draw_dense(rng, players, vertices, actions, kinds) for _ in range(count)]


# ---------------------------------------------------------------------------
# Operations.


@dataclass
class Op:
    """One command-line call and what its result must be.

    `expect` holds the verdict a solve must reach: status, exit code and
    payoff (None when unchecked).  A verify must pass; `verify` is the one
    that follows a found solve."""

    name: str
    argv: list[str]
    out: Path
    expect: Optional[dict] = None
    verify: Optional["Op"] = field(default=None, repr=False)

    @property
    def kind(self) -> str:
        return self.argv[0]


# The bundled example's queries: (label, extra solve flags).
BUNDLED_QUERIES = (
    ("main-inf", ["--predicate", "p=(0,0,1,1,1)", "--main-inf", "v0,v1"]),
    ("p33", ["--predicate", "p=(0,0,3,3,3)"]),
    ("any", []),
    ("p0", ["--predicate", "p[0]>=1"]),
)

FOUND = "found"
NOT_FOUND = "not-found"

# Bundled verdicts.  main-inf under g1/g2/g3 is criterion 2 of the
# acceptance tests; its g1 payoff is the README example.  No payoff vector of
# the game gives player 0 anything, so `p[0]>=1` has no candidate at all.
# The `p33` and `any` rows were recorded at the commit that added the
# benchmark.
BUNDLED_EXPECTED = {
    ("g1", "main-inf"): (FOUND, 0, ["0", "0", "1", "1", "1"]),
    ("g2", "main-inf"): (FOUND, 0, ["0", "0", "1", "1", "1"]),
    ("g3", "main-inf"): (NOT_FOUND, 1, None),
    ("g1", "p33"): (FOUND, 0, ["0", "0", "3", "3", "3"]),
    ("g2", "p33"): (FOUND, 0, ["0", "0", "3", "3", "3"]),
    ("g3", "p33"): (FOUND, 0, ["0", "0", "3", "3", "3"]),
    ("g1", "any"): (FOUND, 0, ["0", "0", "1", "1", "1"]),
    ("g2", "any"): (FOUND, 0, ["0", "0", "1", "1", "1"]),
    ("g3", "any"): (FOUND, 0, ["0", "0", "0", "2", "2"]),
    ("g1", "p0"): (NOT_FOUND, 1, None),
    ("g2", "p0"): (NOT_FOUND, 1, None),
    ("g3", "p0"): (NOT_FOUND, 1, None),
}


def _solve_op(name: str, game: Path, comm: Path, workdir: Path, flags: list[str],
              expect: Optional[dict], verify: bool = False) -> Op:
    report = workdir / f"{name}.solve.json"
    common = ["--game", str(game), "--comm", str(comm), *flags]
    op = Op(name, ["solve", *common, "--format", "json", "--out", str(report)],
            report, expect)
    if verify:
        checked = workdir / f"{name}.verify.json"
        op.verify = Op(f"{name}.verify",
                       ["verify", *common, "--format", "json", "--out", str(checked),
                        str(report)],
                       checked)
    return op


def write_instances(workload: str, seed: int, workdir: Path,
                    expected: Optional[dict] = None) -> list[Op]:
    """Write the workload's input files for `seed` into `workdir` and return
    its solve operations (a found `bundled` solve carries the verify that
    follows it), in the order the seed gives them.  `expected` holds the generated instances'
    verdicts as `expected.json` stores them; without it they are unchecked."""
    from equisynth import asset_path
    from equisynth.parsing import (
        parse_comm_graph, parse_game, serialize_comm_graph, serialize_game,
    )

    ops: list[Op] = []
    if workload == "bundled":
        game = parse_game(asset_path("five_player_game.json"))
        game_file = workdir / "five_player_game.json"
        game_file.write_text(serialize_game(game))
        for g in ("g1", "g2", "g3"):
            comm_file = workdir / f"comm_{g}.json"
            graph = parse_comm_graph(asset_path(f"comm_{g}.json"), game.players)
            comm_file.write_text(serialize_comm_graph(graph))
            for label, flags in BUNDLED_QUERIES:
                status, code, payoff = BUNDLED_EXPECTED[(g, label)]
                expect = {"status": status, "exit": code, "payoff": payoff}
                ops.append(_solve_op(f"{g}-{label}", game_file, comm_file, workdir,
                                     flags, expect, verify=status == FOUND))
    elif workload in FAMILIES:
        for i, structure in enumerate(family(workload)):
            rng = random.Random(f"{workload}:{seed}:{i}")
            vperm = rng.sample(range(structure.vertices), structure.vertices)
            aperm = rng.sample(range(structure.actions), structure.actions)
            game, graph = materialize(structure, vperm, aperm)
            name = f"{workload}-{i:02d}"
            game_file = workdir / f"{name}.game.json"
            comm_file = workdir / f"{name}.comm.json"
            game_file.write_text(serialize_game(game))
            comm_file.write_text(serialize_comm_graph(graph))
            expect = None if expected is None else expected[workload][name]
            ops.append(_solve_op(name, game_file, comm_file, workdir, [], expect))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"order:{workload}:{seed}").shuffle(ops)
    return ops
