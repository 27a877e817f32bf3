"""Shared fixtures: the bundled five-player example under its three
communication graphs, plus a reusable suite of random small instances.

Importing this module also wraps `equisynth.epistemic.build_reachable`, before
any test module imports it, so that every game the session builds with at
most `LITERAL_WALK_STATES` Eve states is checked against the literal
knowledge update rules of `oracles.literal_knowledge_violations`.  The walk
reads the action of every deviated Adam node."""
from __future__ import annotations

import dataclasses
import functools
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import equisynth.epistemic
from equisynth import asset_path
from equisynth.errors import StateCapExceeded
from equisynth.game import (
    And,
    CommGraph,
    ConcurrentGame,
    InfAtom,
    Not,
    PayoffRule,
    PayoffSpec,
)
from equisynth.parsing import parse_comm_graph, parse_game
from equisynth.solver import EveStrategy, SolveResult, punishment_region, solve

from oracles import literal_knowledge_violations

LITERAL_WALK_STATES = 150


def _with_literal_walk(build):
    @functools.wraps(build)
    def build_and_walk(*args, **kwargs):
        eg = build(*args, **kwargs)
        if eg.eve_count() <= LITERAL_WALK_STATES:
            violations = literal_knowledge_violations(eg)
            assert not violations, violations[:5]
        return eg

    return build_and_walk


# The module may be imported twice (by pytest and by `from conftest import`).
if not hasattr(equisynth.epistemic.build_reachable, "__wrapped__"):
    equisynth.epistemic.build_reachable = _with_literal_walk(
        equisynth.epistemic.build_reachable)
build_reachable = equisynth.epistemic.build_reachable


# The games the session fixtures build.  Each test must leave them as built:
# a lookup of a key, successor or action one of them lacks makes it on demand,
# and every test that reads the game after would read a grown one.  A test
# that looks such a thing up uses its own build.
SHARED_BUILDS: list = []


def _shared(eg):
    SHARED_BUILDS.append(eg)
    return eg


def _sizes(games) -> list:
    return [(eg.eve_count(), eg.adam_count()) for eg in games]


@pytest.fixture(autouse=True)
def _shared_builds_stay_as_built():
    before = _sizes(SHARED_BUILDS)
    yield
    before += [eg.built for eg in SHARED_BUILDS[len(before):]]
    grown = sum(map(tuple.__ne__, before, _sizes(SHARED_BUILDS)))
    assert not grown, f"the test grew {grown} games of the session fixtures"


@pytest.fixture(scope="session")
def game5() -> ConcurrentGame:
    return parse_game(asset_path("five_player_game.json"))


def _graph(name: str, game: ConcurrentGame) -> CommGraph:
    return parse_comm_graph(asset_path(name), game.players)


@pytest.fixture(scope="session")
def g1(game5):
    return _graph("comm_g1.json", game5)


@pytest.fixture(scope="session")
def g2(game5):
    return _graph("comm_g2.json", game5)


@pytest.fixture(scope="session")
def g3(game5):
    return _graph("comm_g3.json", game5)


@pytest.fixture(scope="session")
def eg1(game5, g1):
    return _shared(build_reachable(game5, g1))


@pytest.fixture(scope="session")
def eg2(game5, g2):
    return _shared(build_reachable(game5, g2))


@pytest.fixture(scope="session")
def eg3(game5, g3):
    return _shared(build_reachable(game5, g3))


# ---------------------------------------------------------------------------
# Random instance generation (small games, arbitrary comm graphs).


def random_comm(rng: random.Random, players) -> CommGraph:
    pairs = [(a, b) for a in players for b in players if a != b]
    edges = frozenset(p for p in pairs if rng.random() < 0.4)
    return CommGraph(tuple(players), edges)


def random_game(rng: random.Random) -> ConcurrentGame:
    nv = rng.randint(1, 5)
    np_ = rng.randint(1, 4)
    na = rng.randint(1, 3)
    vertices = tuple(f"q{i}" for i in range(nv))
    players = tuple(str(i) for i in range(np_))
    actions = tuple("abc"[:na])
    allow = {}
    tab = {}
    for v in vertices:
        allow[v] = {
            p: tuple(sorted(rng.sample(actions, rng.randint(1, na))))
            for p in players
        }
        tab[v] = {
            m: rng.choice(vertices)
            for m in product(*(allow[v][p] for p in players))
        }
    rules = []
    for _ in range(rng.randint(0, 3)):
        cond = InfAtom(rng.choice(vertices))
        if rng.random() < 0.4 and nv > 1:
            cond = And(cond, InfAtom(rng.choice(vertices)))
        if rng.random() < 0.3:
            cond = Not(cond)
        vec = tuple(Fraction(rng.randint(0, 3)) for _ in players)
        rules.append(PayoffRule(cond, vec))
    default = tuple(Fraction(rng.randint(0, 3)) for _ in players)
    game = ConcurrentGame(
        vertices=vertices,
        init_vertex=vertices[0],
        players=players,
        actions=actions,
        allow=allow,
        tab=tab,
        payoff=PayoffSpec(tuple(rules), default),
    )
    game.validate()
    return game


def complete_strategy(eg, result: SolveResult) -> EveStrategy:
    """The strategy of `result`, a `solver.solve` result on `eg`, with the
    whole punishment tables of its payoff instead of only the entries its
    play reaches."""
    layers = punishment_region(eg, result.payoff).layers
    return dataclasses.replace(result.strategy, layers=layers)


def tamper_punishment(profile: dict) -> dict:
    """`profile` with every punishment row playing the complying move, so a
    suspect that keeps deviating into v1p of the bundled game is never
    punished.  Which rows a play reaches depends on the solver's choice
    among winning moves; editing every row of a complete table does not."""
    assert profile["punish"]
    for row in profile["punish"]:
        row["action"] = {d: ["a", "a", "a", "a", "a"] for d in row["action"]}
    return profile


@pytest.fixture(scope="session")
def random_instances():
    """At least 100 built random instances (game, graph, epistemic game).

    Criterion 4 replays the literal knowledge update over every one of them
    and checks the derived sets on every reachable state against it.
    """
    rng = random.Random(20260814)
    out = []
    while len(out) < 100:
        game = random_game(rng)
        graph = random_comm(rng, game.players)
        try:
            eg = build_reachable(game, graph, state_cap=50_000)
        except StateCapExceeded:
            continue
        out.append((game, graph, _shared(eg)))
    return out


def benchmark_workloads():
    """The benchmark's `workloads` module, whose generators draw the `wide`,
    `branchy` and dense games."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    return workloads


def two_leaf_game() -> tuple[ConcurrentGame, CommGraph]:
    """`branchy` game 8 (3 players, 6 vertices): its only candidate payoff
    is found, and four of its punishment layers have two-leaf Zielonka
    trees, the first of them the layer with suspects {2}: 12 Eve states
    and 34 Adam nodes, which add 29 product nodes to the region game."""
    workloads = benchmark_workloads()
    return workloads.materialize(workloads.family("branchy")[8])


@pytest.fixture(scope="session")
def pruned_pairs(random_instances):
    """(game, graph, full build, pruned build) for the random instances with
    at most 20,000 Adam nodes, the 20 `wide` and `branchy` benchmark games
    and dense 3/8 and 4/4.  The two random instances above 20,000 Adam
    nodes take seconds each to solve twice."""
    workloads = benchmark_workloads()
    games = [(game, graph, eg) for game, graph, eg in random_instances
             if eg.adam_count() <= 20_000]
    structures = workloads.family("wide") + workloads.family("branchy")
    structures += [workloads.draw_dense(random.Random(1), players, vertices, 2)
                   for players, vertices in ((3, 8), (4, 4))]
    for structure in structures:
        game, graph = workloads.materialize(structure)
        games.append((game, graph, _shared(build_reachable(game, graph))))
    return [(game, graph, eg, _shared(build_reachable(game, graph, pruned=True)))
            for game, graph, eg in games]


@pytest.fixture(scope="session")
def pruned_solves(pruned_pairs):
    """`solver.solve` of a pruned build of each game of `pruned_pairs`, in
    that order (None where it finds no profile): solved once for the tests
    that read the results.  Each solve has its own build (its strategy's
    `eg`), since a solve makes states and Adam nodes on demand and may
    expand split states, and the builds of `pruned_pairs` stay as built."""
    build = build_reachable.__wrapped__
    return [solve(build(game, graph, pruned=True))
            for game, graph, _full, _pruned in pruned_pairs]


def family_solves(pruned_pairs, pruned_solves) -> list:
    """The (pair, solve) entries of `pruned_pairs` and `pruned_solves` for
    the 20 `wide` and `branchy` games, which come after the random instances
    and before dense 3/8 and 4/4."""
    return list(zip(pruned_pairs, pruned_solves))[-22:-2]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion verdicts after the run."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "RESULTS", None)
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
