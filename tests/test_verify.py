"""`verify` reads a profile on the part of the epistemic game it reaches
(`EpistemicView`).  On every found profile it must give what the full-build
verify of `oracles.full_build_verify` gives: the same checks and failures,
or the same error.  A found profile holds exactly the punishment rows its
play reaches, and reading it back gives the checks `solve` reported.  Its
machines are a Nash equilibrium of the concurrent game itself
(`oracles.nash_violations`)."""
from __future__ import annotations

import random
import sys
from functools import partial
from pathlib import Path

import pytest

from equisynth.cli import _CHECK_ERRORS, _verify_profile, _verify_strategy
from equisynth.epistemic import EpistemicView, state_key
from equisynth.parsing import parse_query
from equisynth.solver import EveStrategy, model_check_strategy, solve
from equisynth.translate import (
    Profile,
    check_deviation_resistance,
    check_normed,
    omega,
)

from conftest import build_reachable, complete_strategy, family_solves, tamper_punishment
from oracles import eve_states, full_build_verify, nash_violations, verify_outcome
from test_translate import Denounce, LateSelfReport, MessageOverride, RejectAfterId

PREDICATES = (None, "p=(0,0,1,1,1)", "p=(0,0,3,3,3)")
MAIN_INF = (None, frozenset({"v0", "v1"}))


def _dense(players: int, vertices: int):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    game, graph = workloads.materialize(
        workloads.draw_dense(random.Random(1), players, vertices, 2))
    return game, graph, build_reachable(game, graph)


@pytest.fixture(scope="module")
def found_solves(eg1, eg2, eg3, pruned_pairs, pruned_solves):
    """(full build, pruned build, solve result) for every found solve, on
    the pruned build as the `solve` command runs it, of: the bundled
    example's queries under g1/g2/g3, the random instances of
    `pruned_pairs`, the `wide` and `branchy` games and dense 3/8, 4/4 and
    4/6."""
    out = []
    for full in (eg1, eg2, eg3):
        pruned = build_reachable(full.game, full.graph, pruned=True)
        for predicate in PREDICATES:
            query = parse_query(predicate) if predicate else None
            for main_inf in MAIN_INF:
                result = solve(pruned, query=query, main_inf=main_inf)
                if result is not None:
                    out.append((full, pruned, result))
    for (_game, _graph, full, _pruned), result in zip(pruned_pairs, pruned_solves):
        if result is not None:
            out.append((full, result.strategy.eg, result))
    game, graph, full = _dense(4, 6)
    pruned = build_reachable(game, graph, pruned=True)
    result = solve(pruned)
    if result is not None:
        out.append((full, pruned, result))
    return out


@pytest.fixture(scope="module")
def found_profiles(found_solves):
    """(full build, profile) for every found solve of `found_solves`."""
    return [(full, result.strategy.to_dict()) for full, _pruned, result in found_solves]


def test_on_demand_verify_matches_full_build(found_profiles):
    assert len(found_profiles) >= 40
    for full, data in found_profiles:
        want = verify_outcome(full_build_verify, full, data)
        got = verify_outcome(_verify_profile, full.game, full.graph, data)
        assert got == want, data
        assert got[0] == 0, got


class RecordingPolicy:
    """A policy that records every (Eve id, memory) node it is asked to act
    at, and otherwise plays `inner`."""

    def __init__(self, inner):
        self.inner = inner
        self.nodes = set()

    def initial(self):
        return self.inner.initial()

    def action(self, eve_id, mem):
        self.nodes.add((eve_id, mem))
        return self.inner.action(eve_id, mem)

    def advance(self, mem, eve_id, next_eve_id):
        return self.inner.advance(mem, eve_id, next_eve_id)


def test_profile_holds_exactly_the_rows_its_play_reaches(found_solves):
    # The written rows are the deviated nodes of the model checker's product,
    # and reading them back gives the checks and failures of the re-verification
    # `solve` runs, on the view and on the full build alike; the complete
    # tables give them too.
    assert len(found_solves) >= 120
    for full, pruned, result in found_solves:
        data = result.strategy.to_dict()
        policy = RecordingPolicy(result.strategy)
        assert model_check_strategy(pruned, policy, result.payoff).ok
        states = eve_states(pruned)
        reached = {(state_key(states[e]), mem) for e, mem in policy.nodes if states[e].deviated}
        rows = [(row["key"], row["leaf"]) for row in data["punish"]]
        assert len(rows) == len(set(rows)) and set(rows) == reached, data
        want = _verify_strategy(full.game, full.graph, pruned, result.strategy)
        complete = complete_strategy(pruned, result)
        assert _verify_strategy(full.game, full.graph, pruned, complete) == want
        assert verify_outcome(_verify_profile, full.game, full.graph, data) == (0, *want)
        assert verify_outcome(full_build_verify, full, data) == (0, *want)


def test_view_makes_only_what_the_rows_name(eg1, found_profiles):
    # Reading a profile makes each row's state, one Adam node per row's
    # action and that node's successors, and nothing else.
    data = next(data for full, data in found_profiles if full is eg1)
    rows = data["comply"]["prefix"] + data["comply"]["cycle"] + data["punish"]
    view = EpistemicView(eg1.game, eg1.graph)
    EveStrategy.from_dict(view, data)
    assert len(view.adam_succ) <= len(rows) < eg1.adam_count()
    keys = {state_key(s) for s in eve_states(view)}
    assert {row["key"] for row in rows} <= keys <= {state_key(s) for s in eve_states(eg1)}


def test_view_resolves_every_action_as_the_full_game(eg1, eg2, eg3):
    # Each Adam node of a full build, resolved on a view from its state's
    # key and its action, is a node of that state with the same action and
    # successors; in the end the view holds the whole game.
    for full in (eg1, eg2, eg3):
        view = EpistemicView(full.game, full.graph)
        for e, state in enumerate(eve_states(full)):
            origin = view.eve_for_key(state_key(state))
            for aid in full.eve_succ[e]:
                got = view.adam_for_action(origin, full.adam_action[aid])
                assert view.adam_action[got] == full.adam_action[aid]
                assert [state_key(view.state(s)) for s in view.adam_succ[got]] == \
                    [state_key(full.state(s)) for s in full.adam_succ[aid]]
        assert (len(eve_states(view)), len(view.adam_succ)) == \
            (full.eve_count(), full.adam_count())


def test_found_profiles_are_nash_equilibria(found_solves):
    # The machines of every found profile, played on the concurrent game
    # itself, pay exactly the found payoff on the complying outcome, and no
    # single deviator gains by any honest visible deviation.
    for full, pruned, result in found_solves:
        machines = omega(pruned, result.strategy)
        assert nash_violations(full.game, full.graph, machines, result.payoff) == []


def test_nash_oracle_finds_the_gain_a_tampered_profile_leaves(eg1):
    # With every punishment row playing the complying move, each of the
    # players 2, 3 and 4 gains by deviating into v1p, and the oracle says so.
    result = solve(eg1, query=parse_query("p[2]=1 & p[3]=1 & p[4]=1"))
    strategy = EveStrategy.from_dict(
        eg1, tamper_punishment(complete_strategy(eg1, result).to_dict()))
    machines = omega(eg1, strategy)
    assert nash_violations(eg1.game, eg1.graph, machines, result.payoff) == [
        f"deviator {d!r} gets 2 > 1 by recurring on {{v0,v1p}}" for d in "234"]


def _plain_outputs(profile, mstates):
    return tuple(profile.output(a, ms) for a, ms in zip(profile.players, mstates))


def _plain_round(profile, graph, mstates, msgs, next_vertex):
    sent = dict(zip(profile.players, msgs))
    return tuple(
        profile.advance(a, ms, {b: sent[b] for b in graph.vois[a]}, next_vertex)
        for a, ms in zip(profile.players, mstates)
    )


def _both_checks(eg, make_profile, p):
    """What the message-rule and deviation-resistance checks report on one
    profile, run in that order as `verify` runs them, or what they raise."""
    profile = make_profile()

    def normed():
        report = check_normed(eg.game, eg.graph, profile)
        return report.ok, report.violations, report.explored

    def resist():
        report = check_deviation_resistance(eg, profile, p)
        return report.ok, report.complying_cycle, report.violations, report.product_nodes

    out = []
    for check in (normed, resist):
        try:
            out.append(check())
        except _CHECK_ERRORS as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


def test_machine_caches_answer_as_the_plain_path(eg1, found_solves, monkeypatch):
    # Both checks give the same reports, or raise the same error, whether
    # each round and output vector is made once per profile or every time.
    result = solve(eg1, query=parse_query("p[2]=1 & p[3]=1 & p[4]=1"))
    tampered = EveStrategy.from_dict(
        eg1, tamper_punishment(complete_strategy(eg1, result).to_dict()))
    found = partial(omega, eg1, result.strategy)
    cases = [(pruned, partial(omega, pruned, r.strategy), r.payoff)
             for _full, pruned, r in found_solves]
    tampered_cases = [(eg1, make, result.payoff) for make in (
        partial(omega, eg1, tampered),
        lambda: MessageOverride(found(), "2", lambda m: "2"),
        lambda: MessageOverride(found(), "4", lambda m: None),
        lambda: MessageOverride(found(), "0", lambda m: None),
        lambda: Denounce(found(), "0", None),
        lambda: LateSelfReport(found(), "2", 20),
        lambda: RejectAfterId(found(), onset=True),
        lambda: RejectAfterId(found(), onset=False),
    )]
    cached = [_both_checks(*case) for case in cases + tampered_cases]
    monkeypatch.setattr(Profile, "outputs", _plain_outputs)
    monkeypatch.setattr(Profile, "round", _plain_round)
    plain = [_both_checks(*case) for case in cases + tampered_cases]
    assert cached == plain
    # Every found profile passes both checks, and every tampered one fails one.
    assert all(normed[0] is resist[0] is True for normed, resist in cached[:len(cases)])
    assert not any(normed[0] is resist[0] is True for normed, resist in cached[len(cases):])


def _seed_one(family: str, i: int):
    """Game `i` of a benchmark family, named as the benchmark names it
    under seed 1."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    structure = workloads.family(family)[i]
    rng = random.Random(f"{family}:1:{i}")
    vperm = rng.sample(range(structure.vertices), structure.vertices)
    aperm = rng.sample(range(structure.actions), structure.actions)
    return workloads.materialize(structure, vperm, aperm)


def _passes_verify_and_nash(game, graph, result) -> None:
    strategy, _checks, failures = _verify_profile(game, graph, result.strategy.to_dict())
    assert failures == []
    assert nash_violations(game, graph, omega(strategy.eg, strategy), result.payoff) == []


def test_split_states_play_their_components_joined_moves():
    # `wide` game 7's profile names four split states.  Each row there joins
    # its component states' moves, and its Adam node is made on demand.
    # Three of them the build never made: the play meets them as successors
    # of split states, and they split in turn.  No fallback is needed.
    game, graph = _seed_one("wide", 7)
    eg = build_reachable(game, graph, pruned=True)
    built = eg.built
    result = solve(eg)
    assert eg.built == built
    split = [(e, aid) for table in result.strategy.layers.values()
             for (e, _leaf), aid in table.entries.items() if e in eg.split]
    assert len(split) == 4 and sum(e >= built[0] for e, _aid in split) == 3
    assert all(aid >= built[1] for _e, aid in split)
    _passes_verify_and_nash(game, graph, result)


def test_components_with_multi_leaf_trees_expand_the_split_states():
    # On `branchy` games 6 and 8 a split state the play reaches has a
    # component whose layer's Zielonka tree has two leaves, and a row holds
    # one leaf: `solve` expands every split state and solves again.
    for i in (6, 8):
        game, graph = _seed_one("branchy", i)
        eg = build_reachable(game, graph, pruned=True)
        assert eg.split
        built = eg.built
        result = solve(eg)
        assert not eg.split and eg.built > built
        assert all(e < eg.built[0] for table in result.strategy.layers.values()
                   for e, _leaf in table.entries)
        _passes_verify_and_nash(game, graph, result)


def test_reversed_punishment_rows_read_back_on_a_pruned_build(pruned_pairs, pruned_solves):
    # A row at a split state makes its Adam node and its successors on
    # demand, and a later row may name one of those successors.  A built
    # game resolves keys and actions as a view does, so the rows may come in
    # any order: each `wide` and `branchy` profile, its punishment rows
    # reversed, reads back on a fresh pruned build and passes every check.
    games = family_solves(pruned_pairs, pruned_solves)
    assert len(games) == 20
    for (game, graph, _full, _pruned), result in games:
        data = result.strategy.to_dict()
        data["punish"].reverse()
        eg = build_reachable(game, graph, pruned=True)
        strategy = EveStrategy.from_dict(eg, data)
        assert _verify_strategy(game, graph, eg, strategy)[1] == [], game
