"""Suspect tracking: state updates, knowledge sets, enabled move functions,
reachable construction and its invariants."""
from __future__ import annotations

import copy
import random
from fractions import Fraction
from itertools import product

import pytest

from equisynth import epistemic
from equisynth.epistemic import (
    Encoding,
    EpistemicView,
    EveState,
    Situation,
    action_reach,
    build_reachable,
    check_distance_characterization,
    check_knowledge_invariant,
    derive_knowledge,
    expand,
    knowledge_violations,
    state_key,
    successors,
)
from equisynth.cli import _verify_strategy
from equisynth.errors import InvalidInput, StateCapExceeded
from equisynth.game import CommGraph, ConcurrentGame, PayoffSpec
from equisynth.parsing import game_from_dict
from equisynth.solver import EveStrategy

from conftest import family_solves, random_comm, random_game
from oracles import (
    AdamNode,
    brute_force_devfunctions,
    complete_graph,
    count_enabled_eve_actions,
    edgeless_graph,
    enabled_eve_actions,
    eve_states,
    literal_knowledge_from_empty,
    literal_knowledge_violations,
    per_move_table,
    per_state_distinct_actions,
    per_state_memo_build,
    plain_pruned_build,
    reference_build_reachable,
    sliced_move_table,
    successor_map,
)

ALL_A = ("a",) * 5
AT_V0 = EveState("v0", ())

GOLDEN_KNOWLEDGE = {
    "2": {"0": {"2", "3"}, "1": {"2", "3", "4"}, "3": {"2", "4"}, "4": {"2"}},
    "3": {"0": {"2", "3"}, "1": {"2", "3", "4"}, "2": {"3", "4"}},
    "4": {"1": {"2", "3", "4"}, "2": {"3", "4"}, "3": {"2", "4"}},
}


@pytest.fixture(scope="module")
def golden_state(game5, g1):
    return successor_map(game5, g1, AT_V0, ALL_A)["v1p"]


def test_visible_deviation_situations(game5, g1, golden_state):
    assert golden_state.vertex == "v1p"
    assert golden_state.deviators() == ("2", "3", "4")
    assert golden_state.informed("2") == ("2",)
    assert golden_state.informed("3") == ("3", "4")
    assert golden_state.informed("4") == ("0", "4")
    assert state_key(golden_state) == "v1p|2:2;3:3,4;4:0,4"


def test_informed_of_a_non_suspect_is_a_key_error(golden_state):
    # Only a suspect has an informed set: asking for another player's is the
    # caller's fault, not an empty set.
    with pytest.raises(KeyError):
        golden_state.informed("0")


def test_derived_knowledge_table(golden_state):
    for d, per in GOLDEN_KNOWLEDGE.items():
        for a, expected in per.items():
            assert derive_knowledge(golden_state, d, a) == frozenset(expected), (d, a)
    # Informed players know the deviator exactly.
    assert derive_knowledge(golden_state, "3", "4") == frozenset({"3"})
    assert derive_knowledge(golden_state, "4", "0") == frozenset({"4"})
    with pytest.raises(InvalidInput):
        derive_knowledge(golden_state, "0", "1")


def test_complying_step_keeps_no_suspects(game5, g1):
    state = successor_map(game5, g1, AT_V0, ALL_A)["v1"]
    assert not state.deviated
    assert state_key(state) == "v1|-"


def test_unreachable_target_rejected(game5, g1):
    assert "v3" not in successor_map(game5, g1, AT_V0, ALL_A)


def test_graph_players_must_be_the_game_players(game5, g1):
    # The command line reads a graph over the game's players; a graph built
    # in code over other players, or in another order, is refused.
    for players in (game5.players[:4], game5.players[::-1]):
        with pytest.raises(InvalidInput) as exc:
            EpistemicView(game5, CommGraph(players, frozenset()))
        assert str(exc.value) == "comm graph players must match game players"
    EpistemicView(game5, g1)


def test_informed_sets_grow_one_hop(game5, g1, golden_state):
    f = (ALL_A,) * len(golden_state.deviators())
    nxt = successor_map(game5, g1, golden_state, f)["v0"]
    assert nxt.deviators() == ("2", "3", "4")
    assert nxt.informed("2") == ("2",)
    assert nxt.informed("3") == ("0", "3", "4")
    assert nxt.informed("4") == ("0", "1", "4")


def test_nonempty_update_drops_impossible_suspects(game5, g1):
    state = EveState("v1p", (Situation("2", ("2",)),))
    f = (ALL_A,)
    assert "v3" not in successor_map(game5, g1, state, f)


def test_edgeless_graph_freezes_informed_sets(game5):
    graph = edgeless_graph(game5.players)
    state = successor_map(game5, graph, AT_V0, ALL_A)["v1p"]
    for target in ("v0", "v1", "v0"):
        assert all(state.informed(d) == (d,) for d in state.deviators())
        f = (ALL_A,) * len(state.deviators())
        state = successor_map(game5, graph, state, f)[target]
    assert all(state.informed(d) == (d,) for d in state.deviators())


def test_complete_graph_informs_everyone_at_once(game5):
    graph = complete_graph(game5.players)
    state = successor_map(game5, graph, AT_V0, ALL_A)["v1p"]
    everyone = tuple(game5.players)
    for d in state.deviators():
        assert state.informed(d) == everyone
        for a in game5.players:
            assert derive_knowledge(state, d, a) == frozenset({d})


def test_corrupted_informed_set_is_caught(game5, g1, golden_state, eg1):
    assert knowledge_violations(golden_state, game5.players) == []
    situations = tuple(
        Situation(s.deviator, ("4",)) if s.deviator == "4" else s
        for s in golden_state.situations
    )
    corrupted = EveState(golden_state.vertex, situations)
    literal = literal_knowledge_from_empty(game5, g1, corrupted)
    assert knowledge_violations(corrupted, game5.players, literal)
    # The same corruption inside a built game: the literal walk reports it.
    eid = eve_states(eg1).index(golden_state)
    v, pairs = eg1.keys[eid]
    four = game5.player_index["4"]
    keys = list(eg1.keys)
    keys[eid] = (v, tuple((d, 1 << four if d == four else m) for d, m in pairs))
    broken = copy.copy(eg1)
    broken.keys = keys
    assert broken.state(eid) == corrupted
    found = literal_knowledge_violations(broken)
    assert any(v.startswith(state_key(corrupted) + ":") for v in found), found


def test_misaligned_move_functions_are_caught(eg1):
    # Copies of the built game whose move functions do not line up with
    # their states' suspects: the literal walk reports states, and raises
    # nothing.  In the first, one move function lost its last move.
    eid = next(e for e in eg1.deviated_ids() if len(eg1.state(e).deviators()) > 1)
    actions = list(eg1.adam_action)
    actions[eg1.eve_succ[eid][0]] = actions[eg1.eve_succ[eid][0]][:-1]
    broken = copy.copy(eg1)
    broken.adam_action = actions
    found = literal_knowledge_violations(broken)
    assert any(v.startswith(state_key(eg1.state(eid)) + ":") for v in found), found
    # In the second, every move function lists its moves in reverse order.
    actions = list(eg1.adam_action)
    for e in eg1.deviated_ids():
        for aid in eg1.eve_succ[e]:
            actions[aid] = actions[aid][::-1]
    broken = copy.copy(eg1)
    broken.adam_action = actions
    found = literal_knowledge_violations(broken)
    keys = tuple(state_key(state) + ":" for state in eve_states(eg1))
    assert any(v.startswith(keys) for v in found), found


def test_enabled_actions_match_brute_force(game5, g1, golden_state):
    at_v0 = EveState("v0", golden_state.situations)
    enabled = set(enabled_eve_actions(game5, at_v0))
    expected = brute_force_devfunctions(game5, at_v0)
    assert enabled == expected
    assert count_enabled_eve_actions(game5, at_v0) == len(expected) == 1024


def test_enabled_actions_equality_families(game5, g1, golden_state):
    # The pairwise-uninformed constraint collapses to four component families:
    # f(2)(0)=f(3)(0); f(2)(1)=f(3)(1)=f(4)(1); f(3)(2)=f(4)(2); f(2)(3)=f(4)(3).
    at_v0 = EveState("v0", golden_state.situations)
    for action in enabled_eve_actions(game5, at_v0):
        f = dict(zip(at_v0.deviators(), action))
        assert f["2"][0] == f["3"][0]
        assert f["2"][1] == f["3"][1] == f["4"][1]
        assert f["3"][2] == f["4"][2]
        assert f["2"][3] == f["4"][3]


def test_enabled_actions_empty_state(game5, g1):
    state = EveState("v0", ())
    assert set(enabled_eve_actions(game5, state)) == set(game5.moves("v0"))
    assert count_enabled_eve_actions(game5, state) == 32


def test_enabled_actions_fully_informed_are_independent(game5):
    graph = complete_graph(game5.players)
    state = successor_map(game5, graph, AT_V0, ALL_A)["v1p"]
    n = count_enabled_eve_actions(game5, state)
    assert n == 32 ** len(state.deviators())


def test_singleton_allow_single_move():
    game = game_from_dict(
        {
            "players": ["0", "1"],
            "actions": ["a"],
            "vertices": ["s"],
            "init": "s",
            "transitions": {"s": [{"pattern": "*", "to": "s"}]},
            "payoff": {"rules": [], "default": [0, 0]},
        }
    )
    state = EveState("s", ())
    assert list(enabled_eve_actions(game, state)) == [("a", "a")]
    eg = build_reachable(game, edgeless_graph(game.players))
    assert eg.adam_action == [("a", "a")]


def test_build_reachable_asset_counts(eg1, eg2, eg3):
    assert (eg1.eve_count(), eg1.adam_count(), len(eg1.deviated_ids())) == (85, 572, 78)
    assert (eg2.eve_count(), eg2.adam_count(), len(eg2.deviated_ids())) == (79, 391, 72)
    assert (eg3.eve_count(), eg3.adam_count(), len(eg3.deviated_ids())) == (76, 232, 69)


def test_build_contains_expected_states(eg1):
    keys = {state_key(s) for s in eve_states(eg1)}
    assert "v0|-" in keys
    assert "v1|-" in keys
    assert "v1p|2:2;3:3,4;4:0,4" in keys


def test_build_is_deterministic(game5, g1, eg1):
    again = build_reachable(game5, g1)
    assert [state_key(s) for s in eve_states(again)] == [
        state_key(s) for s in eve_states(eg1)
    ]
    assert again.adam_action == eg1.adam_action
    assert again.adam_succ == eg1.adam_succ


def test_build_state_cap(game5, g1):
    with pytest.raises(StateCapExceeded, match="epistemic build"):
        build_reachable(game5, g1, state_cap=10)


def test_one_player_game_structure():
    game = game_from_dict(
        {
            "players": ["0"],
            "actions": ["a", "b"],
            "vertices": ["s", "t"],
            "init": "s",
            "transitions": {
                "s": [{"pattern": {"0": "a"}, "to": "s"}, {"pattern": "*", "to": "t"}],
                "t": [{"pattern": "*", "to": "t"}],
            },
            "payoff": {"rules": [], "default": [0]},
        }
    )
    eg = build_reachable(game, edgeless_graph(game.players))
    for eid in eg.deviated_ids():
        assert eg.state(eid).deviators() == ("0",)
    assert check_knowledge_invariant(eg) == []
    assert literal_knowledge_violations(eg) == []
    assert check_distance_characterization(eg) == []


def assert_one_complying_successor(eg) -> None:
    """Each Adam node at a non-deviated state has exactly one non-deviated
    successor, its complying one, and each at a deviated state has none."""
    for eid, state in enumerate(eve_states(eg)):
        for aid in eg.eve_succ[eid]:
            found = sum(not eg.state(sid).deviated for sid in eg.adam_succ[aid])
            assert found == (0 if state.deviated else 1), (state_key(state), aid)


def test_whole_game_checks_on_examples(eg1, eg2, eg3):
    for eg in (eg1, eg2, eg3):
        assert_one_complying_successor(eg)
        assert check_knowledge_invariant(eg) == []
        assert literal_knowledge_violations(eg) == []
        assert check_distance_characterization(eg) == []
        b = eg.size_bounds()
        assert b["eve_states"] <= b["eve_bound"]
        assert b["adam_states"] <= b["adam_bound"]


def test_adam_merging_by_successor_signature(eg1, eg2, eg3, random_instances):
    # The build makes one Adam node per distinct (reach tuple, complying
    # target) pair, and no two such pairs share a successor tuple, so there
    # is nothing to merge: the nodes of one Eve state differ in signature and
    # the states' id blocks tile the Adam ids in order.  Every node is
    # reachable again through the action it keeps.
    rng = random.Random(20261018)
    dense = [_dense_ring_game(rng, p, v) for p, v in ((2, 4), (3, 3), (3, 5), (4, 2))]
    cases = [(eg, True) for eg in (eg1, eg2, eg3)]
    cases += [(build_reachable(game, graph), False) for game, graph in dense]
    cases += [(eg, eg.adam_count() <= 5_000) for _game, _graph, eg in random_instances]
    for eg, round_trip in cases:
        for outs in eg.eve_succ:
            sigs = [eg.adam_succ[aid] for aid in outs]
            assert len(sigs) == len(set(sigs))
        assert [aid for outs in eg.eve_succ for aid in outs] == list(range(eg.adam_count()))
        if round_trip:
            for eid, outs in enumerate(eg.eve_succ):
                for aid in outs:
                    assert eg.adam_for_action(eid, eg.adam_action[aid]) == aid


def test_adam_for_action_rejects_move_function_of_wrong_length(eg1):
    # A move function is its suspects' moves in the state's order, one each.
    eid = next(i for i, s in enumerate(eve_states(eg1)) if state_key(s) == "v1p|2:2;3:3,4")
    assert eg1.adam_for_action(eid, (ALL_A, ALL_A)) in eg1.eve_succ[eid]
    for action in ((ALL_A,), (ALL_A,) * 3):
        with pytest.raises(InvalidInput,
                           match=f"move function has {len(action)} moves for 2 tracked suspects"):
            eg1.adam_for_action(eid, action)


def _adam_by_reach(eg, eid) -> dict:
    """(reach tuple, complying target) -> id of each Adam node of `eid`."""
    enc, key = eg._encoding, eg.keys[eid]
    return {action_reach(enc, key, eg.adam_action[aid]): aid for aid in eg.eve_succ[eid]}


def _within(small, large) -> bool:
    return all(s & ~l == 0 for s, l in zip(small, large))


def _joint_reaches(pruned, eid) -> set:
    """The reach tuples of the split state `eid` that join one kept reach
    tuple of each of its component states."""
    pairs = pruned.keys[eid][1]
    joins = [{}]  # per join so far: hypothesis position -> reach mask
    for c in pruned.split[eid]:
        at = [pairs.index(pair) for pair in pruned.keys[c][1]]
        kept = [reach for reach, _comply in _adam_by_reach(pruned, c)]
        joins = [{**join, **dict(zip(at, reach))} for join in joins for reach in kept]
    return {tuple(join[j] for j in range(len(pairs))) for join in joins}


def test_pruned_build_keeps_dominating_actions(eg1, pruned_pairs, game5, g1):
    # The pruned build keeps, in the full build's order and with its
    # actions, exactly the actions whose reach tuples have no other tuple of
    # the state with the same complying target strictly within them (every
    # action of a state with suspects has none), and every dropped one is
    # dominated: a kept one with its complying target reaches a subset of
    # its vertices under every hypothesis.  A kept action has the same
    # successors in both builds, and a dropped one resolves to an Adam node
    # made on demand, after the built ones, with the full build's
    # successors.  A split state keeps no action: the ⊆-minimal reach tuples
    # of the full build's state are exactly the joins of its component
    # states' kept tuples.  A state the full build lacks is a component
    # state of a split one.  Games above 5,000 Adam nodes are left to the
    # answer comparison in test_solver.py.  The lookups grow the pruned
    # game, so each is the test's own build.
    pairs = [(game5, g1, eg1)] + [(game, graph, full) for game, graph, full, _ in pruned_pairs]
    dropped = joins = 0
    for game, graph, full in pairs:
        if full.adam_count() > 5_000:
            continue
        pruned = _build(game, graph, pruned=True)
        full_keys = [state_key(s) for s in eve_states(full)]
        keys = [state_key(s) for s in eve_states(pruned)[:pruned.built[0]]]
        full_of = {k: e for e, k in enumerate(full_keys)}
        enc = pruned._encoding
        parts = {state_key(enc.state(part)) for key in pruned.keys
                 for part in epistemic.components(enc, key)}
        for eid, key in enumerate(keys):
            fid = full_of.get(key)
            if fid is None:
                assert key in parts, key
                continue
            want, got = _adam_by_reach(full, fid), _adam_by_reach(pruned, eid)
            if eid in pruned.split:
                assert not got
                minimal = {reach for reach, _comply in want
                           if not any(other != reach and _within(other, reach)
                                      for other, _c in want)}
                assert minimal == _joint_reaches(pruned, eid), key
                joins += 1
                dropped += len(want) - len(minimal)
                continue
            assert list(got) == [
                (reach, comply) for reach, comply in want
                if not any(c == comply and other != reach and _within(other, reach)
                           for other, c in want)]
            assert [pruned.adam_action[aid] for aid in got.values()] == \
                [full.adam_action[want[reach]] for reach in got]
            for reach, aid in got.items():
                assert [full_keys[s] for s in full.adam_succ[want[reach]]] == \
                    [keys[s] for s in pruned.adam_succ[aid]]
            for reach, comply in want.keys() - got.keys():
                assert any(c == comply and _within(kept, reach) for kept, c in got)
                dropped += 1
                aid = want[reach, comply]
                made = pruned.adam_for_action(eid, full.adam_action[aid])
                assert made >= pruned.built[1]
                assert [pruned.keys[s] for s in pruned.adam_succ[made]] == \
                    [full.keys[s] for s in full.adam_succ[aid]]
    assert dropped > 1000 and joins > 100


def _layout(eg):
    return eg.keys, eg.adam_action, eg.adam_succ, eg.eve_succ


# `build_reachable` without the tests' literal knowledge walk.
_build = getattr(epistemic.build_reachable, "__wrapped__", epistemic.build_reachable)


@pytest.fixture(scope="module")
def build_cases(random_instances, pruned_pairs, game5, g1, g2, g3, eg1, eg2, eg3):
    """(game, graph, full build, pruned build) for the random suite, the 20
    `wide` and `branchy` games, dense 3/8 and 4/4 and the bundled example
    under g1/g2/g3."""
    cases = pruned_pairs + [(game, graph, eg, _build(game, graph, pruned=True))
                            for game, graph, eg in random_instances
                            if eg.adam_count() > 20_000]
    cases += [(game5, graph, eg, _build(game5, graph, pruned=True))
              for graph, eg in ((g1, eg1), (g2, eg2), (g3, eg3))]
    assert len(cases) == 125
    return cases


def test_tabled_options_build_the_per_state_game(build_cases, monkeypatch):
    # The build reads each suspect's options from one table per (vertex,
    # suspect, informed mask) and each move's reach masks from grouped
    # moves.  Swapping in the enumeration that rebuilt them at every state
    # gives the same game, full and pruned.
    monkeypatch.setattr(epistemic, "_distinct_actions", per_state_distinct_actions)
    monkeypatch.setattr(Encoding, "moves", per_move_table)
    for game, graph, full, pruned in build_cases:
        assert _layout(_build(game, graph)) == _layout(full)
        assert _layout(_build(game, graph, pruned=True)) == _layout(pruned)


def test_shared_tables_build_the_per_state_memo_game(build_cases):
    # Every state's successors are resolved through the table of its grown
    # masks, shared with every other state that has them.  A fresh memo per
    # state gives the same keys, in the same order, and the same Adam nodes,
    # full and pruned (split states left unexpanded).
    for game, graph, full, pruned in build_cases:
        assert _layout(per_state_memo_build(game, graph)) == _layout(full)
        assert _layout(per_state_memo_build(game, graph, pruned=True, split=True)) == \
            _layout(pruned)


def _check_tables(eg) -> int:
    """Assert that every entry of `eg`'s resolution tables is the id of the
    key its slot names; returns the number of entries."""
    nv = len(eg.game.vertices)
    entries = 0
    for grown, table in eg._tables.items():
        for slot, sid in table.items():
            t, survivors = slot % nv, slot // nv
            key = (t, tuple(grown[j] for j in epistemic._bits(survivors)))
            assert eg._key_index[key] == sid
        entries += len(table)
    return entries


def test_table_entries_name_their_successors(build_cases):
    # A table entry maps (target, surviving hypotheses) to the Eve id of the
    # target with those hypotheses' grown masks, and a build keeps one table
    # per grown-mask tuple of the states it expanded.  The tables hold far
    # fewer entries than the build has Adam nodes.
    entries = adam = 0
    for _game, _graph, full, pruned in build_cases:
        for eg in (full, pruned):
            enc = eg._encoding
            expanded = [key for e, key in enumerate(eg.keys[:eg.built[0]])
                        if e not in eg.split]
            assert eg._tables.keys() == {expand(enc, key) for key in expanded}
            entries += _check_tables(eg)
            adam += eg.adam_count()
    assert entries < adam / 3


def _memo_free(enc, grown, reach, comply, resolve, memo=None):
    return successors(enc, grown, reach, comply, resolve)


def test_view_lookups_resolve_like_fresh_memos(pruned_pairs, pruned_solves, monkeypatch):
    # Reading a found profile on an EpistemicView and re-checking it resolves
    # every row and every policy action through the view's tables.  Without
    # any memo the view interns the same keys and makes the same Adam nodes,
    # in the same order, and the checks report the same.
    def replay(game, graph, data):
        view = EpistemicView(game, graph)
        strategy = EveStrategy.from_dict(view, data)
        return _layout(view), _verify_strategy(game, graph, view, strategy)

    profiles = [(game, graph, result.strategy.to_dict())
                for (game, graph, _full, _pruned), result in zip(pruned_pairs, pruned_solves)
                if result is not None]
    assert len(profiles) >= 30
    shared = [replay(*profile) for profile in profiles]
    monkeypatch.setattr(epistemic, "successors", _memo_free)
    assert [replay(*profile) for profile in profiles] == shared


def _copy_tables(eg) -> dict:
    return {grown: dict(table) for grown, table in eg._tables.items()}


def test_missing_successor_raises_and_stores_nothing(pruned_pairs):
    # An action the pruned build dropped can lead to a state the build never
    # made, and so can an action of a split state, which the build did not
    # expand.  The lookup makes that state on demand, so the one resolve
    # that raises is the interning of a new state at the state cap.  On a
    # build capped at its own size the lookup raises on every call and
    # stores nothing for the missing successor: the first call keeps every
    # entry and may add only the successors it resolved before the missing
    # one, each with its right id, and every later call leaves the tables
    # unchanged.  Uncapped, the lookup makes the Adam node and the missing
    # states, with ids after the built ones and the full build's successors.
    found = grew = splits = 0
    for game, graph, full, _pruned in pruned_pairs:
        if full.adam_count() > 5_000:
            continue
        pruned = _build(game, graph, pruned=True)
        capped = _build(game, graph, state_cap=pruned.eve_count(), pruned=True)
        full_of = {key: eid for eid, key in enumerate(full.keys)}
        for eid, key in enumerate(capped.keys):
            if key not in full_of:
                continue  # a component state (see the dominance test)
            for aid in full.eve_succ[full_of[key]]:
                if all(full.keys[s] in capped._key_index for s in full.adam_succ[aid]):
                    continue
                before = _copy_tables(capped)
                for call in range(3):
                    with pytest.raises(StateCapExceeded):
                        capped.adam_for_action(eid, full.adam_action[aid])
                    if call:
                        assert capped._tables == before
                    else:
                        assert all(capped._tables[grown].items() >= table.items()
                                   for grown, table in before.items())
                        grew += capped._tables != before
                        _check_tables(capped)
                        before = _copy_tables(capped)
                assert capped.built == (capped.eve_count(), capped.adam_count())
                got = pruned.adam_for_action(eid, full.adam_action[aid])
                assert got >= pruned.built[1]
                assert [pruned.keys[s] for s in pruned.adam_succ[got]] == \
                    [full.keys[s] for s in full.adam_succ[aid]]
                found += 1
                splits += eid in pruned.split
        _check_tables(pruned)
    assert found - splits > 100 and splits > 100 and grew, (found, splits, grew)


def _assert_expanded_as_plain(eg, game, graph) -> int:
    """Assert that the pruned build `eg`, its split states expanded, holds
    every state of the plain pruned build with the same set of successor-key
    tuples, that every other state of it is a component state of one of its
    states, and that it holds nothing made on demand; returns the number of
    those other states."""
    plain = plain_pruned_build(game, graph)
    assert not eg.split and eg.built == (eg.eve_count(), eg.adam_count())
    for p, key in enumerate(plain.keys):
        e = eg._key_index[key]
        assert {tuple(eg.keys[s] for s in eg.adam_succ[a]) for a in eg.eve_succ[e]} == \
            {tuple(plain.keys[s] for s in plain.adam_succ[a]) for a in plain.eve_succ[p]}
    enc = eg._encoding
    parts = {part for key in eg.keys for part in epistemic.components(enc, key)}
    others = set(eg.keys) - set(plain.keys)
    assert others <= parts
    _check_tables(eg)
    return len(others)


def test_expand_split_gives_the_plain_pruned_game(pruned_pairs, pruned_solves):
    # On the 20 `wide` and `branchy` games, `expand_split` drops what was
    # made on demand (here the Adam nodes of every full-build action of
    # every split state) and expands the split states: the game then holds
    # the plain pruned build, which expands every state, with the same
    # successors at each state, and only component states besides.  So do
    # the games `solve` expanded after its strategy had made nodes on demand
    # (`branchy` 6 and 8).
    with_others = fell_back = 0
    for (game, graph, full, pruned), result in family_solves(pruned_pairs, pruned_solves):
        eg = _build(game, graph, pruned=True)
        full_of = {key: e for e, key in enumerate(full.keys)}
        for e in list(eg.split):
            for aid in full.eve_succ[full_of[eg.keys[e]]]:
                eg.adam_for_action(e, full.adam_action[aid])
        assert eg.eve_count() > eg.built[0]
        eg.expand_split()
        with_others += _assert_expanded_as_plain(eg, game, graph) > 0
        if not result.strategy.eg.split:
            assert pruned.split
            fell_back += 1
            _assert_expanded_as_plain(result.strategy.eg, game, graph)
    assert (with_others, fell_back) == (7, 2)


def test_move_table_matches_sliced_reference(random_instances):
    # `Encoding.moves` finds each player's group of a move by index
    # arithmetic over the moves' numbering; the reference groups moves by
    # cutting that player's action out.  Besides the random suite, a game
    # whose players have 1, 2 and 3 actions at one vertex, and allowed sets
    # that differ between vertices.
    uneven = game_from_dict({
        "players": ["0", "1", "2"],
        "actions": ["a", "b", "c"],
        "vertices": ["s", "t", "u"],
        "init": "s",
        "allow": {"s": {"0": ["b"], "1": ["a", "c"]},
                  "t": {"0": ["a", "c"], "1": ["b"], "2": ["a", "b"]},
                  "u": {"2": ["c"]}},
        "transitions": {
            "s": [{"pattern": {"1": "c", "2": ["a", "c"]}, "to": "t"},
                  {"pattern": {"2": "b"}, "to": "u"},
                  {"pattern": "*", "to": "s"}],
            "t": [{"pattern": {"0": "c", "2": "b"}, "to": "s"},
                  {"pattern": {"2": "a"}, "to": "u"},
                  {"pattern": "*", "to": "t"}],
            "u": [{"pattern": {"0": "a", "1": "b"}, "to": "s"},
                  {"pattern": {"0": ["b", "c"]}, "to": "t"},
                  {"pattern": "*", "to": "u"}],
        },
        "payoff": {"rules": [], "default": [0, 0, 0]},
    })
    assert [len(uneven.allow["s"][a]) for a in uneven.players] == [1, 2, 3]
    checked = 0
    for game in [game for game, _graph, _eg in random_instances] + [uneven]:
        enc = Encoding(game, edgeless_graph(game.players))
        for v in range(len(game.vertices)):
            want = sliced_move_table(enc, v)
            assert list(enc.moves(v).items()) == list(want.items())
            assert enc.move_list(v) == list(want)
            checked += 1
    assert checked > 250
    # Every vertex of the uneven game has moves whose reach masks join
    # several targets.
    for v in range(3):
        assert any(r & (r - 1) for _t, reach in enc.moves(v).values() for r in reach)


def test_random_enabled_counts_agree(random_instances):
    rng = random.Random(5)
    checked = 0
    for game, graph, eg in random_instances:
        dev_ids = eg.deviated_ids()
        if not dev_ids:
            continue
        for eid in rng.sample(dev_ids, min(3, len(dev_ids))):
            state = eg.state(eid)
            if game.move_count(state.vertex) ** len(state.deviators()) > 50_000:
                continue
            enabled = set(enabled_eve_actions(game, state))
            assert enabled == brute_force_devfunctions(game, state)
            assert len(enabled) == count_enabled_eve_actions(game, state)
            # The build enumerates actions up to equal reach sets; every
            # enabled action must still resolve to one of its Adam nodes.
            for action in enabled:
                assert eg.adam_for_action(eid, action) in eg.eve_succ[eid]
            checked += 1
    assert checked >= 30


def test_random_suite_invariants(random_instances):
    assert len(random_instances) >= 100
    for _game, _graph, eg in random_instances:
        assert_one_complying_successor(eg)
        assert check_knowledge_invariant(eg) == []
        assert check_distance_characterization(eg) == []
        b = eg.size_bounds()
        assert b["eve_states"] <= b["eve_bound"]
        assert b["adam_states"] <= b["adam_bound"]


def test_random_games_are_varied():
    rng = random.Random(99)
    sizes = {len(random_game(rng).players) for _ in range(40)}
    assert len(sizes) >= 3


def _dense_ring_game(rng: random.Random, players: int, vertices: int) -> tuple:
    """Every action allowed everywhere, a random full transition table, and
    the ring communication graph 0 -> 1 -> ... -> 0."""
    names = tuple(str(i) for i in range(players))
    verts = tuple(f"v{i}" for i in range(vertices))
    game = ConcurrentGame(
        vertices=verts,
        init_vertex=verts[0],
        players=names,
        actions=("a", "b"),
        allow={v: {p: ("a", "b") for p in names} for v in verts},
        tab={v: {m: rng.choice(verts) for m in product("ab", repeat=players)} for v in verts},
        payoff=PayoffSpec((), (Fraction(0),) * players),
    )
    ring = frozenset((names[i], names[(i + 1) % players]) for i in range(players))
    return game, CommGraph(names, ring)


def _reference_view(eg):
    """The reference build's Adam records and signature tables, derived from
    a built game: the origin from `eve_succ`, the action's moves paired with
    the origin's suspect names, each successor labelled with its Eve state's
    vertex, the complying id as the one non-deviated successor, and per Eve
    state its nodes' signatures in id order."""
    states = eve_states(eg)
    origin = [None] * eg.adam_count()
    for eid, outs in enumerate(eg.eve_succ):
        for aid in outs:
            origin[aid] = eid

    def labelled(succ):
        return tuple((states[sid].vertex, sid) for sid in succ)

    def named(aid, action):
        state = states[origin[aid]]
        return tuple(zip(state.deviators(), action)) if state.deviated else action

    nodes = [
        AdamNode(origin[aid], named(aid, action), labelled(succ),
                 next((sid for sid in succ if not states[sid].deviated), None))
        for aid, (action, succ) in enumerate(zip(eg.adam_action, eg.adam_succ))
    ]
    sig_index = [[(labelled(eg.adam_succ[aid]), aid) for aid in outs] for outs in eg.eve_succ]
    return nodes, sig_index


def test_build_matches_reference(game5, g1, g2, g3):
    """The integer build gives the game the string-based reference build
    gives: the same Eve states in the same order, the same Adam nodes with
    the same origins, first actions, labelled successors and complying ids,
    and the same signature tables."""
    rng = random.Random(20261018)
    cases = [(game5, g) for g in (g1, g2, g3)]
    cases += [_dense_ring_game(rng, p, v) for p, v in ((2, 4), (3, 3), (3, 5), (4, 2))]
    while len(cases) < 110:
        game = random_game(rng)
        cases.append((game, random_comm(rng, game.players)))
    compared = 0
    for game, graph in cases:
        try:
            eg = build_reachable(game, graph, state_cap=150)
        except StateCapExceeded:
            continue
        ref = reference_build_reachable(game, graph)
        compared += 1
        assert eve_states(eg) == ref.eve_states
        assert [tuple(outs) for outs in eg.eve_succ] == ref.eve_succ
        assert eg.init == ref.init
        nodes, sig_index = _reference_view(eg)
        assert nodes == ref.adam_nodes  # origin, action, succ, comply
        assert sig_index == [list(d.items()) for d in ref.sig_index]
    assert compared >= 100


def test_every_reachable_key_reads_back(eg1, eg2, eg3, random_instances):
    # Every reachable state passes the distance characterization, so a
    # profile row can name each state a full build has.
    for eg in [eg1, eg2, eg3] + [eg for _, _, eg in random_instances]:
        assert [eg._encoding.key_of_text(state_key(s)) for s in eve_states(eg)] == eg.keys


def test_keys_read_back_with_separators_in_names():
    # Names may contain '|', ';', ':' and ',', the separators of a key.
    players = ["0", "0;1", "1,", "1:0"]
    game = game_from_dict(
        {
            "players": players,
            "actions": ["a", "b"],
            "vertices": ["s|t", "t"],
            "init": "s|t",
            "transitions": {
                "s|t": [{"pattern": {a: "a" for a in players}, "to": "s|t"},
                        {"pattern": "*", "to": "t"}],
                "t": [{"pattern": {"0;1": "b"}, "to": "t"}, {"pattern": "*", "to": "s|t"}],
            },
            "payoff": {"rules": [], "default": [0] * 4},
        }
    )
    graph = CommGraph(tuple(players), frozenset({("0", "0;1"), ("0;1", "1,"), ("1:0", "0")}))
    eg = build_reachable(game, graph)
    assert any(len(s.situations) > 1 for s in eve_states(eg))
    assert [eg.eve_for_key(state_key(s)) for s in eve_states(eg)] == list(range(eg.eve_count()))
    view = epistemic.EpistemicView(game, graph)
    for state in eve_states(eg):
        assert view.state(view.eve_for_key(state_key(state))) == state
    assert view.eve_for_key("s|t|0:0") is None


def test_states_render_from_their_keys(eg1, eg2, eg3, random_instances):
    # Every state a build renders is equal to one made afresh from its key,
    # with the same hash and text key.
    for eg in [eg1, eg2, eg3] + [eg for _game, _graph, eg in random_instances]:
        players = eg.game.players
        for (v, pairs), state in zip(eg.keys, eve_states(eg)):
            fresh = EveState(eg.game.vertices[v], tuple(
                Situation(players[d], tuple(b for i, b in enumerate(players) if m >> i & 1))
                for d, m in pairs))
            assert state == fresh and hash(state) == hash(fresh), state_key(fresh)
            assert state_key(state) == state_key(fresh)
