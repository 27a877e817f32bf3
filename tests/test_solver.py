"""Payoff enforcement: candidate selection, punishment regions, the full
search, strategy serialization, and the product model check."""
from __future__ import annotations

import random
import sys
from array import array
from itertools import chain
from fractions import Fraction
from pathlib import Path

import pytest

from equisynth import epistemic
from equisynth.epistemic import EveState, build_reachable, components, state_key
from equisynth.errors import InvalidInput, LarCapExceeded, StateCapExceeded, StrategyUndefined
from equisynth.game import CommGraph
from equisynth.parity import ParityGame, solve_parity
from equisynth.parsing import game_from_dict, parse_query
from equisynth.solver import (
    EveStrategy,
    _bfs_path,
    _layer_color_classes,
    _solve_layer,
    candidate_payoffs,
    model_check_strategy,
    punishment_region,
    recurring_sets,
    recurring_witness,
    solve,
    strongly_connected_components,
    zielonka_tree,
)
from equisynth.translate import check_deviation_resistance, check_normed, omega

from conftest import (
    benchmark_workloads,
    complete_strategy,
    random_comm,
    random_game,
    tamper_punishment,
    two_leaf_game,
)
from oracles import (
    brute_force_recurring_color_sets,
    check_parity_certificate,
    layered_punishment_region,
    muller_accepts_lasso,
    plain_pruned_build,
    random_lasso,
    record_punishment_win,
    strongly_connected_with_edge,
    seed_color_classes,
    successor_map,
    vertex_subset_table,
)

ALL_A = ("a",) * 5


def F(*xs):
    return tuple(Fraction(x) for x in xs)


P_MAIN = F(0, 0, 1, 1, 1)

# `build_reachable` without the tests' literal knowledge walk.
_build = getattr(epistemic.build_reachable, "__wrapped__", epistemic.build_reachable)


def test_candidate_payoffs_order_and_filter(game5):
    cands = candidate_payoffs(game5)
    assert cands[0] == P_MAIN
    assert cands[-1] == F(0, 0, 0, 0, 0)
    assert len(cands) == 7
    only = candidate_payoffs(game5, parse_query("p[2]=1 & p[3]=1 & p[4]=1"))
    assert only == [P_MAIN]
    assert candidate_payoffs(game5, parse_query("p[0]=5")) == []


def test_strongly_connected_components():
    comps = strongly_connected_components(5, [[1], [2], [0], [4], [3]])
    assert sorted(map(tuple, comps)) == [(0, 1, 2), (3, 4)]
    comps = strongly_connected_components(3, [[1], [2], []])
    assert sorted(map(tuple, comps)) == [(0,), (1,), (2,)]


def test_recurring_sets_and_color_classes_match_enumeration():
    rng = random.Random(20261018)
    witnessed = 0
    for _ in range(250):
        n = rng.randint(1, 10)
        succ = [rng.sample(range(n), rng.randint(0, min(n, 3))) for _ in range(n)]
        palette = list(range(rng.randint(1, 4)))
        color = [rng.choice(palette) for _ in range(n)]
        oracle = brute_force_recurring_color_sets(range(n), succ, color)
        for mask in range(1, 1 << len(palette)):
            witness = recurring_witness(range(n), succ, color, mask)
            assert (witness is not None) == (color_set(mask) in oracle), (succ, color, mask)
            if witness is not None:
                witnessed += 1
                assert strongly_connected_with_edge(set(witness), succ)
                assert {color[v] for v in witness} == color_set(mask)
        # The one search yields exactly the recurring sets it accepts, in
        # binary-counting order with the shared color as the top digit.
        shared = 1 << rng.choice(palette)
        accept = rng.choice([lambda cc: True, lambda cc: cc % 3 != 1])
        got = [cc for cc, _ in recurring_sets(range(n), succ, color, shared, accept)]
        want = [mask for mask in range(1, 1 << len(palette))
                if color_set(mask) in oracle and accept(mask)]
        assert got == sorted(want, key=lambda cc: (cc & shared, cc)), (succ, color)
    assert witnessed > 200

    # A layer's classes come from the game's vertices, whichever of them
    # the layer holds.
    layers = 0
    while layers < 300:
        game = random_game(rng)
        dev = tuple(sorted(rng.sample(game.players, rng.randint(1, len(game.players))),
                           key=game.player_index.__getitem__))
        seed = seed_color_classes(game, game.vertices)
        colors = game.colors
        assert colors.of == {v: c for c, cls in enumerate(seed) for v in cls}
        rest = [c for c, cls in enumerate(seed) if cls[0] not in game.payoff.atoms()]
        assert colors.shared == sum(1 << c for c in rest)
        for p in candidate_payoffs(game):
            classes, table = _layer_color_classes(game, p, dev)
            assert classes == tuple(map(tuple, seed))
            assert {color_set(mask): table[mask] for mask in range(1, len(table))} == \
                vertex_subset_table(game, p, dev, game.vertices, seed)
            layers += 1


def color_set(mask: int) -> frozenset[int]:
    return frozenset(c for c in range(mask.bit_length()) if mask >> c & 1)


def full_table(color_count, accept) -> tuple[bool, ...]:
    return (False, *(accept(color_set(mask)) for mask in range(1, 1 << color_count)))


def tree_accepts_lasso(prefix, cycle, tree) -> bool:
    """Run the tree automaton over the prefix, pump the cycle until the
    (cycle position, leaf) pair repeats, and read the top priority on the
    loop."""
    leaf = 0
    for c in prefix:
        leaf = tree[leaf][c][0]
    seen: dict[tuple[int, int], int] = {}
    out: list[int] = []
    pos = 0
    while (pos, leaf) not in seen:
        seen[(pos, leaf)] = len(out)
        leaf, prio = tree[leaf][cycle[pos]]
        out.append(prio)
        pos = (pos + 1) % len(cycle)
    return max(out[seen[(pos, leaf)]:]) % 2 == 0


def test_tree_automaton_matches_direct_evaluation():
    rng = random.Random(20261019)
    leaves = set()
    for _ in range(500):
        color_count = rng.randint(1, 5)
        prefix, cycle, accept = random_lasso(rng, color_count)
        tree = zielonka_tree(color_count, full_table(color_count, accept))
        leaves.add(len(tree))
        assert tree_accepts_lasso(prefix, cycle, tree) == \
            muller_accepts_lasso(prefix, cycle, accept), (color_count, prefix, cycle)
    assert max(leaves) > 2


def test_parity_table_gives_one_leaf():
    rng = random.Random(7)
    for _ in range(100):
        color_count = rng.randint(1, 6)
        prio = [rng.randrange(2 * color_count) for _ in range(color_count)]
        accept = lambda cs: max(prio[c] for c in cs) % 2 == 0
        tree = zielonka_tree(color_count, full_table(color_count, accept))
        assert len(tree) == 1
        # Positional: the only leaf emits an even priority exactly on a color
        # of even priority, and higher for higher ones.
        row = tree[0]
        for a in range(color_count):
            assert row[a][1] % 2 == prio[a] % 2
            for b in range(color_count):
                if prio[a] < prio[b]:
                    assert row[a][1] <= row[b][1]


def test_punishment_region_matches_record_oracle(eg1, eg2, eg3, random_instances):
    # The record oracle's product is k!-shaped: on the two random instances
    # with over 30,000 Adam nodes it takes a minute, so games that large are
    # replaced by further draws of the same generator.
    small = [eg for _game, _graph, eg in random_instances if eg.adam_count() <= 20_000]
    rng = random.Random(20261020)
    while len(small) < 100:
        game = random_game(rng)
        eg = build_reachable(game, random_comm(rng, game.players), state_cap=50_000)
        if eg.adam_count() <= 20_000:
            small.append(eg)
    layers = 0
    for eg in [eg1, eg2, eg3] + small:
        for p in candidate_payoffs(eg.game):
            sol = punishment_region(eg, p)
            assert sol.win == record_punishment_win(eg, p), (eg.game, p)
            layers += len(sol.layers)
    assert layers > 700


def test_region_game_matches_layered_reference(eg1, eg2, eg3, pruned_pairs):
    # One parity game for the whole region against one product per layer:
    # the bundled games, the full and pruned builds of the random instances
    # with at most 20,000 Adam nodes, of `wide`, of `branchy` (whose layers
    # include two-leaf trees) and of dense 3/8 and 4/4.  Win regions are
    # unique; the strategies may differ.  A split state has no entry: Eve
    # does not move there.
    games = [eg1, eg2, eg3] + [eg for *_, full, pruned in pruned_pairs for eg in (full, pruned)]
    multi_leaf = 0
    for eg in games:
        for p in candidate_payoffs(eg.game):
            got, want = punishment_region(eg, p), layered_punishment_region(eg, p)
            assert got.win == want.win, (eg.game, p)
            assert got.layers.keys() == want.layers.keys()
            for dev, table in got.layers.items():
                assert {key for key in table.entries if key[1] == 0} == \
                    {(e, 0) for e in got.win
                     if eg.eve_states[e].deviators() == dev and e not in eg.split}
                multi_leaf += len(table.tree) > 1
    assert multi_leaf > 100


def test_punishment_region_membership(game5, g1, g3, eg1, eg3):
    golden = successor_map(game5, g1, EveState("v0", ()), ALL_A)["v1p"]
    sol1 = punishment_region(eg1, P_MAIN)
    assert eg1.eve_states.index(golden) in sol1.win

    golden_g3 = successor_map(game5, g3, EveState("v0", ()), ALL_A)["v1p"]
    assert state_key(golden_g3) == "v1p|2:2;3:3;4:0,4"
    sol3 = punishment_region(eg3, P_MAIN)
    assert eg3.eve_states.index(golden_g3) not in sol3.win


def test_punishment_region_vacuous_bound(eg1):
    # With the componentwise maximum as the bound nothing can exceed it.
    top = F(0, 0, 3, 3, 3)
    sol = punishment_region(eg1, top)
    assert sol.win == frozenset(eg1.deviated_ids())


def test_punishment_layers_shrink(eg1):
    sol = punishment_region(eg1, P_MAIN)
    for dev, table in sol.layers.items():
        for (eid, _rec) in table.entries:
            state = eg1.eve_states[eid]
            assert tuple(state.deviators()) == dev


def test_solve_example_verdicts(eg1, eg2, eg3):
    inf = frozenset({"v0", "v1"})
    r1 = solve(eg1, main_inf=inf)
    r2 = solve(eg2, main_inf=inf)
    assert r1 is not None and r1.payoff == P_MAIN
    assert r2 is not None and r2.payoff == P_MAIN
    assert frozenset(r1.lasso_cycle) == inf
    assert solve(eg3, main_inf=inf) is None


def test_solve_unsatisfiable_query(eg1):
    assert solve(eg1, query=parse_query("p[0]=5")) is None


def test_solve_top_vector_under_any_graph(eg1, eg2, eg3):
    q = parse_query("p=(0,0,3,3,3)")
    for eg in (eg1, eg2, eg3):
        res = solve(eg, query=q)
        assert res is not None
        assert res.payoff == F(0, 0, 3, 3, 3)
        assert frozenset(res.lasso_cycle) == frozenset({"v0p"})


def test_solve_respects_main_inf_exactly(eg1):
    # {v1} alone cannot recur: the complying step leaves it every time.
    assert solve(eg1, main_inf=frozenset({"v1"})) is None


def test_solve_skips_candidates_main_inf_cannot_pay(eg3, game5, monkeypatch):
    # Of the seven candidates, only the one {v0, v1} pays gets a punishment
    # solve.
    calls = []

    def counted(eg, p, *rest):
        calls.append(p)
        return punishment_region(eg, p, *rest)

    monkeypatch.setattr("equisynth.solver.punishment_region", counted)
    inf = frozenset({"v0", "v1"})
    assert solve(eg3, main_inf=inf) is None
    assert calls == [game5.payoff.value(inf)]
    assert len(candidate_payoffs(game5)) == 7


def test_solve_skips_candidates_no_color_set_pays(monkeypatch):
    # Every set that meets inf(a) & inf(b) meets the first rule, so no color
    # set pays (2,2): it is tried without a punishment solve.  a and b are
    # unreachable, so (1,1) is solved and lost, and the default is found.
    game = game_from_dict({
        "players": ["0", "1"], "actions": ["x"], "vertices": ["c", "a", "b"],
        "init": "c",
        "transitions": {"c": [{"pattern": "*", "to": "c"}],
                        "a": [{"pattern": "*", "to": "b"}],
                        "b": [{"pattern": "*", "to": "a"}]},
        "payoff": {"rules": [{"if": "inf(a) | inf(b)", "then": [1, 1]},
                             {"if": "inf(a) & inf(b)", "then": [2, 2]}],
                   "default": [0, 0]},
    })
    calls = []

    def counted(eg, p, *rest):
        calls.append(p)
        return punishment_region(eg, p, *rest)

    monkeypatch.setattr("equisynth.solver.punishment_region", counted)
    eg = build_reachable(game, CommGraph(game.players, frozenset()), pruned=True)
    result = solve(eg)
    assert result.payoff == F(0, 0)
    assert result.candidates_tried == candidate_payoffs(game) == [F(1, 1), F(2, 2), F(0, 0)]
    assert calls == [F(1, 1), F(0, 0)]


def test_solve_records_candidates(eg1, game5):
    res = solve(eg1, main_inf=frozenset({"v0", "v1"}))
    assert res.candidates_tried[-1] == res.payoff
    all_cands = candidate_payoffs(game5)
    assert res.candidates_tried == all_cands[: len(res.candidates_tried)]


def test_lar_cap_enforced(eg1):
    # Only the layers whose trees have two or more leaves add nodes to the
    # region game; the cap bounds those nodes, per layer.
    eg = build_reachable(*two_leaf_game(), pruned=True)
    with pytest.raises(LarCapExceeded, match=r"suspects \{2\}: 2 tree leaves"):
        solve(eg, lar_cap=3)
    # Its largest layer, with suspects {0,1,2}, adds 158 nodes.
    assert solve(eg, lar_cap=158) is not None
    with pytest.raises(LarCapExceeded, match=r"suspects \{0,1,2\}"):
        solve(eg, lar_cap=157)
    # Every layer of the bundled game under g1 has a one-leaf tree.
    assert solve(eg1, lar_cap=1).strategy.to_dict() == solve(eg1).strategy.to_dict()


def test_one_leaf_layers_add_no_product_node(eg1, monkeypatch):
    # A layer whose Zielonka tree has one leaf is solved on the epistemic
    # game's own nodes: Eve id e is node e and Adam id a node E + a.
    added: dict[int, int] = {}  # leaves -> nodes added by layers of that many

    def counted(region, *args):
        before = len(region.owner)
        table = _solve_layer(region, *args)
        leaves = len(table.tree)
        added[leaves] = added.get(leaves, 0) + len(region.owner) - before
        return table

    monkeypatch.setattr("equisynth.solver._solve_layer", counted)
    for eg in (eg1, build_reachable(*two_leaf_game(), pruned=True)):
        for p in candidate_payoffs(eg.game):
            punishment_region(eg, p)
    assert added[1] == 0
    assert added[2] > 0


def test_model_check_accepts_solution(eg1):
    res = solve(eg1, main_inf=frozenset({"v0", "v1"}))
    report = model_check_strategy(eg1, res.strategy, res.payoff)
    assert report.ok
    assert report.violations == []
    assert frozenset(report.complying_cycle) == frozenset({"v0", "v1"})
    assert report.complying_payoff == P_MAIN


def test_model_check_rejects_wrong_payoff(eg1):
    res = solve(eg1, main_inf=frozenset({"v0", "v1"}))
    report = model_check_strategy(eg1, res.strategy, F(0, 0, 2, 2, 2))
    assert not report.ok


def test_model_check_reads_adam_ids(eg1, monkeypatch):
    # A solved strategy already chooses Adam ids; the model check must not
    # resolve any action tuple again.
    res = solve(eg1, main_inf=frozenset({"v0", "v1"}))

    def forbidden(*_args):
        raise AssertionError("adam_for_action called during the model check")

    monkeypatch.setattr(eg1, "adam_for_action", forbidden)
    report = model_check_strategy(eg1, res.strategy, res.payoff)
    assert report.ok


def test_model_check_node_cap(eg1, monkeypatch):
    res = solve(eg1, main_inf=frozenset({"v0", "v1"}))
    monkeypatch.setattr("equisynth.solver.VERIFY_NODE_CAP", 5)
    # The message names the stage and how far it got.
    with pytest.raises(StateCapExceeded) as exc:
        model_check_strategy(eg1, res.strategy, res.payoff)
    assert str(exc.value) == "verification product exceeded 5 nodes: 2 nodes expanded"


class StationaryAllA:
    """Suggest the same move everywhere, under every hypothesis."""

    def __init__(self, eg):
        self.eg = eg

    def initial(self):
        return ("s", None)

    def action(self, eve_id, mem):
        state = self.eg.eve_states[eve_id]
        if not state.deviated:
            return self.eg.adam_for_action(eve_id, ALL_A)
        return self.eg.adam_for_action(eve_id, (ALL_A,) * len(state.deviators()))

    def advance(self, mem, eve_id, next_eve_id):
        return mem


class LeavesTheComplyingRegion:
    """Choose everywhere an Adam node of a deviated state, so the complying
    outcome has nowhere to go after the initial state."""

    def __init__(self, eg):
        self.aid = eg.eve_succ[eg.deviated_ids()[0]][0]

    def initial(self):
        return 0

    def action(self, eve_id, mem):
        return self.aid

    def advance(self, mem, eve_id, next_eve_id):
        return mem


def test_model_check_complying_outcome_must_stay_complying(eg1):
    # Every successor of a deviated state's Adam node has suspects, so the
    # policy's own play leaves the states without suspects: no payoff can be
    # read off it, and the check raises instead of reporting a violation.
    with pytest.raises(StrategyUndefined, match="complying outcome left the complying region"):
        model_check_strategy(eg1, LeavesTheComplyingRegion(eg1), P_MAIN)


def test_strategy_is_undefined_off_its_complying_track(eg1):
    # At a state without suspects a strategy answers only where its lasso
    # is at that position; another complying state there is outside it.
    strategy = solve(eg1, main_inf=frozenset({"v0", "v1"})).strategy
    on_track, aid = (strategy.prefix or strategy.cycle)[0]
    off = next(e for e, s in enumerate(eg1.eve_states) if not s.deviated and e != on_track)
    assert strategy.action(on_track, 0) == aid
    with pytest.raises(StrategyUndefined, match="complying track expected state"):
        strategy.action(off, 0)


def test_bfs_path_without_a_path_is_an_error():
    # The lasso search asks only for targets the p-safe graph reaches; a
    # missing path is a fault in the search, not a verdict.
    succ = {0: [1], 1: [0], 2: []}
    assert _bfs_path(0, {1}, succ.__getitem__) == [0, 1]
    with pytest.raises(RuntimeError, match="no path in p-safe graph"):
        _bfs_path(0, {2}, succ.__getitem__)


def test_model_check_rejects_bad_stationary_strategy(eg1):
    report = model_check_strategy(eg1, StationaryAllA(eg1), P_MAIN)
    assert not report.ok
    assert any(
        "recurring vertices {v1p}" in v and "(0,0,2,2,2)" in v for v in report.violations
    )


def test_strategy_round_trip(eg1):
    res = solve(eg1, main_inf=frozenset({"v0", "v1"}))
    data = res.strategy.to_dict()
    assert data["format"] == "equisynth-profile-v4"
    assert data["payoff"] == ["0", "0", "1", "1", "1"]
    again = EveStrategy.from_dict(eg1, data)
    report = model_check_strategy(eg1, again, res.payoff)
    assert report.ok
    assert again.to_dict() == data


def test_strategy_rejects_foreign_game(eg1, eg3):
    res = solve(eg1, main_inf=frozenset({"v0", "v1"}))
    data = res.strategy.to_dict()
    with pytest.raises(InvalidInput):
        EveStrategy.from_dict(eg3, data)


def test_strategy_rejects_corrupt_key(eg1):
    res = solve(eg1, main_inf=frozenset({"v0", "v1"}))
    data = res.strategy.to_dict()
    data["comply"]["cycle"][0]["key"] = "v9|-"
    with pytest.raises(InvalidInput):
        EveStrategy.from_dict(eg1, data)


def test_strategy_tamper_changes_verdict(eg1):
    res = solve(eg1, main_inf=frozenset({"v0", "v1"}))
    data = tamper_punishment(complete_strategy(eg1, res).to_dict())
    tampered = EveStrategy.from_dict(eg1, data)
    report = model_check_strategy(eg1, tampered, res.payoff)
    assert not report.ok
    assert any("{v1p} with suspects {2,3,4}" in v for v in report.violations)


def test_pruned_build_gives_the_full_answers(pruned_pairs, pruned_solves):
    # Dominance pruning keeps every win region, verdict and lasso, and its
    # profiles pass every check on the full build.  Every state of the
    # pruned build is one of the full build's, or a component state of a
    # split one, which the full game need not reach.
    found = 0
    for (game, graph, full, pruned), solved in zip(pruned_pairs, pruned_solves):
        full_keys = list(map(state_key, full.eve_states))
        keys = list(map(state_key, pruned.eve_states[:pruned.built[0]]))
        enc = pruned._encoding
        parts = {state_key(enc.state(part)) for key in pruned._keys
                 for part in components(enc, key)}
        assert set(keys) - set(full_keys) <= parts
        for p in candidate_payoffs(game):
            want, got = punishment_region(full, p), punishment_region(pruned, p)
            assert {keys[e] for e in got.win} & set(full_keys) == \
                {full_keys[e] for e in want.win} & set(keys), (game, p)
            # Classes and trees come from the game, not from the layer's
            # states.  A layer of component states only is not in the full
            # build.
            for dev, table in got.layers.items():
                if dev not in want.layers:
                    assert all(keys[e] in parts for e, _leaf in table.entries)
                    continue
                assert (table.classes, table.tree) == \
                    (want.layers[dev].classes, want.layers[dev].tree)
        want, got = solve(full), solved
        assert (want is None) == (got is None), game
        if got is None:
            continue
        found += 1
        assert (got.payoff, got.lasso_prefix, got.lasso_cycle, got.candidates_tried) == \
            (want.payoff, want.lasso_prefix, want.lasso_cycle, want.candidates_tried)
        strategy = EveStrategy.from_dict(full, got.strategy.to_dict())
        assert model_check_strategy(full, strategy, got.payoff).ok
        profile = omega(full, strategy)
        assert check_normed(game, graph, profile).ok
        assert check_deviation_resistance(full, profile, got.payoff).ok
    assert found >= 50


def _unnamed(result, game) -> tuple:
    """The lasso of a solve as vertex positions and its profile with every
    vertex and action name replaced by its position in the game's lists."""
    vpos, apos = game.vertex_index, game.action_index

    def action(raw):
        if isinstance(raw, dict):
            return {d: action(m) for d, m in raw.items()}
        return [apos[a] for a in raw]

    def row(r: dict) -> dict:
        vertex, rest = r["key"].split("|", 1)
        return {**r, "key": f"{vpos[vertex]}|{rest}", "action": action(r["action"])}

    profile = result.strategy.to_dict()
    profile["comply"] = {part: list(map(row, rows))
                         for part, rows in profile["comply"].items()}
    profile["punish"] = list(map(row, profile["punish"]))
    lasso = [[vpos[v] for v in part] for part in (result.lasso_prefix, result.lasso_cycle)]
    return lasso, profile


def test_renaming_leaves_the_answer_as_it_is():
    # Two renamings of every `wide` and `branchy` structure, drawn as the
    # benchmark draws them, solve to the same lasso and profile up to the
    # names.  Under seeds 1 and 6 a search that tried color sets in name
    # order would pick different lassos on four `branchy` structures.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    varying = []
    for family in ("wide", "branchy"):
        for i, structure in enumerate(workloads.family(family)):
            answers = []
            for seed in (1, 6):
                rng = random.Random(f"{family}:{seed}:{i}")
                vperm = rng.sample(range(structure.vertices), structure.vertices)
                aperm = rng.sample(range(structure.actions), structure.actions)
                game, graph = workloads.materialize(structure, vperm, aperm)
                answers.append(_unnamed(solve(build_reachable(game, graph, pruned=True)), game))
            if answers[0] != answers[1]:
                varying.append(f"{family}-{i:02d}")
    assert not varying


def _certified(captured: list):
    """`solve_parity` that also checks its answer with the certificate
    oracle, and counts in `captured` each game it solved."""
    def solve_and_check(pg, blocks=None, weight=None):
        blocks = [list(block) for block in blocks]
        winner, move = solve_parity(pg, blocks, weight)
        assert sorted(chain.from_iterable(blocks)) == list(range(pg.node_count()))
        assert check_parity_certificate(pg, winner, move) == []
        captured.append((pg, winner, move))
        return winner, move

    return solve_and_check


def test_punishment_solves_are_certified(pruned_pairs, monkeypatch):
    # Both players' positional strategies of every candidate's region game
    # win on their regions: closed, and every cycle with the right top
    # priority.  The full and pruned builds of `pruned_pairs`, which hold
    # the random suite but for its two games above 20,000 Adam nodes (their
    # certificates alone take 1.8 s), AND nodes included.
    captured: list = []
    monkeypatch.setattr("equisynth.solver.solve_parity", _certified(captured))
    and_nodes = 0
    for eg in [eg for *_, full, pruned in pruned_pairs for eg in (full, pruned)]:
        for p in candidate_payoffs(eg.game):
            punishment_region(eg, p)
            and_nodes += len(eg.split)
    assert len(captured) > 500 and and_nodes > 500


def test_certificate_catches_a_flipped_winner_or_move(monkeypatch):
    # On the region games of the two-leaf `branchy` game, flipping the
    # winner of any node, or sending a move to a successor its player
    # loses, fails the certificate.
    captured: list = []
    monkeypatch.setattr("equisynth.solver.solve_parity", _certified(captured))
    eg = build_reachable(*two_leaf_game(), pruned=True)
    for p in candidate_payoffs(eg.game):
        punishment_region(eg, p)
    flips = moves = 0
    for pg, winner, move in captured:
        for v in range(0, pg.node_count(), 7):
            flipped = bytearray(winner)
            flipped[v] ^= 1
            assert check_parity_certificate(pg, flipped, move), v
            flips += 1
            lost = [w for w in pg.succ[v] if winner[w] != winner[v]]
            if winner[v] == pg.owner[v] and lost:
                bad = array("i", move)
                bad[v] = lost[0]
                assert check_parity_certificate(pg, winner, bad), v
                moves += 1
    assert flips > 100 and moves > 10


def _seed_one(family: str) -> list:
    """The (game, graph) pairs of a benchmark family, named as the
    benchmark names them under seed 1."""
    workloads = benchmark_workloads()
    games = []
    for i, structure in enumerate(workloads.family(family)):
        rng = random.Random(f"{family}:1:{i}")
        vperm = rng.sample(range(structure.vertices), structure.vertices)
        aperm = rng.sample(range(structure.actions), structure.actions)
        games.append(workloads.materialize(structure, vperm, aperm))
    return games


def test_split_states_answer_as_the_plain_build(random_instances, game5, g1, g2, g3):
    # A split state's winner comes from its components' (an AND node), and
    # the build does not expand it.  On every candidate the winners equal
    # those of the plain pruned build, which expands every state and has no
    # AND node, on every state both builds have: the random suite, `wide`
    # and `branchy` at seed 1 and the bundled game under g1-g3.
    games = [(game, graph) for game, graph, _eg in random_instances]
    games += _seed_one("wide") + _seed_one("branchy")
    games += [(game5, graph) for graph in (g1, g2, g3)]
    checked = 0
    for game, graph in games:
        split, plain = _build(game, graph, pruned=True), plain_pruned_build(game, graph)
        keys = list(map(state_key, split.eve_states))
        plain_of = {state_key(s): e for e, s in enumerate(plain.eve_states)}
        both = [(e, plain_of[key]) for e, key in enumerate(keys) if key in plain_of]
        for p in candidate_payoffs(game):
            got, want = punishment_region(split, p).win, punishment_region(plain, p).win
            assert [e in got for e, _ in both] == [f in want for _, f in both], (game, p)
            checked += sum(e in split.split for e, _ in both)
    assert checked > 1000


def test_certificate_peels_to_a_losing_cycle():
    # Node 0 (Eve, priority 1) loops or moves to node 1 (Eve, priority 2),
    # which loops: Eve wins both by moving on, and staying put is closed in
    # her region but loops on an odd top priority.  With node 0 Adam's,
    # Adam wins both by looping at 0: the part {0, 1} has an even top, and
    # the cycle found once node 1 is peeled off has an odd one.
    pg = ParityGame(owner=[0, 0], priority=[1, 2], succ=[[0, 1], [1]])
    assert check_parity_certificate(pg, bytearray(2), array("i", [1, 1])) == []
    assert check_parity_certificate(pg, bytearray(2), array("i", [0, 1])) == \
        ["player 0: a cycle through node 0 has top priority 1"]
    pg = ParityGame(owner=[1, 0], priority=[1, 2], succ=[[0, 1], [0]])
    assert check_parity_certificate(pg, bytearray(2), array("i", [-1, 0])) == \
        ["player 0: a cycle through node 0 has top priority 1"]
    assert check_parity_certificate(pg, bytearray(b"\x01\x01"), array("i", [0, -1])) == []
