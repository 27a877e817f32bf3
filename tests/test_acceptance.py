"""Acceptance checks.

Each test covers one numbered criterion and records a single pass/fail
line; the terminal summary hook in conftest prints the collected lines
after the run, so the verdicts are visible in a plain
``pytest tests/test_acceptance.py`` invocation.  Criteria with a time
budget fail when the budget is exceeded.
"""
from __future__ import annotations

import functools
import json
import random
import time

from equisynth.cli import main as cli_main
from equisynth.epistemic import (
    EveState,
    build_reachable,
    check_distance_characterization,
    check_knowledge_invariant,
    derive_knowledge,
    knowledge_violations,
)
from equisynth.parsing import parse_query
from equisynth.solver import model_check_strategy, solve
from equisynth.translate import (
    check_deviation_resistance,
    check_normed,
    omega,
    upsilon,
)

from oracles import (
    brute_force_devfunctions,
    brute_force_parity_regions,
    check_positional_strategy,
    complete_graph,
    edgeless_graph,
    enabled_eve_actions,
    eve_states,
    literal_knowledge_violations,
    muller_accepts_lasso,
    parity_accepts_lasso,
    parity_regions,
    random_lasso,
    random_parity_game,
    successor_map,
)

ALL_A = ("a", "a", "a", "a", "a")

# One line per executed criterion; printed by conftest's terminal summary.
RESULTS: list[str] = []


def criterion(num: int, label: str, limit: float | None = None):
    """Run the test body, then record `criterion N [pass|FAIL] label (t)`."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                _announce(num, label, False, elapsed, limit)
                raise
            elapsed = time.perf_counter() - start
            ok = limit is None or elapsed < limit
            _announce(num, label, ok, elapsed, limit)
            assert ok, f"criterion {num} exceeded its {limit:.0f}s budget: {elapsed:.2f}s"

        return wrapper

    return decorate


def _announce(num, label, ok, elapsed, limit):
    budget = f", limit {limit:.0f}s" if limit is not None else ""
    status = "pass" if ok else "FAIL"
    line = f"criterion {num:2d} [{status}] {label} ({elapsed:.2f}s{budget})"
    RESULTS.append(line)
    print(line, flush=True)


@criterion(1, "golden suspect state after one deviated step", limit=1.0)
def test_criterion_01_golden_state(game5, g1):
    state = successor_map(game5, g1, EveState("v0", ()), ALL_A)["v1p"]
    assert state.vertex == "v1p"
    assert state.deviators() == ("2", "3", "4")
    assert state.informed("2") == ("2",)
    assert state.informed("3") == ("3", "4")
    assert state.informed("4") == ("0", "4")
    table = {
        "2": {"0": {"2", "3"}, "1": {"2", "3", "4"}, "3": {"2", "4"}, "4": {"2"}},
        "3": {"0": {"2", "3"}, "1": {"2", "3", "4"}, "2": {"3", "4"}},
        "4": {"1": {"2", "3", "4"}, "2": {"3", "4"}, "3": {"2", "4"}},
    }
    for d, per_player in table.items():
        for player, expected in per_player.items():
            assert derive_knowledge(state, d, player) == frozenset(expected), (d, player)
        for informed in state.informed(d):
            assert derive_knowledge(state, d, informed) == frozenset({d})


@criterion(2, "solve verdicts across the three communication graphs", limit=30.0)
def test_criterion_02_solve_verdicts(tmp_path):
    from equisynth import asset_path

    verdicts = {}
    for name, comm in (("G1", "comm_g1.json"), ("G2", "comm_g2.json"), ("G3", "comm_g3.json")):
        out = tmp_path / f"{name}.json"
        code = cli_main([
            "solve",
            "--game", str(asset_path("five_player_game.json")),
            "--comm", str(asset_path(comm)),
            "--predicate", "p=(0,0,1,1,1)",
            "--main-inf", "v0,v1",
            "--format", "json",
            "--out", str(out),
        ])
        report = json.loads(out.read_text())
        verdicts[name] = (code, report["status"])
    assert verdicts["G1"] == (0, "found")
    assert verdicts["G2"] == (0, "found")
    assert verdicts["G3"] == (1, "not-found")


@criterion(3, "enabled move functions match brute force", limit=5.0)
def test_criterion_03_enabled_functions(game5, g1):
    deviated = successor_map(game5, g1, EveState("v0", ()), ALL_A)["v1p"]
    state = EveState("v0", deviated.situations)
    enabled = set(enabled_eve_actions(game5, state))
    assert enabled == brute_force_devfunctions(game5, state)
    assert len(enabled) == 1024


@criterion(4, "knowledge invariant on random games", limit=120.0)
def test_criterion_04_knowledge_invariant(random_instances):
    # The literal knowledge update is replayed over every built instance and
    # its sets are checked against the characterization the build relies on.
    assert len(random_instances) >= 100
    for _, _, eg in random_instances:
        assert check_knowledge_invariant(eg) == []
        assert literal_knowledge_violations(eg) == []


@criterion(5, "informed-set distance characterization", limit=120.0)
def test_criterion_05_distance_characterization(random_instances):
    assert len(random_instances) >= 100
    for _, _, eg in random_instances:
        assert check_distance_characterization(eg) == []


@criterion(6, "state space size bounds")
def test_criterion_06_size_bounds(random_instances, eg1, eg2, eg3):
    for eg in [eg1, eg2, eg3] + [eg for _, _, eg in random_instances]:
        b = eg.size_bounds()
        assert b["eve_states"] <= b["eve_bound"]
        assert b["adam_states"] <= b["adam_bound"]


@criterion(7, "parity solver vs positional enumeration", limit=60.0)
def test_criterion_07_parity_oracle():
    rng = random.Random(1311)
    for _ in range(200):
        pg = random_parity_game(rng, max_nodes=8)
        expected_w0, expected_w1 = brute_force_parity_regions(pg)
        w0, w1, s0, s1 = parity_regions(pg)
        assert w0 == expected_w0 and w1 == expected_w1
        assert check_positional_strategy(pg, w0, s0)


@criterion(8, "record reduction vs direct recurrence check")
def test_criterion_08_lar_reduction():
    rng = random.Random(8151)
    for _ in range(500):
        color_count = rng.randint(1, 5)
        prefix, cycle, accept = random_lasso(rng, color_count)
        direct = muller_accepts_lasso(prefix, cycle, accept)
        reduced = parity_accepts_lasso(prefix, cycle, color_count, accept)
        assert direct == reduced, (color_count, prefix, cycle)


@criterion(9, "profile round-trip for every found strategy")
def test_criterion_09_round_trip(eg1, eg2, eg3):
    exact = parse_query("p=(0,0,1,1,1)")
    top = parse_query("p=(0,0,3,3,3)")
    main = frozenset({"v0", "v1"})
    runs = [
        solve(eg1, query=exact, main_inf=main),
        solve(eg2, query=exact, main_inf=main),
        solve(eg3, query=exact, main_inf=main),
        solve(eg1, query=top),
        solve(eg2, query=top),
        solve(eg3, query=top),
        solve(eg1),
    ]
    found = [r for r in runs if r is not None]
    assert len(found) >= 5
    for res in found:
        eg = res.strategy.eg
        profile = omega(eg, res.strategy)
        normed = check_normed(eg.game, eg.graph, profile)
        assert normed.ok, normed.violations
        resist = check_deviation_resistance(eg, profile, res.payoff)
        assert resist.ok, resist.violations
        mc = model_check_strategy(eg, upsilon(eg, profile), res.payoff)
        assert mc.ok, mc.violations
        assert frozenset(mc.complying_cycle) == frozenset(res.lasso_cycle)


@criterion(10, "edgeless and complete graph informed sets")
def test_criterion_10_extreme_graphs(game5):
    edgeless = build_reachable(game5, edgeless_graph(game5.players))
    deviated = [s for s in eve_states(edgeless) if s.deviated]
    assert deviated
    for state in deviated:
        for situation in state.situations:
            assert situation.informed == (situation.deviator,)
        assert knowledge_violations(state, game5.players) == []
    assert literal_knowledge_violations(edgeless) == []

    everyone = tuple(game5.players)
    complete = build_reachable(game5, complete_graph(game5.players))
    deviated = [s for s in eve_states(complete) if s.deviated]
    assert deviated
    for state in deviated:
        for situation in state.situations:
            assert situation.informed == everyone
        assert knowledge_violations(state, game5.players) == []
    assert literal_knowledge_violations(complete) == []
