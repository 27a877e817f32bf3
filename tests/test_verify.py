"""`verify` reads a profile on the part of the epistemic game it reaches
(`EpistemicView`).  On every found profile it must give what the full-build
verify of `oracles.full_build_verify` gives: the same checks and failures,
or the same error."""
from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from equisynth.cli import _verify_profile
from equisynth.epistemic import EpistemicView, state_key
from equisynth.parsing import parse_query
from equisynth.solver import EveStrategy, solve

from conftest import build_reachable
from oracles import full_build_verify, verify_outcome

PREDICATES = (None, "p=(0,0,1,1,1)", "p=(0,0,3,3,3)")
MAIN_INF = (None, frozenset({"v0", "v1"}))
# Every RANDOM_STRIDE-th random instance of `pruned_pairs` is solved again
# here; the slice keeps the test under two seconds.
RANDOM_STRIDE = 4


def _dense(players: int, vertices: int):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    game, graph = workloads.materialize(
        workloads.draw_dense(random.Random(1), players, vertices, 2))
    return game, graph, build_reachable(game, graph)


@pytest.fixture(scope="module")
def found_profiles(game5, g1, g2, g3, eg1, eg2, eg3, pruned_pairs):
    """(full build, profile) for every found solve, on the pruned build as
    the `solve` command runs it, of: the bundled example's queries under
    g1/g2/g3, the `wide` and `branchy` games, dense 3/8, 4/4 and 4/6, and a
    slice of the random instances."""
    out = []
    for full in (eg1, eg2, eg3):
        pruned = build_reachable(full.game, full.graph, pruned=True)
        for predicate in PREDICATES:
            query = parse_query(predicate) if predicate else None
            for main_inf in MAIN_INF:
                result = solve(pruned, query=query, main_inf=main_inf)
                if result is not None:
                    out.append((full, result.strategy.to_dict()))
    random_pairs = len(pruned_pairs) - 22  # the 20 family games, 3/8 and 4/4 last
    pairs = pruned_pairs[:random_pairs:RANDOM_STRIDE] + pruned_pairs[random_pairs:]
    pairs = [(full, pruned) for _game, _graph, full, pruned in pairs]
    game, graph, full = _dense(4, 6)
    pairs.append((full, build_reachable(game, graph, pruned=True)))
    for full, pruned in pairs:
        result = solve(pruned)
        if result is not None:
            out.append((full, result.strategy.to_dict()))
    return out


def test_on_demand_verify_matches_full_build(found_profiles):
    assert len(found_profiles) >= 40
    for full, data in found_profiles:
        want = verify_outcome(full_build_verify, full, data)
        got = verify_outcome(_verify_profile, full.game, full.graph, data)
        assert got == want, data
        assert got[0] == 0, got


def test_view_makes_only_what_the_rows_name(eg1, found_profiles):
    # Reading a profile makes each row's state, one Adam node per row's
    # action and that node's successors, and nothing else.
    data = next(data for full, data in found_profiles if full is eg1)
    rows = data["comply"]["prefix"] + data["comply"]["cycle"] + data["punish"]
    view = EpistemicView(eg1.game, eg1.graph)
    EveStrategy.from_dict(view, data)
    assert len(view.adam_succ) <= len(rows) < eg1.adam_count()
    keys = {state_key(s) for s in view.eve_states}
    assert {row["key"] for row in rows} <= keys <= {state_key(s) for s in eg1.eve_states}


def test_view_resolves_every_action_as_the_full_game(eg1, eg2, eg3):
    # Each Adam node of a full build, resolved on a view from its state's
    # key and its action, is a node of that state with the same action and
    # successors; in the end the view holds the whole game.
    for full in (eg1, eg2, eg3):
        view = EpistemicView(full.game, full.graph)
        for e, state in enumerate(full.eve_states):
            origin = view.eve_for_key(state_key(state))
            for aid in full.eve_succ[e]:
                got = view.adam_for_action(origin, full.adam_action[aid])
                assert view.adam_action[got] == full.adam_action[aid]
                assert [state_key(view.eve_states[s]) for s in view.adam_succ[got]] == \
                    [state_key(full.eve_states[s]) for s in full.adam_succ[aid]]
        assert (len(view.eve_states), len(view.adam_succ)) == \
            (full.eve_count(), full.adam_count())
