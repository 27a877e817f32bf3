"""Distributed profile machines, message discipline, scripted traces, and
the reconstruction back into a protagonist strategy."""
from __future__ import annotations

import dataclasses
from collections import Counter
from fractions import Fraction

import pytest

from equisynth.epistemic import state_key
from equisynth.errors import (
    InvalidInput,
    NormednessViolation,
    ProfileInputRejected,
    StateCapExceeded,
    StrategyUndefined,
)
from equisynth.parsing import parse_query
from equisynth.solver import EveStrategy, model_check_strategy, solve
from equisynth.translate import (
    DeviationScript,
    OmegaProfile,
    Profile,
    check_deviation_resistance,
    check_normed,
    omega,
    simulate,
    upsilon,
)

from conftest import complete_strategy, tamper_punishment
from oracles import main_outcome, validate_history

MAIN_INF = frozenset({"v0", "v1"})


def F(*xs):
    return tuple(Fraction(x) for x in xs)


P_MAIN = F(0, 0, 1, 1, 1)


# What player 0 observes under g1: the messages of players 0, 1 and 4.
QUIET = {"0": None, "1": None, "4": None}


@pytest.fixture(scope="module")
def solved1(eg1):
    res = solve(eg1, main_inf=MAIN_INF)
    assert res is not None
    return res


@pytest.fixture(scope="module")
def profile1(eg1, solved1):
    return omega(eg1, solved1.strategy)


class MessageOverride(Profile):
    """Wrap a profile, rewriting one player's outgoing message."""

    def __init__(self, inner, player, rewrite):
        super().__init__(inner.players)
        self.inner = inner
        self.player = player
        self.rewrite = rewrite

    def initial(self, player):
        return self.inner.initial(player)

    def output(self, player, mstate):
        act, msg = self.inner.output(player, mstate)
        if player == self.player:
            msg = self.rewrite(msg)
        return act, msg

    def advance(self, player, mstate, visible_messages, next_vertex):
        return self.inner.advance(player, mstate, visible_messages, next_vertex)


def test_main_outcome_is_silent(game5, g1, profile1):
    verts, start, history = main_outcome(game5, g1, profile1)
    assert verts == ["v0", "v1", "v0"]
    assert start == 0
    validate_history(history, game5)
    assert all(m is None for msgs in history.messages for m in msgs)


def test_main_outcome_matches_solver_lasso(game5, g1, profile1, solved1):
    verts, start, _ = main_outcome(game5, g1, profile1)
    assert frozenset(verts[start:-1]) == frozenset(solved1.lasso_cycle)


def test_machines_reject_impossible_vertex(game5, profile1):
    ms = profile1.initial("0")
    with pytest.raises(ProfileInputRejected):
        profile1.advance("0", ms, {"0": None, "1": None, "4": None}, "v3")


def _id_stops_arriving(profile):
    """Player 0 told by 4 that 4 deviated to v1p, and then silence."""
    ms = profile.advance("0", profile.initial("0"), {**QUIET, "4": "4"}, "v1p")
    succ = profile.eg.adam_succ[profile.zeta.action(*ms[:2])]
    return profile.advance("0", ms, QUIET, profile.eg.eve_states[succ[0]].vertex)


# Inputs to player 0's machine that no play of g1 gives it, and the
# rejection each gets.
MACHINE_REJECTIONS = [
    (lambda p: p.output("0", p.advance("0", p.initial("0"), QUIET, "v1p")[:2] + (None,)),
     "no believed deviator for '0' at v1p|2:2;3:3,4;4:0,4"),
    (lambda p: p.advance("0", p.initial("0"), {**QUIET, "1": "4"}, "v1"),
     "id '4' from ['1'] while the play complies"),
    (lambda p: p.advance("0", p.initial("0"), {**QUIET, "1": "1"}, "v1p"),
     "received id '1' inconsistent with suspects {2,3,4}"),
    (_id_stops_arriving, "'0' was informed of '4' but the id stopped arriving"),
    (lambda p: p.advance("0", p.initial("0"), QUIET, "v2"),
     "silence although every suspect informed '0'"),
]


@pytest.mark.parametrize("feed, message", MACHINE_REJECTIONS,
                         ids=[message for _feed, message in MACHINE_REJECTIONS])
def test_machine_rejections_keep_their_messages(profile1, feed, message):
    with pytest.raises(ProfileInputRejected) as exc:
        feed(profile1)
    assert str(exc.value) == message


class RejectsEveryRound:
    """A profile whose machines reject every round they are fed."""

    def __init__(self, profile):
        self.initial, self.outputs = profile.initial, profile.outputs

    def round(self, *_args):
        raise ProfileInputRejected("rejects every round")


def test_check_normed_raises_a_rejection_on_the_main_outcome(game5, g1, profile1):
    # A rejected deviation is a violation the report lists; a machine that
    # rejects the main outcome itself is not a profile at all, so the check
    # raises.
    with pytest.raises(ProfileInputRejected, match="rejects every round"):
        check_normed(game5, g1, RejectsEveryRound(profile1))


class CountingStrategy:
    """Wrap a protagonist strategy, counting its `action` calls per (Eve id,
    memory)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def initial(self):
        return self.inner.initial()

    def action(self, eve_id, mem):
        self.calls[eve_id, mem] += 1
        return self.inner.action(eve_id, mem)

    def advance(self, mem, eve_id, next_eve_id):
        return self.inner.advance(mem, eve_id, next_eve_id)


class CountingMachines(OmegaProfile):
    """`omega`'s machines, counting each player's `output` and `advance`
    calls and recording the distinct output vectors and rounds asked for."""

    def __init__(self, eg, zeta):
        super().__init__(eg, zeta)
        self.calls = Counter()
        self.vectors = set()
        self.rounds = set()

    def outputs(self, mstates):
        self.vectors.add(mstates)
        return super().outputs(mstates)

    def round(self, graph, mstates, msgs, next_vertex):
        self.rounds.add((mstates, msgs, next_vertex))
        return super().round(graph, mstates, msgs, next_vertex)

    def output(self, player, mstate):
        self.calls["output", player] += 1
        return super().output(player, mstate)

    def advance(self, player, mstate, visible_messages, next_vertex):
        self.calls["advance", player] += 1
        return super().advance(player, mstate, visible_messages, next_vertex)


def test_machines_share_one_strategy_step(game5, g1, eg1, solved1):
    # Every player's machine tracks the same (Eve id, memory): the strategy
    # picks its Adam node once per pair, over both checks of the profile.
    # Each player's machine makes one output per distinct vector and one
    # step per distinct round, and the resistance check only replays rounds
    # of the message-rule check.
    zeta = CountingStrategy(solved1.strategy)
    profile = CountingMachines(eg1, zeta)
    assert check_normed(game5, g1, profile).explored == 16
    rounds = set(profile.rounds)
    assert check_deviation_resistance(eg1, profile, solved1.payoff).product_nodes == 9
    assert profile.rounds == rounds
    assert len(zeta.calls) > 1
    assert set(zeta.calls.values()) == {1}
    assert profile.calls == Counter(
        {("output", a): len(profile.vectors) for a in game5.players}
        | {("advance", a): len(profile.rounds) for a in game5.players})


def test_rejected_machine_inputs_raise_on_every_call(game5, g1, eg1, solved1):
    silent = {b: None for b in g1.vois["0"]}
    # Without punishment tables the strategy is undefined once a suspect is
    # tracked.
    zeta = CountingStrategy(dataclasses.replace(solved1.strategy, layers={}))
    profile = omega(eg1, zeta)
    ms = profile.initial("0")
    for _ in range(3):
        with pytest.raises(ProfileInputRejected, match="'v3' unreachable"):
            profile.advance("0", ms, silent, "v3")
        with pytest.raises(ProfileInputRejected, match="distinct ids"):
            profile.advance("0", ms, {"0": None, "1": "1", "4": "4"}, "v1p")
    deviated = profile.advance("0", ms, silent, "v1p")
    assert state_key(eg1.eve_states[deviated[0]]) == "v1p|2:2;3:3,4;4:0,4"
    for _ in range(3):
        with pytest.raises(StrategyUndefined):
            profile.output("0", deviated)
    assert zeta.calls[deviated[:2]] == 3
    # Through the caches of all players' steps the same holds.
    states = tuple(map(profile.initial, game5.players))
    quiet = (None,) * len(game5.players)
    for _ in range(3):
        with pytest.raises(ProfileInputRejected, match="'v3' unreachable"):
            profile.round(g1, states, quiet, "v3")
    states = profile.round(g1, states, quiet, "v1p")
    for _ in range(3):
        with pytest.raises(StrategyUndefined):
            profile.outputs(states)
    assert zeta.calls[deviated[:2]] == 6


class Observers(Profile):
    """Machines whose state is the players they last observed."""

    def initial(self, player):
        return ()

    def output(self, player, mstate):
        return "a", None

    def advance(self, player, mstate, visible_messages, next_vertex):
        return tuple(visible_messages)


def test_rounds_answer_only_for_their_graph(game5, g1, g2):
    # A round depends on who observes whom, so the same input under another
    # graph is stepped anew.
    profile = Observers(game5.players)
    states, quiet = ((),) * 5, (None,) * 5
    for graph in (g1, g2, g1):
        assert profile.round(graph, states, quiet, "v0") == \
            tuple(graph.vois[a] for a in game5.players)
    assert g1.vois != g2.vois


def test_simulate_without_script(game5, g1, profile1):
    sim = simulate(game5, g1, profile1, None)
    assert sim.history.vertices == ("v0", "v1", "v0")
    assert sim.cycle_start == 0
    assert sim.payoff == P_MAIN
    assert sim.deviator is None and sim.diverged_at is None


# Player 3 plays b at every step.  From v0 that leads to v1p (paying it 2) or,
# depending on players 0 and 1, to v2, v3 or v4; only v3 pays it no more than
# complying, so every winning profile must end the play there.  A one-step
# deviation need not be punished at all: the profile may return to v0 v1.
PERSISTENT_3 = DeviationScript("3", 0, ("b",) * 12)


def test_simulate_punishes_visible_deviator(game5, g1, profile1):
    sim = simulate(game5, g1, profile1, PERSISTENT_3)
    assert sim.diverged_at == 0
    assert sim.history.vertices[:2] == ("v0", "v1p")
    assert set(sim.history.vertices[sim.cycle_start :]) == {"v3"}
    assert sim.payoff == F(0, 0, 2, 0, 2)
    validate_history(sim.history, game5)


def test_simulate_epidemic_message_spread(game5, g1, profile1):
    sim = simulate(game5, g1, profile1, DeviationScript("3", 0, ("b",)))
    senders = [
        {a for a, m in zip(game5.players, msgs) if m == "3"}
        for msgs in sim.history.messages
    ]
    assert senders[0] == {"3"}
    assert senders[1] == {"3", "4"}
    assert senders[2] == {"0", "3", "4"}
    assert senders[3] == {"0", "1", "3", "4"}


def test_simulate_ignores_invisible_deviation(game5, g1, profile1):
    sim = simulate(game5, g1, profile1, DeviationScript("2", 1, ("b",)))
    assert sim.diverged_at == 1
    assert set(sim.history.vertices) <= {"v0", "v1"}
    assert sim.payoff == P_MAIN


def test_simulate_scripted_compliance_never_diverges(game5, g1, profile1):
    # Scripting the action the profile suggests anyway is not a deviation.
    sim = simulate(game5, g1, profile1, DeviationScript("3", 0, ("a", "a")))
    assert sim.diverged_at is None
    assert sim.payoff == P_MAIN
    assert all(m is None for msgs in sim.history.messages for m in msgs)


def test_simulate_trace_rendering(game5, g1, profile1):
    sim = simulate(game5, g1, profile1, PERSISTENT_3)
    lines = sim.text.splitlines()
    assert lines[0] == "v0 | a a a b a | - - - 3 -"
    assert lines[1].startswith("v1p |")


def test_simulate_validates_scripts(game5, g1, profile1):
    with pytest.raises(InvalidInput):
        simulate(game5, g1, profile1, DeviationScript("9", 0, ("b",)))
    with pytest.raises(InvalidInput):
        simulate(game5, g1, profile1, DeviationScript("3", 99, ("b",)))
    with pytest.raises(InvalidInput):
        simulate(game5, g1, profile1, DeviationScript("3", 0, ("z",)))


def test_check_normed_passes(game5, g1, profile1):
    report = check_normed(game5, g1, profile1)
    assert report.ok, report.violations
    assert report.explored == 16


class LateSelfReport(Profile):
    """Wrap a profile with a step counter that stops at `at`; from then on
    `player` names itself.  The wrapper stays finite-state."""

    def __init__(self, inner, player, at):
        super().__init__(inner.players)
        self.inner = inner
        self.player = player
        self.at = at

    def initial(self, player):
        return (self.inner.initial(player), 0)

    def output(self, player, mstate):
        act, msg = self.inner.output(player, mstate[0])
        if player == self.player and mstate[1] == self.at:
            msg = player
        return act, msg

    def advance(self, player, mstate, visible_messages, next_vertex):
        inner, count = mstate
        return (self.inner.advance(player, inner, visible_messages, next_vertex),
                min(count + 1, self.at))


def test_check_normed_has_no_depth_bound(game5, g1, profile1):
    # Step 20 is ten laps of the complying cycle; the product of the game
    # and the wrapped machines is finite, so the search reaches it.
    report = check_normed(game5, g1, LateSelfReport(profile1, "2", 20))
    assert not report.ok
    assert "rule 1: '2' sent '2' on the main outcome at step 20" in report.violations


def test_check_normed_node_cap(game5, g1, profile1, monkeypatch):
    monkeypatch.setattr("equisynth.solver.VERIFY_NODE_CAP", 10)
    with pytest.raises(StateCapExceeded) as exc:
        check_normed(game5, g1, profile1)
    assert str(exc.value) == "message-rule check exceeded 10 nodes: 6 nodes explored"


def test_check_normed_catches_chatty_player(game5, g1, profile1):
    chatty = MessageOverride(profile1, "2", lambda m: "2")
    report = check_normed(game5, g1, chatty)
    assert not report.ok
    assert any("rule 1" in v for v in report.violations)


def test_check_normed_catches_muted_neighbour(game5, g1, profile1):
    muted = MessageOverride(profile1, "4", lambda m: None)
    report = check_normed(game5, g1, muted)
    assert not report.ok
    assert any("rule 2" in v and "'4'" in v for v in report.violations)


def test_upsilon_round_trip(eg1, game5, g1, solved1, profile1):
    policy = upsilon(eg1, profile1)
    report = model_check_strategy(eg1, policy, solved1.payoff)
    assert report.ok
    verts, start, _ = main_outcome(game5, g1, profile1)
    assert frozenset(report.complying_cycle) == frozenset(verts[start:-1])


def test_upsilon_flags_muted_profile(eg1, solved1, profile1):
    muted = MessageOverride(profile1, "4", lambda m: None)
    with pytest.raises(NormednessViolation):
        check_deviation_resistance(eg1, muted, solved1.payoff)


class ActionIsState(Profile):
    """A profile whose machine state is the action it suggests."""

    def output(self, player, mstate):
        return mstate, None


def test_upsilon_rejects_suspects_disagreeing_for_uninformed(eg1):
    # Player 0 is informed of neither suspect at this state, so both
    # hypotheses must suggest it the same action.
    eid = next(i for i, s in enumerate(eg1.eve_states) if state_key(s) == "v1p|2:2;3:3,4")
    mem = (("a",) * 5, ("b",) + ("a",) * 4)  # under suspects 2 and 3
    with pytest.raises(NormednessViolation, match="do not form a valid move function") as exc:
        upsilon(eg1, ActionIsState(eg1.game.players)).action(eid, mem)
    assert "components for '0' differ between hypotheses '2' and '3'" in str(exc.value)


def test_deviation_resistance_verdicts(eg1, solved1, profile1):
    report = check_deviation_resistance(eg1, profile1, solved1.payoff)
    assert report.ok
    report = check_deviation_resistance(eg1, profile1, F(0, 0, 0, 1, 1))
    assert not report.ok


def test_resistance_catches_tampered_strategy(eg1, solved1):
    data = tamper_punishment(complete_strategy(eg1, solved1).to_dict())
    tampered = EveStrategy.from_dict(eg1, data)
    report = check_deviation_resistance(eg1, omega(eg1, tampered), solved1.payoff)
    assert not report.ok
    assert any("v1p" in v for v in report.violations)


class Denounce(MessageOverride):
    """One player broadcasts the deviator its machine believes in whenever it
    believes in one, whether or not it was told."""

    def output(self, player, mstate):
        act, msg = self.inner.output(player, mstate)
        _eve, _mem, believed = mstate
        if player == self.player and believed is not None:
            msg = believed
        return act, msg


class RejectAfterId(Profile):
    """Wrap a profile whose machines refuse a step: on hearing an id
    (`onset=True`), or on any step after one was heard (`onset=False`)."""

    def __init__(self, inner, onset):
        super().__init__(inner.players)
        self.inner = inner
        self.onset = onset

    def initial(self, player):
        return (self.inner.initial(player), False)

    def output(self, player, mstate):
        return self.inner.output(player, mstate[0])

    def advance(self, player, mstate, visible_messages, next_vertex):
        inner, heard = mstate
        hears = any(m is not None for m in visible_messages.values())
        if (hears if self.onset else heard):
            raise ProfileInputRejected(f"{player!r} refuses")
        return (self.inner.advance(player, inner, visible_messages, next_vertex),
                heard or hears)


def test_check_normed_catches_stopped_relay(game5, g1, profile1):
    # Player 0 relays 3's id from player 4 at step 2, and is in the audience
    # of 1 and of 4.
    report = check_normed(game5, g1, MessageOverride(profile1, "0", lambda m: None))
    assert report.violations == [
        "rule 2: deviator '1', step 1, player '0' sent None, expected '1'",
        "rule 2: deviator '4', step 1, player '0' sent None, expected '4'",
        "rule 3: deviator '3', step 2, player '0' sent None, expected '3'",
    ]
    assert report.explored == 11


def test_check_normed_catches_denunciation_outside_audience(game5, g1, profile1):
    report = check_normed(game5, g1, Denounce(profile1, "0", None))
    assert report.violations == [
        "message discipline: deviator '2', step 1, player '0' sent '2', expected None",
        "message discipline: deviator '3', step 1, player '0' sent '2', expected None",
    ]
    assert report.explored == 11


def test_check_normed_reports_rejected_onsets(game5, g1, profile1):
    report = check_normed(game5, g1, RejectAfterId(profile1, onset=True))
    # The first machine in player order that hears the id refuses.  The
    # complying run repeats its node at v0 from step 2 on, and an onset
    # from a repeated node is checked once.
    refuser = {"0": "0", "1": "0", "2": "2", "3": "3", "4": "0"}
    assert report.violations == [
        f"deviator {d!r}, onset 0: machines rejected an honest visible "
        f"deviation: {refuser[d]!r} refuses"
        for d in game5.players
    ]
    assert report.explored == 2


def test_check_normed_reports_rejected_continuations(game5, g1, profile1):
    report = check_normed(game5, g1, RejectAfterId(profile1, onset=False))
    first = {"0": ("v4", "0"), "1": ("v2", "0"), "2": ("v0", "2"),
             "3": ("v0", "3"), "4": ("v0", "0")}
    assert report.violations == [
        f"deviator {d!r}, step 1: machines rejected an honest continuation to "
        f"{first[d][0]!r}: {first[d][1]!r} refuses"
        for d in game5.players for _delta in range(2)
    ]
    assert report.explored == 7


# (graph, predicate) -> product nodes of `model_check_strategy` and of
# `check_deviation_resistance` on the found strategy.  The products pair Eve
# states with policy memories, so these sizes show that a memory keeping
# only what the Eve state does not say tells apart exactly the plays that a
# memory also holding the phase and the suspects would.
PRODUCT_NODES = {
    ("g1", None): (9, 9),
    ("g1", "p=(0,0,1,1,1)"): (9, 9),
    ("g1", "p=(0,0,3,3,3)"): (9, 9),
    ("g2", None): (9, 9),
    ("g2", "p=(0,0,1,1,1)"): (9, 9),
    ("g2", "p=(0,0,3,3,3)"): (8, 8),
    ("g3", None): (6, 6),
    ("g3", "p=(0,0,3,3,3)"): (8, 8),
}


def test_verification_product_sizes_are_pinned(eg1, eg2, eg3):
    games = {"g1": eg1, "g2": eg2, "g3": eg3}
    sizes = {}
    for g, eg in games.items():
        for predicate in (None, "p=(0,0,1,1,1)", "p=(0,0,3,3,3)", "p[0]>=1"):
            res = solve(eg, query=parse_query(predicate) if predicate else None)
            if res is None:
                continue
            checks = (model_check_strategy(eg, res.strategy, res.payoff),
                      check_deviation_resistance(eg, omega(eg, res.strategy), res.payoff))
            assert all(report.ok for report in checks), (g, predicate)
            sizes[(g, predicate)] = tuple(report.product_nodes for report in checks)
    assert sizes == PRODUCT_NODES
