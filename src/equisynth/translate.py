"""Bridge between the two views of a solution: the protagonist strategy on
the epistemic game, and the distributed per-player machines that actually
play the concurrent game and exchange messages.

`omega` wraps a protagonist strategy into one machine per player.  Each
machine tracks the epistemic state the observed play corresponds to, plus
the deviator this player currently believes in: the received id when one
arrived, otherwise the least tracked suspect that would not have informed
this player yet (any such choice suggests the same action, so the tie-break
is sound).  The (Eve id, strategy memory) part is the same in every
player's machine, so the step it takes is made once for all players: the
strategy's Adam node per (Eve id, memory), and the successor and next
memory per (Eve id, memory, next vertex), are kept per profile.  Only what
each player observes (its messages and believed deviator) is worked out per
player.  A player broadcasts the believed id exactly while it belongs to
the informed set of that suspect's situation.  Inputs whose message pattern
cannot arise from an honest single deviation are rejected rather than
guessed at; the one benign special case is a player voluntarily outing
itself while the vertex sequence still complies, which is ignored like any
other invisible deviation.  The strategy chooses Adam ids (the policy
protocol of `solver`), and a machine plays its own part of the chosen Adam
node's action.

`upsilon` goes the other way: it replays a distributed profile inside the
epistemic game by reconstructing, per tracked suspect, the unique full
history the players would have observed (suspect actions resolved to the
smallest action reaching the observed vertex, messages resolved from the
situation's informed set).  Emitted messages are validated against that
reconstruction, so a profile that breaks the message discipline raises
`NormednessViolation` instead of silently desynchronizing.  Besides the rows
`EveStrategy.from_dict` reads, these suggestions are the only action tuples
the engine resolves: `UpsilonPolicy.action` turns them into the Adam id it
hands on.

`check_normed` drives a profile against every honest visible single-player
deviation and checks the three message rules: silence while the vertex
sequence tracks the main outcome, denunciation by the deviator's
neighbourhood at the first visible step, and epidemic relaying afterwards.
The check explores the whole finite product of the profile and the game in
one breadth-first search, so it is exact; only a node cap ends it early.
`simulate` produces a single scripted trace, and
`check_deviation_resistance` verifies the payoff contract of the
reconstructed protagonist strategy.  All of them step a `Profile` through
its `outputs` and `round`, which make one output vector and one round of
all players' machines per distinct input and profile, so the resistance
check replays the rounds the message-rule check made.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from . import solver
from .epistemic import EpistemicView, state_key
from .errors import (
    InvalidInput,
    NormednessViolation,
    ProfileInputRejected,
    StateCapExceeded,
)
from .game import CommGraph, ConcurrentGame, FullHistory, Message, Move, substitute
from .solver import ModelCheckReport, Vector, model_check_strategy


# ---------------------------------------------------------------------------
# Distributed profile machines driven by a protagonist strategy.


class Profile:
    """One deterministic machine per player of `players`, defined by
    `initial(player)`, `output(player, mstate)` -> (action, message) and
    `advance(player, mstate, visible_messages, next_vertex)`.  `outputs` and
    `round` step all players at once, made once per profile: one output
    vector per machine-state vector, and one round per (machine states,
    messages, next vertex), kept for the last graph stepped under only.  An
    input a machine rejects is not kept: it raises on every call."""

    def __init__(self, players: tuple[str, ...]):
        self.players = players
        self._outputs: dict = {}
        self._graph: Optional[CommGraph] = None
        self._rounds: dict = {}

    def outputs(self, mstates) -> tuple[tuple[str, Message], ...]:
        """Every player's (action, message) at `mstates`, in player order."""
        outs = self._outputs.get(mstates)
        if outs is None:
            outs = self._outputs[mstates] = tuple(map(self.output, self.players, mstates))
        return outs

    def round(self, graph: CommGraph, mstates, msgs, next_vertex: str):
        """Every player's machine stepped to `next_vertex`, each seeing the
        messages `msgs` (one per player, in player order) of the players it
        observes in `graph`."""
        if graph is not self._graph:
            self._graph, self._rounds = graph, {}
        key = (mstates, msgs, next_vertex)
        nstates = self._rounds.get(key)
        if nstates is None:
            sent = dict(zip(self.players, msgs))
            nstates = self._rounds[key] = tuple(
                self.advance(a, ms, {b: sent[b] for b in graph.vois[a]}, next_vertex)
                for a, ms in zip(self.players, mstates)
            )
        return nstates


class OmegaProfile(Profile):
    """One deterministic machine per player, all sharing the same core.

    Machine state: (epistemic Eve id, strategy memory, believed deviator).
    Outputs and updates depend only on the player's own observations; the
    graph never leaks through except via the informed sets of the tracked
    epistemic state.
    """

    def __init__(self, eg: EpistemicView, zeta):
        super().__init__(eg.game.players)
        self.eg = eg
        self.zeta = zeta
        # The step all machines share (see the module docstring).  Only
        # successful steps are stored, so an input the strategy or the game
        # rejects raises on every call.
        self._choice: dict = {}  # (Eve id, memory) -> Adam id
        self._step: dict = {}  # (Eve id, memory, vertex) -> (Eve id, memory)

    def _adam(self, eve_id: int, zmem) -> int:
        aid = self._choice.get((eve_id, zmem))
        if aid is None:
            aid = self._choice[eve_id, zmem] = self.zeta.action(eve_id, zmem)
        return aid

    def _next(self, eve_id: int, zmem, next_vertex: str):
        step = self._step.get((eve_id, zmem, next_vertex))
        if step is None:
            eg = self.eg
            sid = next((s for s in eg.adam_succ[self._adam(eve_id, zmem)]
                        if eg.eve_states[s].vertex == next_vertex), None)
            if sid is None:
                raise ProfileInputRejected(
                    f"vertex {next_vertex!r} unreachable from "
                    f"{state_key(eg.eve_states[eve_id])} under the suggested move"
                )
            step = self._step[eve_id, zmem, next_vertex] = (
                sid, self.zeta.advance(zmem, eve_id, sid))
        return step

    def initial(self, player: str):
        return (self.eg.init, self.zeta.initial(), None)

    def output(self, player: str, mstate) -> tuple[str, Message]:
        eve_id, zmem, believed = mstate
        state = self.eg.eve_states[eve_id]
        action = self.eg.adam_action[self._adam(eve_id, zmem)]
        idx = self.eg.game.player_index[player]
        if not state.deviated:
            return action[idx], None
        if believed is None:
            raise ProfileInputRejected(
                f"no believed deviator for {player!r} at {state_key(state)}"
            )
        move = action[state.deviators().index(believed)]
        msg = believed if player in state.informed(believed) else None
        return move[idx], msg

    def advance(self, player: str, mstate, visible_messages: dict, next_vertex: str):
        eve_id, zmem, believed = mstate
        eg = self.eg
        state = eg.eve_states[eve_id]
        sid, zmem2 = self._next(eve_id, zmem, next_vertex)
        nxt = eg.eve_states[sid]
        ids = {m for m in visible_messages.values() if m is not None}
        if len(ids) > 1:
            raise ProfileInputRejected(
                f"distinct ids {sorted(ids)} received in one step"
            )
        got = next(iter(ids)) if ids else None
        if not nxt.deviated:
            if got is not None:
                senders = {b for b, m in visible_messages.items() if m is not None}
                if senders != {got}:
                    raise ProfileInputRejected(
                        f"id {got!r} from {sorted(senders)} while the play complies"
                    )
            believed2 = None
        else:
            devs = nxt.deviators()
            if got is not None:
                if got not in devs or player not in nxt.informed(got):
                    raise ProfileInputRejected(
                        f"received id {got!r} inconsistent with suspects "
                        f"{{{','.join(devs)}}}"
                    )
                believed2 = got
            else:
                if (
                    believed is not None
                    and state.deviated
                    and player in state.informed(believed)
                ):
                    raise ProfileInputRejected(
                        f"{player!r} was informed of {believed!r} but the id "
                        "stopped arriving"
                    )
                cands = [d for d in devs if player not in nxt.informed(d)]
                if not cands:
                    raise ProfileInputRejected(
                        f"silence although every suspect informed {player!r}"
                    )
                believed2 = cands[0]
        return (sid, zmem2, believed2)


omega = OmegaProfile  # the distributed profile equivalent to a protagonist strategy


# ---------------------------------------------------------------------------
# Profile -> protagonist strategy.


class UpsilonPolicy:
    """Protagonist strategy that consults a distributed profile through the
    per-suspect reconstructed local histories; the message discipline is
    validated lazily along every queried branch.

    Memory: the machine states of every player on the complying history at
    a state without suspects, else one such vector per suspect, in the
    state's suspect order.
    """

    def __init__(self, eg: EpistemicView, profile: Profile):
        self.eg = eg
        self.profile = profile

    def initial(self):
        return tuple(map(self.profile.initial, self.profile.players))

    def _joint_move(self, states) -> Move:
        return tuple(act for act, _msg in self.profile.outputs(states))

    def action(self, eve_id: int, mem) -> int:
        """The Adam id of the profile's suggestion; a per-suspect suggestion
        that is no valid move function breaks the message discipline."""
        state = self.eg.eve_states[eve_id]
        if not state.deviated:
            return self.eg.adam_for_action(eve_id, self._joint_move(mem))
        action = tuple(map(self._joint_move, mem))
        try:
            return self.eg.adam_for_action(eve_id, action)
        except InvalidInput as exc:
            raise NormednessViolation(
                f"per-suspect suggestions at {state_key(state)} do not form "
                f"a valid move function: {exc}"
            ) from exc

    def advance(self, mem, eve_id: int, next_eve_id: int):
        eg = self.eg
        state = eg.eve_states[eve_id]
        nxt = eg.eve_states[next_eve_id]
        players = self.profile.players

        def step(states, msgs):
            return self.profile.round(eg.graph, states, msgs, nxt.vertex)

        if not state.deviated:
            for a, (_act, msg) in zip(players, self.profile.outputs(mem)):
                if msg is not None:
                    raise NormednessViolation(
                        f"{a!r} sent {msg!r} while the play tracked the main outcome"
                    )
            if not nxt.deviated:
                return step(mem, tuple(None for _ in players))
            return tuple(
                step(mem, tuple(d if b == d else None for b in players))
                for d in nxt.deviators()
            )
        hyp = dict(zip(state.deviators(), mem))
        out = []
        for d in nxt.deviators():
            states = hyp[d]
            informed = set(state.informed(d))
            msgs = []
            for a, (_act, msg) in zip(players, self.profile.outputs(states)):
                expected = d if a in informed else None
                if a != d and msg != expected:
                    raise NormednessViolation(
                        f"{a!r} sent {msg!r} instead of {expected!r} under "
                        f"hypothesis {d!r} at {state_key(state)}"
                    )
                msgs.append(expected)
            out.append(step(states, tuple(msgs)))
        return tuple(out)


upsilon = UpsilonPolicy  # the protagonist strategy that reads a profile


# ---------------------------------------------------------------------------
# Normedness checker.


@dataclass
class NormedReport:
    ok: bool
    violations: list[str]
    explored: int


def check_normed(game: ConcurrentGame, graph: CommGraph, profile: Profile) -> NormedReport:
    """Drive the profile against every honest visible single-player deviation
    and check the three message rules.

    One breadth-first search runs over the product of vertex, machine
    states, last messages, deviator and phase: 0 on the main outcome, 1 at
    the deviation's first visible step, 2 after it.  The product is finite,
    so `seen` alone ends the search and the check is exact; its node count
    sits behind `solver.VERIFY_NODE_CAP`.  A node that breaks a rule is not
    expanded.  Honest invisible onsets are not branched on separately: they
    leave every machine in the same state as compliance, so their
    continuations coincide with the branches explored here.
    """
    players = game.players
    silent = (None,) * len(players)
    init = (game.init_vertex, tuple(profile.initial(a) for a in players), silent, None, 0)
    seen = {init}
    queue = deque([(init, 0)])
    violations: list[str] = []
    explored = 0

    def push(mstates, msgs, v2, d, phase, step, rejected=None):
        """Queue the machines' step to v2 as a node at `step`; if they reject
        it, record the violation `rejected` names instead."""
        try:
            nstates = profile.round(graph, mstates, msgs, v2)
        except ProfileInputRejected as exc:
            if rejected is None:
                raise
            violations.append(f"deviator {d!r}, {rejected}: {exc}")
            return
        node = (v2, nstates, msgs, d, phase)
        if node not in seen:
            if len(seen) >= solver.VERIFY_NODE_CAP:
                raise StateCapExceeded(
                    f"message-rule check exceeded {solver.VERIFY_NODE_CAP} "
                    f"nodes: {explored} nodes explored"
                )
            seen.add(node)
            queue.append((node, step))

    while queue:
        (v, mstates, last, d, phase), step = queue.popleft()
        explored += 1
        outs = profile.outputs(mstates)
        bad = False
        for a, (_act, msg) in zip(players, outs):
            if phase == 0:
                if msg is not None:
                    violations.append(
                        f"rule 1: {a!r} sent {msg!r} on the main outcome at step {step}"
                    )
                    bad = True
                continue
            if a == d:
                continue  # overridden by the honest deviator
            if phase == 1:
                told = a in graph.informed_by[d]
                rule = "rule 2" if told else "message discipline"
            else:
                told = any(last[game.player_index[b]] == d for b in graph.vois[a])
                rule = "rule 3"
            expected = d if told else None
            if msg != expected:
                violations.append(
                    f"{rule}: deviator {d!r}, step {step}, player {a!r} "
                    f"sent {msg!r}, expected {expected!r}"
                )
                bad = True
        if bad:
            continue
        move = tuple(o[0] for o in outs)
        if phase == 0:
            target = game.successor(v, move)
            push(mstates, silent, target, None, 0, step + 1)
            for d in players:
                i = game.player_index[d]
                for delta in game.allow[v][d]:
                    v2 = game.successor(v, substitute(move, i, delta))
                    if v2 != target:
                        push(mstates, substitute(silent, i, d), v2, d, 1, step + 1,
                             f"onset {step}: machines rejected an honest visible deviation")
        else:
            i = game.player_index[d]
            msgs = substitute(tuple(o[1] for o in outs), i, d)
            for delta in game.allow[v][d]:
                v2 = game.successor(v, substitute(move, i, delta))
                push(mstates, msgs, v2, d, 2, step + 1,
                     f"step {step}: machines rejected an honest continuation to {v2!r}")
    return NormedReport(not violations, violations, explored)


# ---------------------------------------------------------------------------
# Scripted deviation traces.


@dataclass(frozen=True)
class DeviationScript:
    """One player substitutes scripted actions from a given step on, honestly
    broadcasting its own id from the first actual divergence; after the
    script runs out the player follows its machine again but keeps the id."""

    deviator: str
    step: int
    actions: tuple[str, ...]


@dataclass
class SimulationResult:
    history: FullHistory
    deviator: Optional[str]
    diverged_at: Optional[int]
    cycle_start: Optional[int]
    payoff: Optional[Vector]

    @property
    def text(self) -> str:
        lines = []
        for i, (mv, msgs) in enumerate(zip(self.history.moves, self.history.messages)):
            acts = " ".join(mv)
            mm = " ".join(m if m is not None else "-" for m in msgs)
            lines.append(f"{self.history.vertices[i]} | {acts} | {mm}")
        lines.append(f"{self.history.vertices[-1]}")
        if self.cycle_start is not None:
            cyc = self.history.vertices[self.cycle_start : -1]
            pay = ",".join(str(q) for q in self.payoff)
            lines.append(
                f"lasso from step {self.cycle_start}: "
                f"{{{','.join(sorted(set(cyc)))}}} payoff ({pay})"
            )
        return "\n".join(lines)


def simulate(
    game: ConcurrentGame,
    graph: CommGraph,
    profile: Profile,
    script: Optional[DeviationScript],
    steps: int = 64,
) -> SimulationResult:
    """Deterministic trace of the profile against one scripted deviation."""
    if script is not None:
        if script.deviator not in game.players:
            raise InvalidInput(f"unknown deviator {script.deviator!r}")
        if script.step < 0 or script.step >= steps:
            raise InvalidInput(
                f"script trigger {script.step} outside the simulated horizon"
            )
    d = script.deviator if script else None
    d_idx = game.player_index[d] if d else -1
    v = game.init_vertex
    mstates = tuple(profile.initial(a) for a in game.players)
    verts = [v]
    moves: list[Move] = []
    messages: list[tuple[Message, ...]] = []
    diverged_at: Optional[int] = None
    cycle_start: Optional[int] = None
    payoff: Optional[Vector] = None
    seen: dict = {}
    for step in range(steps):
        pos = step - script.step if script else -1
        scripted = script is not None and 0 <= pos < len(script.actions)
        if script is None:
            phase = "free"
        elif pos < len(script.actions):
            phase = pos  # unique until the script runs out: no false cycles
        else:
            phase = ("done", diverged_at is not None)
        key = (v, mstates, phase)
        if key in seen:
            cycle_start = seen[key]
            cyc = verts[cycle_start:]
            payoff = game.payoff.value(frozenset(cyc))
            break
        seen[key] = step
        outs = profile.outputs(mstates)
        move = list(o[0] for o in outs)
        msgs = list(o[1] for o in outs)
        if scripted:
            delta = script.actions[pos]
            if delta not in game.allow[v][d]:
                raise InvalidInput(
                    f"scripted action {delta!r} not allowed for {d!r} at {v!r}"
                )
            if diverged_at is None and delta != move[d_idx]:
                diverged_at = step
            move[d_idx] = delta
        if d and diverged_at is not None:
            msgs[d_idx] = d
        move_t = tuple(move)
        msgs_t = tuple(msgs)
        v2 = game.successor(v, move_t)
        mstates = profile.round(graph, mstates, msgs_t, v2)
        verts.append(v2)
        moves.append(move_t)
        messages.append(msgs_t)
        v = v2
    history = FullHistory(tuple(verts), tuple(moves), tuple(messages))
    return SimulationResult(
        history=history,
        deviator=d,
        diverged_at=diverged_at,
        cycle_start=cycle_start,
        payoff=payoff,
    )


def check_deviation_resistance(eg: EpistemicView, profile: Profile, p: Vector) -> ModelCheckReport:
    """Payoff-contract verdict for the strategy reconstructed from the
    profile: complying outcome exactly p, every deviation bounded by p."""
    return model_check_strategy(eg, upsilon(eg, profile), p)
