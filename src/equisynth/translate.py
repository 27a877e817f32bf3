"""Bridge between the two views of a solution: the protagonist strategy on
the epistemic game, and the distributed per-player machines that actually
play the concurrent game and exchange messages.

`omega` wraps a protagonist strategy into one machine per player.  Each
machine tracks the epistemic state the observed play corresponds to, plus
the deviator this player currently believes in: the received id when one
arrived, otherwise the least tracked suspect that would not have informed
this player yet (any such choice suggests the same action, so the tie-break
is sound).  A player broadcasts the believed id exactly while it belongs to
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
deviation up to a depth bound and checks the three message rules: silence
while the vertex sequence tracks the main outcome, denunciation by the
deviator's neighbourhood at the first visible step, and epidemic relaying
afterwards.  `simulate` produces a single scripted trace, and
`check_deviation_resistance` verifies the payoff contract of the
reconstructed protagonist strategy.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .epistemic import EpistemicGame, state_key
from .errors import (
    InvalidInput,
    NormednessViolation,
    ProfileInputRejected,
)
from .game import CommGraph, ConcurrentGame, FullHistory, Message, Move, substitute
from .solver import ModelCheckReport, Vector, model_check_strategy


# ---------------------------------------------------------------------------
# Distributed profile machines driven by a protagonist strategy.


class OmegaProfile:
    """One deterministic machine per player, all sharing the same core.

    Machine state: (epistemic Eve id, strategy memory, believed deviator).
    Outputs and updates depend only on the player's own observations; the
    graph never leaks through except via the informed sets of the tracked
    epistemic state.
    """

    def __init__(self, eg: EpistemicGame, zeta):
        self.eg = eg
        self.zeta = zeta
        self.players = eg.game.players

    def initial(self, player: str):
        return (self.eg.init, self.zeta.initial(), None)

    def output(self, player: str, mstate) -> tuple[str, Message]:
        eve_id, zmem, believed = mstate
        state = self.eg.eve_states[eve_id]
        action = self.eg.adam_action[self.zeta.action(eve_id, zmem)]
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
        sid = next((s for s in eg.adam_succ[self.zeta.action(eve_id, zmem)]
                    if eg.eve_states[s].vertex == next_vertex), None)
        if sid is None:
            raise ProfileInputRejected(
                f"vertex {next_vertex!r} unreachable from {state_key(state)} "
                "under the suggested move"
            )
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
        zmem2 = self.zeta.advance(zmem, eve_id, sid)
        return (sid, zmem2, believed2)


def omega(eg: EpistemicGame, zeta) -> OmegaProfile:
    """Distributed strategy profile equivalent to the protagonist strategy."""
    return OmegaProfile(eg, zeta)


# ---------------------------------------------------------------------------
# Synchronous execution of a profile.


def _advance_all(game, graph, profile, mstates, msgs, next_vertex):
    """Step every player's machine to `next_vertex`, each seeing the messages
    `msgs` (one per player, in player order) of the players it observes."""
    msg_map = dict(zip(game.players, msgs))
    return tuple(
        profile.advance(
            a, ms, {b: msg_map[b] for b in graph.vois[a]}, next_vertex
        )
        for a, ms in zip(game.players, mstates)
    )


# ---------------------------------------------------------------------------
# Profile -> protagonist strategy.


class UpsilonPolicy:
    """Protagonist strategy that consults a distributed profile through the
    per-suspect reconstructed local histories.

    Memory: the machine states of every player on the complying history at
    a state without suspects, else one such vector per suspect, in the
    state's suspect order.
    """

    def __init__(self, eg: EpistemicGame, profile):
        self.eg = eg
        self.profile = profile
        self.players = eg.game.players

    def initial(self):
        return tuple(self.profile.initial(a) for a in self.players)

    def _joint_move(self, states) -> Move:
        return tuple(
            self.profile.output(a, ms)[0] for a, ms in zip(self.players, states)
        )

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
        players = self.players

        def step(states, msgs):
            return _advance_all(eg.game, eg.graph, self.profile, states, msgs, nxt.vertex)

        if not state.deviated:
            for a, ms in zip(players, mem):
                msg = self.profile.output(a, ms)[1]
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
            for a, ms in zip(players, states):
                msg = self.profile.output(a, ms)[1]
                expected = d if a in informed else None
                if a != d and msg != expected:
                    raise NormednessViolation(
                        f"{a!r} sent {msg!r} instead of {expected!r} under "
                        f"hypothesis {d!r} at {state_key(state)}"
                    )
                msgs.append(expected)
            out.append(step(states, tuple(msgs)))
        return tuple(out)


def upsilon(eg: EpistemicGame, profile) -> UpsilonPolicy:
    """Protagonist strategy reading the profile; message discipline is
    validated lazily along every queried branch."""
    return UpsilonPolicy(eg, profile)


# ---------------------------------------------------------------------------
# Normedness checker.


@dataclass
class NormedReport:
    ok: bool
    violations: list[str]
    explored: int
    depth: int


def check_normed(
    game: ConcurrentGame, graph: CommGraph, profile, depth: Optional[int] = None
) -> NormedReport:
    """Exhaustively drive the profile against honest visible single-player
    deviations for `depth` steps and check the three message rules.

    Honest invisible onsets are not branched on separately: they leave every
    machine in the same state as compliance, so their continuations coincide
    with the branches explored here.
    """
    if depth is None:
        depth = graph.diameter + len(game.vertices) + 2
    if depth < 1:
        raise InvalidInput("check depth must be at least 1")
    violations: list[str] = []
    explored = 0

    # Deterministic complying run, checking silence along the way.
    comply: list[tuple[str, tuple]] = []
    v = game.init_vertex
    mstates = tuple(profile.initial(a) for a in game.players)
    for step in range(depth + 1):
        comply.append((v, mstates))
        outs = [profile.output(a, ms) for a, ms in zip(game.players, mstates)]
        explored += 1
        for a, (_act, msg) in zip(game.players, outs):
            if msg is not None:
                violations.append(
                    f"rule 1: {a!r} sent {msg!r} on the main outcome at step {step}"
                )
        move = tuple(o[0] for o in outs)
        v2 = game.successor(v, move)
        mstates = _advance_all(
            game, graph, profile, mstates, tuple(None for _ in game.players), v2
        )
        v = v2
    if violations:
        return NormedReport(False, violations, explored, depth)

    for d in game.players:
        audience = set(graph.informed_by[d])
        d_idx = game.player_index[d]
        queue: deque = deque()
        seen: set = set()

        def branch(mstates, msgs, v2, off, step, rejected):
            """Queue the machines' step to v2 at `step`; if they reject it,
            record the violation `rejected` names instead."""
            try:
                nstates = _advance_all(game, graph, profile, mstates, msgs, v2)
            except ProfileInputRejected as exc:
                violations.append(f"deviator {d!r}, {rejected}: {exc}")
                return
            key = (v2, nstates, msgs, off)
            if key not in seen:
                seen.add(key)
                queue.append((v2, nstates, msgs, off, step))

        onset_msgs = tuple(d if a == d else None for a in game.players)
        for onset, (v, mstates) in enumerate(comply[:-1]):
            outs = [profile.output(a, ms) for a, ms in zip(game.players, mstates)]
            move = tuple(o[0] for o in outs)
            target = game.successor(v, move)
            for delta in game.allow[v][d]:
                v2 = game.successor(v, substitute(move, d_idx, delta))
                if v2 != target:
                    branch(mstates, onset_msgs, v2, 1, onset + 1, f"onset {onset}: "
                           "machines rejected an honest visible deviation")
        while queue:
            v, mstates, last_msgs, off, step = queue.popleft()
            explored += 1
            outs = [profile.output(a, ms) for a, ms in zip(game.players, mstates)]
            bad = False
            for a, (_act, msg) in zip(game.players, outs):
                if a == d:
                    continue  # overridden by the honest deviator
                if off == 1:
                    expected = d if a in audience else None
                    rule = "rule 2" if a in audience else "message discipline"
                else:
                    received = any(
                        last_msgs[game.player_index[b]] == d
                        for b in graph.vois[a]
                    )
                    expected = d if received else None
                    rule = "rule 3"
                if msg != expected:
                    violations.append(
                        f"{rule}: deviator {d!r}, step {step}, player {a!r} "
                        f"sent {msg!r}, expected {expected!r}"
                    )
                    bad = True
            if bad or step >= depth:
                continue
            move = tuple(o[0] for o in outs)
            msgs = tuple(
                d if a == d else m
                for a, (_x, m) in zip(game.players, outs)
            )
            for delta in game.allow[v][d]:
                v2 = game.successor(v, substitute(move, d_idx, delta))
                branch(mstates, msgs, v2, 2, step + 1, f"step {step}: machines "
                       f"rejected an honest continuation to {v2!r}")

    return NormedReport(not violations, violations, explored, depth)


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

    @staticmethod
    def from_dict(data: dict) -> "DeviationScript":
        try:
            return DeviationScript(
                deviator=str(data["deviator"]),
                step=int(data["step"]),
                actions=tuple(str(x) for x in data["actions"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed deviation script: {exc}") from exc


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

    def to_json(self) -> dict:
        steps = [
            {
                "vertex": self.history.vertices[i],
                "move": list(mv),
                "messages": [m if m is not None else "" for m in msgs],
            }
            for i, (mv, msgs) in enumerate(
                zip(self.history.moves, self.history.messages)
            )
        ]
        out = {
            "steps": steps,
            "final_vertex": self.history.vertices[-1],
            "deviator": self.deviator,
            "diverged_at": self.diverged_at,
        }
        if self.cycle_start is not None:
            out["lasso"] = {
                "start": self.cycle_start,
                "vertices": list(self.history.vertices[self.cycle_start : -1]),
                "payoff": [str(q) for q in self.payoff],
            }
        return out


def simulate(
    game: ConcurrentGame,
    graph: CommGraph,
    profile,
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
        outs = [profile.output(a, ms) for a, ms in zip(game.players, mstates)]
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
        mstates = _advance_all(game, graph, profile, mstates, msgs_t, v2)
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


def check_deviation_resistance(eg: EpistemicGame, profile, p: Vector) -> ModelCheckReport:
    """Payoff-contract verdict for the strategy reconstructed from the
    profile: complying outcome exactly p, every deviation bounded by p."""
    return model_check_strategy(eg, upsilon(eg, profile), p)
