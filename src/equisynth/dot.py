"""Graphviz DOT rendering for the three graph-shaped values: game arenas,
communication graphs, and built epistemic games.  Output is deterministic
(node order follows construction order) so renders can be diffed.
"""
from __future__ import annotations

from .epistemic import EpistemicGame, action_key, state_key
from .game import CommGraph, ConcurrentGame


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _game_dot(game: ConcurrentGame) -> str:
    lines = ["digraph arena {", "  rankdir=LR;"]
    for v in game.vertices:
        shape = "doublecircle" if v == game.init_vertex else "ellipse"
        lines.append(f"  {_quote(v)} [shape={shape}];")
    for v in game.vertices:
        groups: dict[str, list[str]] = {}
        for move in game.moves(v):
            groups.setdefault(game.tab[v][move], []).append(",".join(move))
        order = {t: i for i, t in enumerate(game.vertices)}
        for target in sorted(groups, key=order.__getitem__):
            moves = groups[target]
            label = moves[0] if len(moves) == 1 else f"{moves[0]} (+{len(moves) - 1})"
            lines.append(f"  {_quote(v)} -> {_quote(target)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _comm_dot(graph: CommGraph) -> str:
    lines = ["digraph communication {"]
    for p in graph.players:
        lines.append(f"  {_quote(p)} [shape=circle];")
    for a, b in sorted(graph.edges, key=lambda e: (graph.players.index(e[0]),
                                                   graph.players.index(e[1]))):
        lines.append(f"  {_quote(a)} -> {_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _epistemic_dot(eg: EpistemicGame) -> str:
    """The states and Adam nodes the build made, not those a lookup made
    on demand after it."""
    lines = ["digraph epistemic {", "  rankdir=LR;"]
    eves, adams = eg.built
    states = [eg.state(eid) for eid in range(eves)]
    for eid, state in enumerate(states):
        lines.append(f"  e{eid} [shape=box, label={_quote(state_key(state))}];")
    for eid, state in enumerate(states):
        for aid in eg.eve_succ[eid]:
            label = action_key(state, eg.adam_action[aid])
            lines.append(f"  a{aid} [shape=circle, label={_quote(label)}];")
    for eid in range(eves):
        for aid in eg.eve_succ[eid]:
            lines.append(f"  e{eid} -> a{aid};")
    # The bold edge is the complying one: the only non-deviated successor.
    for aid in range(adams):
        for sid in eg.adam_succ[aid]:
            state = states[sid]
            style = "" if state.deviated else ", style=bold"
            lines.append(f"  a{aid} -> e{sid} [label={_quote(state.vertex)}{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(obj) -> str:
    """Render a game arena, communication graph, or epistemic game as DOT."""
    if isinstance(obj, ConcurrentGame):
        return _game_dot(obj)
    if isinstance(obj, CommGraph):
        return _comm_dot(obj)
    if isinstance(obj, EpistemicGame):
        return _epistemic_dot(obj)
    raise TypeError(f"cannot render {type(obj).__name__} as DOT")
