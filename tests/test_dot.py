"""Graphviz export for arenas, communication graphs, and built state spaces."""
from __future__ import annotations

import re

import pytest

from equisynth.dot import export_dot
from equisynth.epistemic import check_distance_characterization

from conftest import build_reachable
from oracles import eve_states


def test_arena_dot(game5):
    d = export_dot(game5)
    assert d.startswith("digraph arena {")
    assert '"v0" [shape=doublecircle];' in d
    assert '"v3" [shape=ellipse];' in d
    # Parallel moves to the same target collapse into one labelled edge.
    assert '"v0" -> "v1" [label="a,a,a,a,a"];' in d
    assert '"v0" -> "v2" [label="a,b,a,a,a (+7)"];' in d
    assert d.rstrip().endswith("}")


def test_comm_graph_dot(g1):
    d = export_dot(g1)
    assert d.startswith("digraph communication {")
    assert '"2" [shape=circle];' in d
    assert '"3" -> "4";' in d
    assert '"2" ->' not in d


def test_epistemic_dot(eg1):
    d = export_dot(eg1)
    assert d.startswith("digraph epistemic {")
    assert 'e0 [shape=box, label="v0|-"];' in d
    assert 'label="v1p|2:2;3:3,4;4:0,4"' in d
    assert "shape=circle" in d
    assert "style=bold" in d
    assert d.count("shape=box") == eg1.eve_count()
    assert d.count("shape=circle") == eg1.adam_count()
    # One bold (complying) edge per Adam node at a non-deviated state.
    complying = sum(len(eg1.eve_succ[e]) for e, s in enumerate(eve_states(eg1)) if not s.deviated)
    assert d.count("style=bold") == complying
    edges = re.findall(r'^  a\d+ -> e(\d+) \[label="([^"]*)"', d, re.MULTILINE)
    assert len(edges) == sum(map(len, eg1.adam_succ))
    assert all(label == eg1.state(int(sid)).vertex for sid, label in edges)


def test_grown_build_renders_as_built(game5, g1, eg1):
    # Lookups at the split states of a pruned build, with the full build's
    # actions, make Adam nodes and intern states after the built ones; the
    # DOT and the distance check read only what the build made.
    pruned = build_reachable(game5, g1, pruned=True)
    dot, distance = export_dot(pruned), check_distance_characterization(pruned)
    for e in list(pruned.split):
        for aid in eg1.eve_succ[eg1.keys.index(pruned.keys[e])]:
            pruned.adam_for_action(e, eg1.adam_action[aid])
    assert pruned.eve_count() > pruned.built[0] and pruned.adam_count() > pruned.built[1]
    assert export_dot(pruned) == dot
    assert check_distance_characterization(pruned) == distance == []


def test_dot_is_deterministic(game5, g1, eg1):
    for obj in (game5, g1, eg1):
        assert export_dot(obj) == export_dot(obj)


def test_dot_rejects_unknown_objects():
    with pytest.raises(TypeError):
        export_dot({"not": "supported"})
