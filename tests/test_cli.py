"""Command line interface: exit codes, report shapes, determinism."""
from __future__ import annotations

import dataclasses
import functools
import json
import logging
import os
import subprocess
import sys

import pytest

from equisynth import asset_path
from equisynth.cli import _verify_profile, main
from equisynth.epistemic import state_key
from equisynth.parsing import parse_game, parse_query, serialize_comm_graph, serialize_game
from equisynth.solver import punishment_region, solve

from conftest import build_reachable, complete_strategy, tamper_punishment, two_leaf_game
from oracles import eve_states, full_build_verify, verify_outcome

GAME = str(asset_path("five_player_game.json"))
G1 = str(asset_path("comm_g1.json"))
G2 = str(asset_path("comm_g2.json"))
G3 = str(asset_path("comm_g3.json"))
# The query of the `report_path` fixture's solve.
REPORT_PREDICATE = "p[2]=1 & p[3]=1 & p[4]=1"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_text_report(capsys):
    code, out, err = run(capsys, "build", "--game", GAME, "--comm", G1)
    assert code == 0
    assert "protagonist states: 85" in out
    assert "antagonist states: 572" in out
    assert "deviated states: 78" in out
    assert err == ""


def test_build_json_report(capsys):
    code, out, _ = run(capsys, "build", "--game", GAME, "--comm", G2, "--format", "json")
    assert code == 0
    data = json.loads(out)
    stats = data["stats"]
    assert stats["eve_states"] == 79
    assert stats["adam_states"] == 391
    assert data["violations"] == []
    assert stats["eve_states"] <= stats["eve_bound"]
    assert stats["adam_states"] <= stats["adam_bound"]


def test_build_dot_output(capsys, tmp_path):
    target = tmp_path / "arena.dot"
    code, out, _ = run(
        capsys, "build", "--game", GAME, "--comm", G1,
        "--format", "dot", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("digraph epistemic {")


def test_build_state_cap(capsys):
    code, _, err = run(capsys, "build", "--game", GAME, "--comm", G1, "--state-cap", "10")
    assert code == 3
    assert "resource cap" in err
    # The message names the stage and how far it got.
    assert "epistemic build exceeded 10 Eve states" in err
    for progress in ("10 states interned", "0 states expanded", "3 Adam nodes made"):
        assert progress in err


def test_missing_file_is_an_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "build", "--game", str(tmp_path / "nope.json"), "--comm", G1)
    assert code == 2
    assert err.startswith("error:")

    # Files that parse as JSON but have the wrong shape are input errors too.
    game = json.loads(asset_path("five_player_game.json").read_text())
    string_entry = {**game, "transitions": {**game["transitions"], "v0": ["v1"]}}
    bad_games = [
        string_entry,
        {**game, "players": 5},
        {**game, "players": "01234"},
        {**game, "vertices": {v: {} for v in game["vertices"]}},
        # A string where a list belongs would read as its characters.
        {**game, "allow": {"v0": {"0": "ab"}}},
        {**game, "payoff": {**game["payoff"], "rules": [
            {**game["payoff"]["rules"][0], "then": "00111"}, *game["payoff"]["rules"][1:]
        ]}},
        {**game, "payoff": {**game["payoff"], "default": "00000"}},
        # Names the game does not declare would be ignored, so the game
        # built would differ from the file.
        {**game, "allow": {"v0": {"9": ["a"]}}},
        {**game, "allow": {"vZ": {"0": ["a"]}}},
        {**game, "transitions": {**game["transitions"], "vZ": [{"pattern": "*", "to": "v0"}]}},
        {**game, "vertices": [*game["vertices"], "v0"]},
        {**game, "players": [*game["players"], "0"]},
        {**game, "actions": [*game["actions"], "a"]},
        {**game, "init": "vZ"},
    ]
    for i, data in enumerate(bad_games):
        path = tmp_path / f"game{i}.json"
        path.write_text(json.dumps(data))
        for command in ("build", "solve"):
            code, _, err = run(capsys, command, "--game", str(path), "--comm", G1)
            assert (code, err.startswith("error:")) == (2, True), (i, command, err)
    for i, data in enumerate([{"edges": 3}, {"edge": []}, {"edges": [["0"]]}]):
        comm = tmp_path / f"comm{i}.json"
        comm.write_text(json.dumps(data))
        for command in ("build", "solve"):
            code, _, err = run(capsys, command, "--game", GAME, "--comm", str(comm))
            assert (code, err.startswith("error:")) == (2, True), (i, command, err)
    # Names must be JSON strings: str() would read 0 as "0" and null as
    # "None", so [[0, 1]] would silently be the edge ("0", "1").
    last = game["transitions"]["v0"][-1]
    unnamed = [
        ("game", {**game, "players": [0, 1, 2, 3, 4]}),
        ("game", {**game, "players": [None, *game["players"][1:]]}),
        ("game", {**game, "actions": [0, *game["actions"][1:]]}),
        ("game", {**game, "vertices": [0, *game["vertices"][1:]]}),
        ("game", {**game, "init": 0}),
        ("game", {**game, "transitions": {**game["transitions"], "v0": [
            *game["transitions"]["v0"][:-1], {**last, "to": None}]}}),
        ("comm", {"edges": [[0, 1]]}),
        ("comm", {"edges": [["0", None]]}),
    ]
    for i, (kind, data) in enumerate(unnamed):
        path = tmp_path / f"unnamed{i}.json"
        path.write_text(json.dumps(data))
        files = {"game": GAME, "comm": G1, kind: str(path)}
        for command in ("build", "solve"):
            code, _, err = run(capsys, command, "--game", files["game"],
                               "--comm", files["comm"])
            assert (code, err.startswith("error:"), "must be a JSON string" in err) == \
                (2, True, True), (i, command, err)
    code, _, err = run(capsys, "verify", "--game", GAME, "--comm", G1,
                       str(tmp_path / "nope.json"))
    assert (code, err.startswith("error: cannot read profile file")) == (2, True), err


def test_invalid_game_messages_name_the_fault(capsys, tmp_path):
    game = json.loads(asset_path("five_player_game.json").read_text())
    rules = game["payoff"]["rules"]
    for data, message in [
        ({**game, "payoff": {**game["payoff"], "rules": [
            *rules[:-1], {**rules[-1], "then": [0, 0, 3]}]}},
         "payoff rule vector arity mismatch"),
        ({**game, "payoff": {**game["payoff"], "rules": [
            *rules, {"if": "inf(zz)", "then": [0] * 5}]}},
         "payoff condition uses unknown vertex 'zz'"),
        # An empty allow list, at a vertex whose patterns name the player's
        # actions and at one with only a catch-all pattern.
        ({**game, "allow": {"v0": {"1": []}}}, "allow('v0', '1') is empty"),
        ({**game, "allow": {"v1": {"1": []}}}, "allow('v1', '1') is empty"),
    ]:
        path = tmp_path / "game.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "build", "--game", str(path), "--comm", G1)
        assert (code, out, err) == (2, "", f"error: {message}\n")


RING = [f"r{i}" for i in range(21)]


def ring_files(tmp_path) -> tuple[str, str]:
    """Two players on the ring r0 -> r1 -> ... -> r20 -> r0 that pays (1,1)
    when r0 recurs: the only complying cycle passes all 21 vertices."""
    game = {
        "players": ["0", "1"],
        "actions": ["a"],
        "vertices": RING,
        "init": "r0",
        "transitions": {
            v: [{"pattern": "*", "to": RING[(i + 1) % len(RING)]}]
            for i, v in enumerate(RING)
        },
        "payoff": {"rules": [{"if": "inf(r0)", "then": [1, 1]}], "default": [0, 0]},
    }
    game_path, comm_path = tmp_path / "ring.json", tmp_path / "ring_comm.json"
    game_path.write_text(json.dumps(game))
    comm_path.write_text(json.dumps({"edges": [["0", "1"]]}))
    return str(game_path), str(comm_path)


def test_solve_found(capsys, tmp_path):
    ring_game, ring_comm = ring_files(tmp_path)
    cases = [
        (("--game", GAME, "--comm", G1, "--predicate", REPORT_PREDICATE),
         "(0,0,1,1,1)", "(v0 v1)^w"),
        (("--game", ring_game, "--comm", ring_comm),
         "(1,1)", "(" + " ".join(RING) + ")^w"),
    ]
    for argv, payoff, cycle in cases:
        code, out, _ = run(capsys, "solve", *argv)
        assert code == 0
        assert "status: found" in out
        assert f"payoff: {payoff}" in out
        assert cycle in out
        assert "re-verification: pass" in out


def test_solve_not_found(capsys):
    code, out, _ = run(
        capsys, "solve", "--game", GAME, "--comm", G3,
        "--predicate", "p[2]=1 & p[3]=1 & p[4]=1",
        "--main-inf", "v0,v1",
    )
    assert code == 1
    assert "status: not-found" in out


def test_solve_unsatisfiable_predicate(capsys):
    code, out, _ = run(capsys, "solve", "--game", GAME, "--comm", G1, "--predicate", "p[0]=9")
    assert code == 1
    assert "candidates tried: 0" in out


def test_bad_predicate_syntax(capsys):
    code, _, err = run(capsys, "solve", "--game", GAME, "--comm", G1, "--predicate", "p[0]")
    assert code == 2
    assert err.startswith("error:")


def test_predicate_index_takes_ascii_digits_only(capsys):
    # str.isdigit accepts superscripts and other scripts' digits, some of
    # which int() then rejects.
    for index in ("\u00b2", "\u0663"):
        code, out, err = run(capsys, "solve", "--game", GAME, "--comm", G1,
                             "--predicate", f"p[{index}]=1")
        assert (code, out, err) == (2, "", f"error: bad component index {index!r}\n")


def _first_rule_as(tmp_path, condition: str) -> str:
    """The path of a copy of the bundled game whose first payoff rule has
    the condition `condition`."""
    data = json.loads(asset_path("five_player_game.json").read_text())
    rules = data["payoff"]["rules"]
    path = tmp_path / "game.json"
    path.write_text(json.dumps({**data, "payoff": {**data["payoff"], "rules": [
        {**rules[0], "if": condition}, *rules[1:]]}}))
    return str(path)


def test_rationals_take_ascii_digits_only(capsys, tmp_path):
    # Fraction() reads other scripts' digits too: p=(0,0,\u0663,\u0663,\u0663)
    # would ask for (0,0,3,3,3).  Predicate values and a game file's string
    # rationals are refused alike.
    for predicate, token in (("p=(0,0,\u0663,\u0663,\u0663)", "\u0663"),
                             ("p[2]>=\u0661/\u0662", "\u0661/\u0662")):
        code, out, err = run(capsys, "solve", "--game", GAME, "--comm", G1,
                             "--predicate", predicate)
        assert (code, out, err) == (2, "", f"error: bad rational {token!r}\n")
    data = json.loads(asset_path("five_player_game.json").read_text())
    data["payoff"]["default"] = [0, 0, 0, 0, "\u0661/3"]
    path = tmp_path / "game.json"
    path.write_text(json.dumps(data))
    for command in ("build", "solve"):
        code, out, err = run(capsys, command, "--game", str(path), "--comm", G1)
        assert (code, out, err) == (2, "", "error: bad rational '\u0661/3'\n")


def test_expression_nesting_is_bounded(capsys, tmp_path):
    deep = "expression nests parentheses and negations deeper than 100 levels"

    def solve_with(condition: str, predicate: str):
        code, out, err = run(capsys, "solve", "--game", _first_rule_as(tmp_path, condition),
                             "--comm", G1, "--predicate", predicate, "--format", "json")
        report = json.loads(out) if out else {}
        report.pop("game", None), report.pop("predicate", None)
        return code, report, err

    for predicate in ("(" * 2000 + REPORT_PREDICATE + ")" * 2000,
                      "!" * 101 + REPORT_PREDICATE):
        assert solve_with("inf(v1)", predicate) == (2, {}, f"error: {deep}\n")
    nested_400 = "(" * 400 + "inf(v1)" + ")" * 400
    assert solve_with(nested_400, REPORT_PREDICATE) == (2, {}, f"error: {deep}\n")
    path = tmp_path / "game.json"
    code, out, err = run(capsys, "build", "--game", str(path), "--comm", G1)
    assert (code, out, err) == (2, "", f"error: {deep}\n")
    # At the bound, the condition and the predicate read as without the
    # parentheses.
    plain = solve_with("inf(v1)", REPORT_PREDICATE)
    assert (plain[0], plain[1]["status"]) == (0, "found")
    assert solve_with("(" * 100 + "inf(v1)" + ")" * 100,
                      "(" * 100 + REPORT_PREDICATE + ")" * 100) == plain


def test_flat_chains_read_without_recursion(capsys, tmp_path):
    # The parser builds a chain of `&` or `|` as one node that holds its
    # operands flat.  A chain of 1,500 operands, in a payoff condition or in
    # the predicate, answers as its one operand does, and the game file
    # written back keeps the condition's left-nested text.
    def solve_with(condition: str, predicate: str):
        code, out, err = run(capsys, "solve", "--game", _first_rule_as(tmp_path, condition),
                             "--comm", G1, "--predicate", predicate, "--format", "json")
        report = json.loads(out)
        report.pop("game"), report.pop("predicate")
        return code, report, err

    plain = solve_with("inf(v1)", "p[2]=1")
    assert (plain[0], plain[1]["status"]) == (0, "found")
    for op in ("&", "|"):
        condition = f" {op} ".join(["inf(v1)"] * 1500)
        assert solve_with(condition, "p[2]=1") == plain
        assert solve_with("inf(v1)", f" {op} ".join(["p[2]=1"] * 1500)) == plain
        text = "inf(v1)"
        for _ in range(1499):
            text = f"({text} {op} inf(v1))"
        game = json.loads(serialize_game(parse_game(_first_rule_as(tmp_path, condition))))
        assert game["payoff"]["rules"][0]["if"] == text


def test_unknown_main_inf_vertex(capsys):
    code, _, err = run(capsys, "solve", "--game", GAME, "--comm", G1, "--main-inf", "v0,zz")
    assert code == 2
    assert "zz" in err
    code, _, err = run(capsys, "solve", "--game", GAME, "--comm", G1, "--main-inf", ",")
    assert code == 2
    assert err == "error: --main-inf must name at least one vertex\n"


def test_empty_option_values_are_input_errors(capsys, report_path):
    # An empty value is not "no constraint": a later empty --predicate would
    # otherwise drop the constraint an earlier one set.
    for command in ("solve", "verify"):
        extra = [str(report_path)] if command == "verify" else []
        for option in (["--predicate", "p=(0,0,1,1,1)", "--predicate="],
                       ["--predicate", "   "], ["--main-inf="], ["--main-inf", ""]):
            code, out, err = run(capsys, command, "--game", GAME, "--comm", G1,
                                 *option, *extra)
            assert (code, out, err.startswith("error:")) == (2, "", True), \
                (command, option, err)


def test_solve_report_is_deterministic(capsys):
    argv = ("solve", "--game", GAME, "--comm", G2, "--format", "json",
            "--predicate", "p[2]>=1")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


@pytest.fixture()
def report_path(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "solve", "--game", GAME, "--comm", G1,
        "--predicate", REPORT_PREDICATE,
        "--format", "json", "--out", str(path),
    )
    assert code == 0
    return path


def test_unwritable_out_is_an_input_error(capsys, report_path, tmp_path):
    # The solve finds a profile, so exit 1 ("not found") would misreport it.
    missing = tmp_path / "no" / "such" / "dir" / "report.txt"
    predicate = ["--predicate", REPORT_PREDICATE]
    for command, extra, out in (("build", [], tmp_path), ("solve", predicate, tmp_path),
                                ("verify", [str(report_path)], tmp_path),
                                ("solve", predicate, missing)):
        code, stdout, err = run(capsys, command, "--game", GAME, "--comm", G1,
                                *extra, "--out", str(out))
        assert (code, stdout) == (2, ""), (command, err)
        assert err.startswith(f"error: cannot write {out}: "), (command, err)


def test_verify_solve_report(capsys, report_path):
    code, out, _ = run(capsys, "verify", "--game", GAME, "--comm", G1, str(report_path))
    assert code == 0
    assert "status: pass" in out


def test_verify_bare_profile(capsys, report_path, tmp_path):
    profile = json.loads(report_path.read_text())["profile"]
    bare = tmp_path / "profile.json"
    bare.write_text(json.dumps(profile))
    code, out, _ = run(capsys, "verify", "--game", GAME, "--comm", G1, str(bare))
    assert code == 0
    assert "status: pass" in out


def test_verify_tampered_profile(capsys, report_path, tmp_path, eg1):
    # The report's profile holds only the rows its play reaches, so the
    # tampered profile is the complete punishment tables of the solve's
    # payoff with every row playing the complying move.
    data = json.loads(report_path.read_text())
    result = solve(eg1, query=parse_query(REPORT_PREDICATE))
    data["profile"] = tamper_punishment(complete_strategy(eg1, result).to_dict())
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--game", GAME, "--comm", G1, str(bad))
    assert code == 4
    assert "status: fail" in out
    assert "suspects {2,3,4}" in out
    assert "Traceback" not in err


def test_verify_tampered_written_rows(capsys, report_path, tmp_path):
    # Tampering the rows the report holds sends the play to a row it does
    # not hold: the checks fail there and name the state and leaf.
    data = json.loads(report_path.read_text())
    tamper_punishment(data["profile"])
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--game", GAME, "--comm", G1, str(bad))
    assert (code, "status: fail" in out, "Traceback" in err) == (4, True, False)
    assert ("payoff contract: punishment table for ('2', '3', '4') undefined at "
            "v1|2:2;3:0,1,3,4;4:0,1,4 with leaf 0") in out


def test_solve_reports_a_strategy_undefined_on_its_play(capsys, monkeypatch):
    # A solver defect that leaves the found strategy undefined where its play
    # goes is a failed check in the written report (exit 4), not a crash.
    def emptied(*args, **kwargs):
        punish = punishment_region(*args, **kwargs)
        layers = {d: dataclasses.replace(t, entries={}) for d, t in punish.layers.items()}
        return dataclasses.replace(punish, layers=layers)

    monkeypatch.setattr("equisynth.solver.punishment_region", emptied)
    code, out, err = run(capsys, "solve", "--game", GAME, "--comm", G1,
                         "--predicate", REPORT_PREDICATE, "--format", "json")
    report = json.loads(out)
    assert (code, report["status"], report["checks"]["payoff_contract"]) == (4, "found", False)
    assert report["profile"]["punish"] == []
    assert any(f.startswith("payoff contract: punishment table for") and "undefined at" in f
               for f in report["check_failures"]), report["check_failures"]


def test_verify_against_wrong_game(capsys, report_path):
    code, _, err = run(capsys, "verify", "--game", GAME, "--comm", G3, str(report_path))
    assert code == 2
    assert "does not match" in err


def test_verify_wrong_predicate(capsys, report_path):
    code, out, _ = run(
        capsys, "verify", "--game", GAME, "--comm", G1, str(report_path),
        "--predicate", "p[2]=0",
    )
    assert code == 4
    assert "predicate" in out


def test_verify_main_inf_mismatch(capsys, report_path):
    code, out, _ = run(
        capsys, "verify", "--game", GAME, "--comm", G1, str(report_path),
        "--main-inf", "v0p",
    )
    assert code == 4
    assert "--main-inf" in out


def test_verify_input_errors_come_before_the_build(capsys, report_path, tmp_path):
    # A state cap of 1 stops any build (exit 3), so exit 2 shows that the
    # bad --main-inf and the missing profile file are found before it.
    cap = ("--game", GAME, "--comm", G1, "--state-cap", "1")
    code, _, err = run(capsys, "verify", *cap, str(tmp_path / "missing.json"))
    assert (code, err.startswith("error: cannot read profile file")) == (2, True), err
    code, _, err = run(capsys, "verify", *cap, "--main-inf", "zz", str(report_path))
    assert (code, "zz" in err) == (2, True), err


def _edited(profile, change):
    data = json.loads(json.dumps(profile))
    change(data)
    return data


def garbage_profiles(profile) -> dict:
    """Label -> a damaged copy of `profile` that does not have the shape of
    a profile."""
    edited = functools.partial(_edited, profile)
    return {
        "junk": {"hello": 3},
        "list": [profile],
        "no payoff": edited(lambda p: p.pop("payoff")),
        "text payoff": edited(lambda p: p.update(payoff=["x"] * 5)),
        "short payoff": edited(lambda p: p.update(payoff=p["payoff"][:3])),
        "text leaf": edited(lambda p: p["punish"][0].update(leaf="h")),
        # Leaves must be JSON integers, though int() would read these.
        "numeric text leaf": edited(lambda p: p["punish"][0].update(leaf="0")),
        "true leaf": edited(lambda p: p["punish"][0].update(leaf=True)),
        "text action": edited(lambda p: p["comply"]["cycle"][0].update(action="aaaaa")),
        # A string would read as its characters, a float as a rational.
        "text payoff vector": edited(lambda p: p.update(payoff="".join(p["payoff"]))),
        "float payoff": edited(lambda p: p.update(payoff=[float(x) for x in p["payoff"]])),
        "duplicate row": edited(lambda p: p["punish"].append(p["punish"][0])),
    }


DISALLOWED = ["z", "a", "a", "a", "a"]


def _leaves_0_uninformed(key: str) -> bool:
    """Whether the state of `key` has suspects 2 and 3 and player 0 is
    informed of neither."""
    informed = dict(part.split(":") for part in key.split("|")[1].split(";"))
    return all(d in informed and "0" not in informed[d].split(",") for d in "23")


def rejected_profiles(profile) -> dict:
    """Label -> (a copy of `profile` with a row the game cannot place, an
    action that is no enabled Eve action or no complying cycle, the reason
    `verify` gives).  The edited punishment row is the first one with
    suspects 2 and 3 that leaves player 0 uninformed of both."""
    edited = functools.partial(_edited, profile)
    pair = next(i for i, r in enumerate(profile["punish"]) if _leaves_0_uninformed(r["key"]))
    key = profile["punish"][pair]["key"]
    vertex = key.split("|")[0]

    def pair_action(change):
        return edited(lambda p: change(p["punish"][pair]["action"]))

    return {
        "unknown key": (
            edited(lambda p: p["punish"][0].update(key="v9|-")),
            "profile does not match the built game"),
        "punishment row at a state without suspects": (
            edited(lambda p: p["punish"].append({**p["comply"]["cycle"][0], "leaf": 0})),
            "profile punishment row at v0|-, a state without suspects"),
        # A list would be read as one joint move, an object as a move function.
        "list at a state with suspects": (
            edited(lambda p: p["punish"][pair].update(action=["a"] * 5)),
            f"profile action at {key} must be a JSON object keyed by suspect"),
        "object on the complying cycle": (
            edited(lambda p: p["comply"]["cycle"][0].update(action={"2": ["a"] * 5})),
            "profile action at v0|- must be a JSON list of action names"),
        "disallowed complying move": (
            edited(lambda p: p["comply"]["cycle"][0].update(action=DISALLOWED)),
            "move ('z', 'a', 'a', 'a', 'a') not allowed at 'v0'"),
        "disallowed punishment move": (
            pair_action(lambda a: a.update({"2": DISALLOWED})),
            f"move ('z', 'a', 'a', 'a', 'a') not allowed at '{vertex}'"),
        "uninformed component differs": (
            pair_action(lambda a: a["3"].__setitem__(0, "b" if a["3"][0] == "a" else "a")),
            "components for '0' differ between hypotheses '2' and '3' "
            "though both leave it uninformed"),
        "missing suspect": (
            pair_action(lambda a: a.pop("2")),
            "profile action misses suspect '2'"),
        "non-suspect key": (
            pair_action(lambda a: a.update({"0": ["z"]})),
            f"profile action at {key} names non-suspects ['0']"),
        "empty complying cycle": (
            edited(lambda p: p["comply"].update(cycle=[])),
            "profile complying cycle is empty"),
    }


def test_verify_garbage_profile(capsys, report_path, tmp_path):
    junk = tmp_path / "junk.json"
    profile = json.loads(report_path.read_text())["profile"]
    for label, data in garbage_profiles(profile).items():
        junk.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", "--game", GAME, "--comm", G1, str(junk))
        assert (code, err.startswith("error:")) == (2, True), (label, err)

    # Rows the built game cannot place, and actions that are no enabled Eve
    # action, each rejected with its reason.
    for label, (data, message) in rejected_profiles(profile).items():
        junk.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", "--game", GAME, "--comm", G1, str(junk))
        assert (code, err.startswith("error:"), message in err) == (2, True, True), (label, err)


def test_on_demand_verify_matches_full_build_on_damaged_profiles(
        eg1, eg3, report_path, main_inf_report):
    # Every damaged profile of this module gives the full-build verify's
    # checks, failures, exit code and error.
    profile = json.loads(report_path.read_text())["profile"]
    # The complete tables playing the complying move fail the payoff and
    # resistance checks with violations; the written rows playing it fail
    # at a row the profile does not hold.
    result = solve(eg1, query=parse_query(REPORT_PREDICATE))
    every_a = tamper_punishment(complete_strategy(eg1, result).to_dict())
    written_a = _edited(profile, tamper_punishment)
    witness = verify_outcome(full_build_verify, eg1, every_a)
    assert witness[0] == 4 and any("suspects {2,3,4}" in f for f in witness[2]), witness
    cases = [(eg1, data) for data in garbage_profiles(profile).values()]
    cases += [(eg1, data) for data, _message in rejected_profiles(profile).values()]
    cases += [(eg1, every_a), (eg1, written_a), (eg3, profile)]
    other = main_inf_report["profile"]
    cases += [(eg1, _edited(other, lambda p: p["punish"][0].update(leaf=leaf)))
              for leaf in (1, -1)]
    cases += [(eg1, _edited(other, lambda p: p.update(format=f"equisynth-profile-v{v}")))
              for v in (1, 2, 3)]
    codes = set()
    for eg, data in cases:
        want = verify_outcome(full_build_verify, eg, data)
        assert verify_outcome(_verify_profile, eg.game, eg.graph, data) == want, want
        codes.add(want[0])
    assert codes == {2, 4}


# A key the distance characterization allows under g1 (suspect 3 informed
# itself and its observer 4, one step after its deviation) that the full g1
# game never reaches.
UNREACHED = "v1p|3:3,4"


def test_verify_accepts_unreached_valid_row(capsys, tmp_path, report_path, eg1):
    # `verify` checks a row no play reaches without building the game: its
    # key parses and passes the distance characterization, and its action is
    # enabled.  A built game reads the row as a view does, interning its
    # state after the built ones, so the full-build verify passes it too.
    # Reading it grows the game, so the test has its own build.
    full = build_reachable(eg1.game, eg1.graph)
    assert UNREACHED not in {state_key(s) for s in eve_states(full)}
    report = json.loads(report_path.read_text())
    row = {"key": UNREACHED, "leaf": 0, "action": {"3": ["a"] * 5}}
    report["profile"]["punish"].append(row)
    passed = verify_outcome(full_build_verify, full, report["profile"])
    assert (passed[0], passed[2]) == (0, [])
    assert verify_outcome(_verify_profile, full.game, full.graph, report["profile"]) == passed
    assert full.eve_for_key(UNREACHED) == full.built[0]
    path = tmp_path / "extra_row.json"
    path.write_text(json.dumps(report))
    code, out, _ = run(capsys, "verify", "--game", GAME, "--comm", G1, str(path))
    assert (code, "status: pass" in out) == (0, True)

    # The same key with a disallowed move, and keys whose informed masks are
    # no balls of one common radius, are rejected as before.
    row["action"] = {"3": DISALLOWED}
    path.write_text(json.dumps(report))
    code, _, err = run(capsys, "verify", "--game", GAME, "--comm", G1, str(path))
    assert (code, "move ('z', 'a', 'a', 'a', 'a') not allowed at 'v1p'" in err) == (2, True)
    for key in ("v1p|3:0,3", "v1p|3:3,4;4:0,1,4", "v1p|4:0,4;3:3,4", "v1p|3:4,3"):
        row.update(key=key, action={d: ["a"] * 5 for d in ("3", "4") if d + ":" in key})
        path.write_text(json.dumps(report))
        code, _, err = run(capsys, "verify", "--game", GAME, "--comm", G1, str(path))
        assert (code, err) == (2, "error: profile does not match the built game: "
                                   f"it has no state {key}\n"), key


def test_verify_state_cap(capsys, report_path):
    code, out, err = run(capsys, "verify", "--game", GAME, "--comm", G1,
                         "--state-cap", "5", str(report_path))
    assert (code, out) == (3, "")
    # The message names the stage and how far it got.
    assert err == ("resource cap: on-demand epistemic game exceeded 5 Eve states: "
                   "5 states interned, 0 states expanded, 4 Adam nodes made\n")


def test_predicate_arity_is_checked_before_any_work(capsys, report_path, monkeypatch):
    # Evaluation reads only the atoms that `&` and `|` do not cut short, so
    # each atom is checked against the game's players first.
    def no_game(*_args, **_kwargs):
        raise AssertionError("an epistemic game was made before the predicate was checked")

    monkeypatch.setattr("equisynth.cli.build_reachable", no_game)
    monkeypatch.setattr("equisynth.cli.EpistemicView", no_game)
    index = "error: predicate index p[9] out of range\n"
    for command, options, message in [
        ("solve", ["--predicate", "p[2]>=0 | p[9]=1"], index),
        ("verify", ["--predicate", "p[2]>=0 | p[9]=1"], index),
        ("solve", ["--predicate", "p[0]>=1 & p[9]=1"], index),
        ("verify", ["--state-cap", "1", "--predicate", "p[9]=1"], index),
        ("solve", ["--predicate", "!p[9]=1"], index),
        ("solve", ["--predicate", "p[2]>=0 | p=(0,0,1)"], "error: predicate vector arity mismatch\n"),
    ]:
        extra = [str(report_path)] if command == "verify" else []
        code, out, err = run(capsys, command, "--game", GAME, "--comm", G1, *options, *extra)
        assert (code, out, err) == (2, "", message), (command, options)


def test_solve_product_cap(capsys, tmp_path):
    # Only layers with two or more tree leaves add product nodes; the first
    # such layer of this game adds 29.
    game, graph = two_leaf_game()
    (tmp_path / "game.json").write_text(serialize_game(game))
    (tmp_path / "comm.json").write_text(serialize_comm_graph(graph))
    files = ["--game", str(tmp_path / "game.json"), "--comm", str(tmp_path / "comm.json")]
    code, _, err = run(capsys, "solve", *files, "--lar-cap", "20")
    assert code == 3
    assert "resource cap" in err
    # The message names the stage, the layer and how far it got.
    assert "punishment product exceeded 20 nodes in the layer with suspects {2}" in err
    for progress in ("2 tree leaves", "12 Eve states and 34 Adam nodes in the layer",
                     "20 product nodes made"):
        assert progress in err


def test_solve_one_leaf_layers_ignore_the_product_cap(capsys):
    # Every punishment layer of the bundled game under g1 has a one-leaf
    # tree, so no product node is made and the smallest cap changes nothing.
    default = run(capsys, "solve", "--game", GAME, "--comm", G1, "--format", "json")
    capped = run(capsys, "solve", "--game", GAME, "--comm", G1, "--format", "json",
                 "--lar-cap", "1")
    assert default[0] == 0
    assert capped == default


def test_verify_message_rule_cap(capsys, report_path, monkeypatch):
    # The payoff contract's product (9 nodes) fits under the cap; the
    # message-rule check's does not.
    monkeypatch.setattr("equisynth.solver.VERIFY_NODE_CAP", 10)
    code, out, err = run(capsys, "verify", "--game", GAME, "--comm", G1, str(report_path))
    assert (code, out) == (3, "")
    assert err == "resource cap: message-rule check exceeded 10 nodes: 6 nodes explored\n"


def test_nonpositive_limits_are_input_errors(capsys, monkeypatch):
    def no_build(*_args, **_kwargs):
        raise AssertionError("the game was built before the limits were checked")

    monkeypatch.setattr("equisynth.cli.build_reachable", no_build)
    for command, flag, value in [
        ("build", "--state-cap", "0"), ("solve", "--state-cap", "-5"),
        ("solve", "--lar-cap", "-1"), ("solve", "--lar-cap", "0"),
    ]:
        extra = ["profile.json"] if command == "verify" else []
        code, out, err = run(capsys, command, "--game", GAME, "--comm", G1,
                             flag, value, *extra)
        assert code == 2, (command, flag, value, err)
        assert err == f"error: {flag} must be at least 1, got {value}\n"
        assert out == ""


def test_subcommands_reject_options_they_ignore(capsys):
    # build reads no predicate, outcome set or product cap, only build
    # renders DOT, and the message-rule check has no depth to set.
    for command, option in [
        ("build", ["--predicate", "p[0]>=1"]), ("build", ["--main-inf", "v0"]),
        ("build", ["--depth", "3"]), ("build", ["--lar-cap", "10"]),
        ("solve", ["--depth", "3"]), ("verify", ["--depth", "3"]),
        ("verify", ["--lar-cap", "10"]),
        ("solve", ["--format", "dot"]), ("verify", ["--format", "dot"]),
    ]:
        extra = ["profile.json"] if command == "verify" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "--game", GAME, "--comm", G1, *option, *extra])
        assert exc.value.code == 2, (command, option)
        err = capsys.readouterr().err
        assert option[0] in err or "invalid choice: 'dot'" in err, (command, option, err)


@pytest.fixture()
def main_inf_report(capsys, tmp_path):
    path = tmp_path / "main_inf.json"
    code, _, _ = run(
        capsys, "solve", "--game", GAME, "--comm", G1, "--main-inf", "v0,v1",
        "--format", "json", "--out", str(path),
    )
    assert code == 0
    return json.loads(path.read_text())


def verify_edited(capsys, tmp_path, report, change):
    data = json.loads(json.dumps(report))
    change(data["profile"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return run(capsys, "verify", "--game", GAME, "--comm", G1, str(path))


def test_verify_rejects_leaf_outside_tree(capsys, tmp_path, main_inf_report):
    for leaf in (1, -1):
        code, _, err = verify_edited(
            capsys, tmp_path, main_inf_report,
            lambda p: p["punish"][0].update(leaf=leaf))
        assert code == 2
        assert err.startswith("error:") and f"leaf {leaf}" in err and "outside" in err


def test_verify_rejects_v1_profile(capsys, tmp_path, main_inf_report):
    # v3 profiles read their leaves against classes taken from the layer's
    # vertices, v4 against classes taken from the game's.
    for old in ("equisynth-profile-v1", "equisynth-profile-v2", "equisynth-profile-v3"):
        code, _, err = verify_edited(
            capsys, tmp_path, main_inf_report, lambda p: p.update(format=old))
        assert code == 2
        assert err.startswith("error:")
        assert old in err and "expected equisynth-profile-v4" in err


def test_logging_stays_on_stderr():
    # In a fresh process so the environment variable governs the logging
    # setup.  The log names the epistemic game each command builds.
    for command, built, eves in (("build", "full", 85), ("solve", "pruned", 79)):
        argv = [sys.executable, "-m", "equisynth", command, "--game", GAME, "--comm", G1]
        quiet = subprocess.run(argv, capture_output=True, text=True, env={**os.environ})
        assert quiet.returncode == 0
        assert quiet.stderr == ""
        env = {**os.environ, "EQUISYNTH_LOG": "debug"}
        loud = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert loud.returncode == 0
        assert loud.stdout == quiet.stdout
        assert f"built {built} epistemic game: {eves} protagonist" in loud.stderr
        # An upper-case name of `logging` that is no level logs INFO.
        env = {**os.environ, "EQUISYNTH_LOG": "basic_format"}
        other = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert other.returncode == 0, other.stderr
        assert other.stdout == quiet.stdout
        assert f"built {built} epistemic game: {eves} protagonist" in other.stderr


def test_logging_leaves_the_callers_loggers_alone(capsys, monkeypatch):
    # In process, as the benchmark calls `main`: EQUISYNTH_LOG sends the log
    # to stderr for that call only, and the root and `equisynth` loggers
    # are as they were once it returns, also when it exits by argparse.
    # The root logger starts without handlers, as in a fresh process.
    root, package = logging.getLogger(), logging.getLogger("equisynth")
    monkeypatch.setattr(root, "handlers", [])

    def loggers():
        return [(lg.handlers[:], lg.level, lg.propagate) for lg in (root, package)]

    before = loggers()
    monkeypatch.setenv("EQUISYNTH_LOG", "info")
    code, _, err = run(capsys, "build", "--game", GAME, "--comm", G1)
    assert code == 0
    assert "equisynth INFO built full epistemic game: 85 protagonist" in err
    assert loggers() == before
    with pytest.raises(SystemExit):
        main(["build", "--no-such-option"])
    capsys.readouterr()
    assert loggers() == before
    monkeypatch.delenv("EQUISYNTH_LOG")
    assert run(capsys, "build", "--game", GAME, "--comm", G1)[2] == ""
