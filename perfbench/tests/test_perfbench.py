"""Tests of the benchmark itself: inputs, output format and its checks.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small_wide(monkeypatch):
    """`wide` cut to its first two instances, so a run takes seconds."""
    players, vertices, actions, _count, master, kinds = workloads.FAMILIES["wide"]
    monkeypatch.setitem(workloads.FAMILIES, "wide",
                        (players, vertices, actions, 2, master, kinds))


def bench(capsys, workload: str, trace: int, seed: int = run.DEFAULT_SEED):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines


def files_of(workload: str, seed: int, target: Path) -> dict[str, bytes]:
    target.mkdir()
    run.fresh_import()
    workloads.write_instances(workload, seed, target)
    return {p.name: p.read_bytes() for p in sorted(target.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_files(tmp_path, workload):
    first = files_of(workload, 7, tmp_path / "a")
    assert first
    assert files_of(workload, 7, tmp_path / "b") == first
    if workload in workloads.FAMILIES:
        assert files_of(workload, 8, tmp_path / "c") != first


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(capsys, small_wide, trace, section):
    code, lines = bench(capsys, "wide", trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name, unit in declared.items():
        assert any(line.split()[0] == name and line.split()[-1] == unit
                   for line in lines[:-1]), name


def test_wrong_expected_verdict_fails_the_run(capsys, monkeypatch, small_wide):
    expected = run.load_expected()
    expected["wide"]["wide-00"]["payoff"] = ["9", "9", "9", "9"]
    monkeypatch.setattr(run, "load_expected", lambda: expected)
    code, lines = bench(capsys, "wide", 0)
    assert code != 0
    assert json.loads(lines[-1])["correct"] is False


def test_wrong_bundled_verdict_fails_the_run(capsys, monkeypatch):
    table = dict(workloads.BUNDLED_EXPECTED)
    table[("g3", "main-inf")] = (workloads.FOUND, 0, ["0", "0", "1", "1", "1"])
    monkeypatch.setattr(workloads, "BUNDLED_EXPECTED", table)
    code, lines = bench(capsys, "bundled", 0)
    assert code != 0
    assert json.loads(lines[-1])["correct"] is False


def test_cap_exit_counts_as_failed(capsys, monkeypatch, small_wide):
    write = workloads.write_instances

    def with_cap(*args, **kwargs):
        ops = write(*args, **kwargs)
        capped = next(op for op in ops if op.name == "wide-01")
        capped.argv += ["--state-cap", "5"]
        return ops

    monkeypatch.setattr(workloads, "write_instances", with_cap)
    code, lines = bench(capsys, "wide", 0)
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert 0 < result["failed"] < result["attempted"]
    completed = result["metrics"]["completed_frac"]["value"]
    assert completed == pytest.approx(1 - result["failed"] / result["attempted"])


def test_no_result_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("players, vertices, eve, adam", [
    (3, 8, 99, 1_188),
    (4, 4, 166, 13_295),
    (4, 6, 243, 43_623),
])
def test_generator_reproduces_roadmap_baseline(players, vertices, eve, adam):
    """ROADMAP baseline: random.Random(1), 2 actions, ring graph."""
    from equisynth.epistemic import build_reachable

    structure = workloads.draw_dense(random.Random(1), players, vertices, 2)
    game, graph = workloads.materialize(structure)
    eg = build_reachable(game, graph)
    assert (eg.eve_count(), eg.adam_count()) == (eve, adam)
