"""Benchmark of the `equisynth` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from `src/` of
that checkout; without it the benchmark exits with code 2 and prints no
result.

The run drives `equisynth.cli.main` in this process as a closed loop with
one caller.  Each pass first sets up (imports `equisynth` afresh and writes
the workload's instance files, see `workloads.py`) and then runs every
operation once.  Passes repeat while the next one is expected to end within
`--seconds`.  Every operation's result is checked:

* a solve must reach the expected verdict (status, exit code, payoff);
* a found solve is re-verified by the program (exit 4 if that fails); in
  `bundled` it is then checked again with `equisynth verify`, which must
  pass;
* a report must be byte-identical on every pass.

A check that fails makes the run print `"correct": false` and exit 1.  An
operation that hits a resource cap (exit 3) or raises is counted as failed
and does not stop the run.

Times are taken per operation and reported in seconds at reference
speed: a fixed pure-Python loop (`reference_seconds`) runs between any two
timed pieces of work, and each piece's wall time is scaled by
`REFERENCE_S` over the mean of the loop's times just before and just after
it.  The host's speed changes by up to half from one second to the next;
the loop sees the same changes as the program, so the scaled time measures
the program's cost.  Each operation is represented by the median of its
scaled times over the run.  Wall times are printed above the result too.
With `--trace 0` the last line holds the end-to-end metrics.  With
`--trace 1` passes alternate between untraced and traced; the last line
holds the per-layer metrics (medians over traced passes) and
`tracing_overhead`, and the spans are written to `.perfbench_out/`.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"
EXPECTED_FILE = HERE / "expected.json"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

DEFAULT_SEED = 1
# Fewest passes in a run, so that each operation has a median of three.
MIN_PASSES = 3
# A set-up takes well under a second and is noisy; several before each pass
# spread the samples of its median over the whole run.
SETUPS_PER_PASS = 4
# Size of the reference loop, and the time it takes at reference speed:
# about its fastest time on the 2-core Xeon virtual machine the benchmark
# was written on (8.3-9.4 ms; its median over a run was 11-15 ms there).
REFERENCE_N = 8000
REFERENCE_S = 0.010
# The tail is the slowest sample that still has this many samples beyond it.
TAIL_BEYOND = 10
EXIT_CAP = 3
EXIT_VERIFY = 4

# Metric names and units, as BENCHMARK.json declares them.
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}


class WrongResult(Exception):
    """An operation gave a wrong or unstable answer."""


@dataclass
class Tally:
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    # Seconds at reference speed of each set-up.
    setup_s: list[float] = field(default_factory=list)
    # Seconds at reference speed of each successful run of an operation,
    # keyed by (traced pass, kind, operation name); `wall` holds the same
    # runs' wall seconds.
    times: dict[tuple[bool, str, str], list[float]] = field(default_factory=dict)
    wall: dict[tuple[bool, str, str], list[float]] = field(default_factory=dict)
    # Every time of the reference loop, the last of them, and the factor
    # from wall time to reference speed of each attempted operation.
    refs: list[float] = field(default_factory=list)
    last_ref: float = REFERENCE_S
    scales: dict[int, float] = field(default_factory=dict)
    layers: list[dict[str, float]] = field(default_factory=list)
    shares: list[dict[str, float]] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    reports: dict[str, bytes] = field(default_factory=dict)

    def medians(self, traced: bool, kind: str | None = None,
                wall: bool = False) -> list[float]:
        """Median time of each operation, at reference speed or wall."""
        samples = self.wall if wall else self.times
        return [statistics.median(v) for (t, k, _name), v in samples.items()
                if t == traced and kind in (None, k)]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def fresh_import():
    """Import `equisynth.cli` from the checkout, dropping earlier imports."""
    for name in [m for m in sys.modules if m == "equisynth" or m.startswith("equisynth.")]:
        del sys.modules[name]
    cli = importlib.import_module("equisynth.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"equisynth was imported from {cli.__file__}, not {SRC}")
    return cli


def reference_seconds() -> float:
    """Wall seconds that a fixed loop of tuple, dict and set work takes now.
    The collector is off while it runs, so that the heap the program leaves
    behind does not change its time."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict[tuple[int, int], int] = {}
        pairs = set()
        for i in range(REFERENCE_N):
            key = (i % 211, i * 7 % 97)
            counts[key] = counts.get(key, 0) + 1
            pairs.add(frozenset((i % 13, i % 17)))
        sorted(counts.items())
        return time.perf_counter() - t0
    finally:
        gc.enable()


def rescale(tally: Tally) -> float:
    """Run the reference loop; returns the factor from wall time to reference
    speed for the work done since it last ran."""
    now = reference_seconds()
    factor = 2 * REFERENCE_S / (tally.last_ref + now)
    tally.last_ref = now
    tally.refs.append(now)
    return factor


def set_up(args, workdir: Path, expected: dict, tally: Tally):
    """Import the package afresh and write the instance files, SETUPS_PER_PASS
    times; returns the last `cli` module and its operations."""
    target = workdir / "inputs"
    target.mkdir(exist_ok=True)
    for _ in range(SETUPS_PER_PASS):
        gc.collect()
        t0 = time.perf_counter()
        cli = fresh_import()
        ops = workloads.write_instances(args.workload, args.seed, target, expected)
        seconds = time.perf_counter() - t0
        tally.setup_s.append(seconds * rescale(tally))
    return cli, ops


# ---------------------------------------------------------------------------
# Running and checking operations.


def call(cli, op, tracer, op_id: int):
    """Run one operation; returns (exit code or None if it raised, seconds)."""
    op.out.unlink(missing_ok=True)
    gc.collect()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(op.argv)
        else:
            code = tracer.call(op_id, cli.main, op.argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # an uncaught error fails the operation, not the run
        traceback.print_exc(file=sys.stderr)
        code = None
    return code, time.perf_counter() - t0


def check(op, code, tally: Tally) -> dict:
    """Check an operation that ended with `code` (not a cap); returns its
    report."""
    if code == EXIT_VERIFY:
        raise WrongResult(f"{op.name}: exit 4, the result failed verification")
    try:
        raw = op.out.read_bytes()
        report = json.loads(raw)
    except (OSError, ValueError) as exc:
        raise WrongResult(f"{op.name}: exit {code}, no readable report: {exc}") from exc
    first = tally.reports.setdefault(op.name, raw)
    if first != raw:
        raise WrongResult(f"{op.name}: the report differs from the first pass")
    if op.kind == "verify":
        if code != 0 or report.get("status") != "pass":
            raise WrongResult(f"{op.name}: verify gave exit {code}, "
                              f"status {report.get('status')}")
        return report
    got = {"status": report.get("status"), "exit": code, "payoff": report.get("payoff")}
    if got["status"] not in (workloads.FOUND, workloads.NOT_FOUND) or \
            code != (0 if got["status"] == workloads.FOUND else 1):
        raise WrongResult(f"{op.name}: status {got['status']} with exit {code}")
    if op.expect is not None and got != op.expect:
        raise WrongResult(f"{op.name}: expected {op.expect}, got {got}")
    return report


def run_pass(cli, ops, tally: Tally, tracer) -> None:
    """Run every operation once, a found solve followed by its verify."""
    for op in ops:
        todo = [op]
        while todo:
            current = todo.pop()
            code, seconds = call(cli, current, tracer, tally.attempted)
            scale = tally.scales[tally.attempted] = rescale(tally)
            tally.attempted += 1
            if code is None or code == EXIT_CAP:
                tally.failed += 1
                continue
            report = check(current, code, tally)
            key = (tracer is not None, current.kind, current.name)
            tally.times.setdefault(key, []).append(seconds * scale)
            tally.wall.setdefault(key, []).append(seconds)
            if report.get("status") == workloads.FOUND and current.verify is not None:
                todo.append(current.verify)


def measure(args, workdir: Path, expected: dict, tally: Tally) -> None:
    """Set up and run a pass, again and again, while the next one is expected
    to end within `--seconds`, and at least MIN_PASSES times.  With
    `--trace 1`, passes alternate between untraced and traced."""
    tracer = Tracer() if args.trace else None
    cpus = sorted(os.sched_getaffinity(0))
    reference_seconds()  # warm-up
    start = time.perf_counter()
    walls: list[float] = []
    while len(walls) < MIN_PASSES or \
            time.perf_counter() - start + statistics.median(walls) <= args.seconds:
        began = time.perf_counter()
        # A pass stays on one CPU, so that the reference loop runs where
        # the work it scales ran.  Moving to the next CPU each pass (each
        # pair of passes when traced, so both kinds run on every CPU) gives
        # every operation runs on each of them.
        turn = len(walls) // 2 if tracer else len(walls)
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        tally.last_ref = reference_seconds()
        cli, ops = set_up(args, workdir, expected, tally)
        if tracer is None or len(walls) % 2 == 0:
            run_pass(cli, ops, tally, None)
        else:
            tracer.reset()
            tracer.install(cli, sys.modules["equisynth.solver"])
            try:
                run_pass(cli, ops, tally, tracer)
            finally:
                tracer.uninstall()
            tally.layers.append(tracer.layer_metrics(tally.scales))
            tally.shares.append(tracer.shares(tally.scales))
            tally.spans.append(tracer.to_json())
        walls.append(time.perf_counter() - began)
        tally.passes += 1
    os.sched_setaffinity(0, cpus)


# ---------------------------------------------------------------------------
# Metrics.


def end_to_end(tally: Tally) -> tuple[dict, list[str]]:
    solves = tally.medians(False, "solve")
    values = {
        "setup_s": statistics.median(tally.setup_s),
        "suite_s": sum(tally.medians(False)),
        # None (left out of the result) when every solve failed.
        "solve_p50_s": statistics.median(solves) if solves else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed_frac": 1.0 - tally.failed / tally.attempted,
    }
    samples = sorted(t for (_tr, kind, _n), v in tally.times.items() if kind == "solve"
                     for t in v)
    n = len(samples)
    notes = [
        f"passes {tally.passes}, operations {tally.attempted}, "
        f"failed {tally.failed} (failed_frac {tally.failed / tally.attempted:.4f})",
        f"solve operations {len(solves)}",
        f"reference loop: median {statistics.median(tally.refs) * 1e3:.4g} ms over "
        f"{len(tally.refs)} runs ({REFERENCE_S * 1e3:g} ms at reference speed)",
        f"wall time (not bounded): suite {sum(tally.medians(False, wall=True)):.6g} s, "
        f"solve p50 {statistics.median(tally.medians(False, 'solve', wall=True)):.6g} s"
        if solves else "wall time omitted: no solve completed",
    ]
    verify = tally.medians(False, "verify")
    if verify:
        notes.append(f"verify p50 (not bounded): {statistics.median(verify):.6g} s "
                     f"over {len(verify)} verify operations")
    if n > TAIL_BEYOND:
        notes.append(f"solve tail (not bounded): {samples[n - 1 - TAIL_BEYOND]:.6g} s "
                     f"at p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n} solve samples")
    else:
        notes.append(f"solve tail omitted: {n} solve samples")
    return values, notes


def per_layer(tally: Tally) -> tuple[dict, list[str]]:
    values = {
        name: statistics.median(layer[name] for layer in tally.layers)
        for name in tally.layers[0]
    }
    untraced, traced = sum(tally.medians(False)), sum(tally.medians(True))
    values["tracing_overhead"] = traced / untraced
    shares = {
        name: statistics.median(s[name] for s in tally.shares) for name in tally.shares[0]
    }
    total = sum(shares.values())
    notes = [f"traced passes {len(tally.layers)}, "
             f"untraced {tally.passes - len(tally.layers)}",
             f"share of the traced operation time ({total:.3f} s) by layer self time:"]
    notes += [f"  {name:24s} {value / total:7.1%}  {value:.4f} s"
              for name, value in sorted(shares.items(), key=lambda kv: -kv[1])]
    return values, notes


def result_line(correct: bool, tally: Tally, values: dict, units: dict) -> str:
    metrics = {
        name: {"value": values[name], "unit": units[name]}
        for name in units if values.get(name) is not None
    }
    return json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                       "failed": tally.failed, "metrics": metrics})


def run(args, workdir: Path) -> int:
    tally = Tally()
    try:
        measure(args, workdir, load_expected(), tally)
    except WrongResult as exc:
        print(f"wrong result: {exc}", file=sys.stderr)
        print(result_line(False, tally, {}, {}))
        return 1
    if args.trace:
        values, notes = per_layer(tally)
        units = PER_LAYER_UNITS
        OUT_ROOT.mkdir(exist_ok=True)
        spans = OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                     "passes": tally.spans}))
        notes.append(f"spans written to {spans.relative_to(ROOT)}")
    else:
        values, notes = end_to_end(tally)
        units = END_TO_END_UNITS
    print(f"workload {args.workload}, seed {args.seed}")
    for line in notes:
        print(line)
    for name, unit in units.items():
        if values.get(name) is not None:
            print(f"{name:28s} {values[name]:.6g} {unit}")
    print(result_line(True, tally, values, units))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "equisynth" / "__init__.py").is_file():
        print(f"error: no equisynth package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    # Byte code of this run goes to its work directory, so every run
    # starts from the same state whatever the checkout holds.
    saved_prefix, sys.pycache_prefix = sys.pycache_prefix, str(workdir / "pycache")
    try:
        return run(args, workdir)
    finally:
        sys.pycache_prefix = saved_prefix
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
