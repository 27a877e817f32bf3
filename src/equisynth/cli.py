"""Command-line front end: build and inspect the epistemic game, search for
an enforceable payoff, and verify exported strategy profiles.

`build` constructs the full epistemic game and `solve` the dominance-pruned
one, which it re-verifies its profile on.  `verify` builds no game: it reads
the profile on an `EpistemicView`, which makes only what the rows and checks
reach, and `--state-cap` bounds the Eve states it interns.  A `--predicate`
is checked against the game's players before any of that work.

Reports are deterministic for a given configuration: anything that varies
between runs (timings) goes to the logging channel only, controlled by the
EQUISYNTH_LOG environment variable.

Exit codes: 0 success or found, 1 not found, 2 input error, 3 resource cap
exceeded, 4 verification or invariant failure.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import os
import sys
import time
from pathlib import Path
from typing import Optional

from .dot import export_dot
from .epistemic import (
    STATE_CAP,
    EpistemicView,
    build_reachable,
    check_distance_characterization,
    check_knowledge_invariant,
)
from .errors import (
    CapExceeded,
    InvalidInput,
    NormednessViolation,
    ProfileInputRejected,
    StrategyUndefined,
)
from .parsing import parse_comm_graph, parse_game, parse_query
from .solver import LAR_CAP, EveStrategy, candidate_payoffs, model_check_strategy, solve
from .translate import check_deviation_resistance, check_normed, omega

log = logging.getLogger("equisynth")

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


def _add_common(p: argparse.ArgumentParser, formats=("text", "json")) -> None:
    p.add_argument("--game", required=True, help="game description file")
    p.add_argument("--comm", required=True, help="communication graph file")
    p.add_argument("--state-cap", type=int, default=STATE_CAP, help="epistemic state cap")
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", help="write the report here instead of stdout")


def _add_checks(p: argparse.ArgumentParser) -> None:
    p.add_argument("--predicate", help="payoff predicate, e.g. 'p[2]=1 & p[3]>=1'")
    p.add_argument("--main-inf", help="comma-separated vertex set the complying outcome must visit infinitely often")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equisynth",
        description="equilibrium synthesis for concurrent games with partial action visibility",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    b = sub.add_parser("build", help="build the epistemic game and report stats")
    _add_common(b, formats=("text", "json", "dot"))
    b.set_defaults(func=cmd_build)
    s = sub.add_parser("solve", help="search for an enforceable payoff vector")
    _add_common(s)
    _add_checks(s)
    s.add_argument("--lar-cap", type=int, default=LAR_CAP, help="cap on the product nodes each punishment layer with a multi-leaf Zielonka tree adds to the parity game (one-leaf layers add none)")
    s.set_defaults(func=cmd_solve)
    v = sub.add_parser("verify", help="re-verify a solve report's strategy profile")
    _add_common(v)
    _add_checks(v)
    v.add_argument("profile", help="report or profile file produced by solve")
    v.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, made once per process: parsing leaves it as it was."""
    return build_parser()


def _parse(args):
    """Parse the game and graph files."""
    game = parse_game(args.game)
    return game, parse_comm_graph(args.comm, game.players)


def _parse_with_query(args):
    """Parse the predicate (syntax errors first), the game and the graph,
    and check every atom of the predicate against the game's players."""
    query = parse_query(args.predicate) if args.predicate is not None else None
    game, graph = _parse(args)
    if query is not None:
        query.check_arity(len(game.players))
    return query, game, graph


def _build(args, game, graph, pruned: bool = False):
    """Build the epistemic game: the dominance-pruned one for `solve`, the
    full one for `build`."""
    t0 = time.perf_counter()
    eg = build_reachable(game, graph, state_cap=args.state_cap, pruned=pruned)
    log.info(
        "built %s epistemic game: %d protagonist / %d antagonist states in %.3fs",
        "pruned" if pruned else "full", eg.eve_count(), eg.adam_count(),
        time.perf_counter() - t0,
    )
    return eg


def _main_inf(args, game) -> Optional[frozenset[str]]:
    if args.main_inf is None:
        return None
    verts = frozenset(x.strip() for x in args.main_inf.split(",") if x.strip())
    unknown = verts - set(game.vertices)
    if unknown:
        raise InvalidInput(f"unknown vertices in --main-inf: {sorted(unknown)}")
    if not verts:
        raise InvalidInput("--main-inf must name at least one vertex")
    return verts


def _emit(args, text: str) -> None:
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise InvalidInput(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _json_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def cmd_build(args) -> int:
    eg = _build(args, *_parse(args))
    if args.format == "dot":
        _emit(args, export_dot(eg))
        return EXIT_OK
    bounds = eg.size_bounds()
    violations = check_knowledge_invariant(eg)
    violations += check_distance_characterization(eg)
    if bounds["eve_states"] > bounds["eve_bound"]:
        violations.append("protagonist state count exceeds its bound")
    if bounds["adam_states"] > bounds["adam_bound"]:
        violations.append("antagonist state count exceeds its bound")
    report = {
        "command": "build",
        "game": args.game,
        "comm": args.comm,
        "stats": {**bounds, "deviated_states": len(eg.deviated_ids())},
        "violations": violations,
    }
    if args.format == "json":
        _emit(args, _json_text(report))
    else:
        s = report["stats"]
        lines = [
            f"game: {args.game}",
            f"comm: {args.comm}",
            f"protagonist states: {s['eve_states']} (bound {s['eve_bound']})",
            f"antagonist states: {s['adam_states']} (bound {s['adam_bound']})",
            f"deviated states: {s['deviated_states']}",
            f"graph diameter: {s['diameter']}",
            f"transition entries: {s['tab_entries']}",
            f"invariant violations: {len(violations)}",
        ]
        lines += [f"  {v}" for v in violations]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_VERIFY if violations else EXIT_OK


_CHECK_ERRORS = (
    StrategyUndefined,
    ProfileInputRejected,
    NormednessViolation,
)


def _verify_strategy(game, graph, eg, strategy) -> tuple[dict, list[str]]:
    """Re-check a strategy from scratch; returns (check report, failures).

    Any exception a check raises on a reachable state (undefined table entry,
    rejected machine input, broken message rule) counts as a failure with the
    exception text as its witness: a damaged profile must fail verification,
    not crash it."""
    failures: list[str] = []
    p = strategy.payoff
    profile = omega(eg, strategy)

    def run(label: str, check, *args):
        """The report of `check(*args)`, its violations added to `failures`,
        or None, with the exception added, if the check raises."""
        try:
            report = check(*args)
        except _CHECK_ERRORS as exc:
            failures.append(f"{label}: {exc}")
            return None
        failures.extend(f"{label}: {v}" for v in report.violations)
        return report

    mc = run("payoff contract", model_check_strategy, eg, strategy, p)
    norm = run("message rules", check_normed, game, graph, profile)
    resist = run("deviation resistance", check_deviation_resistance, eg, profile, p)
    checks = {
        "payoff_contract": mc is not None and mc.ok,
        "complying_cycle": list(mc.complying_cycle) if mc else [],
        "message_rules": norm is not None and norm.ok,
        "deviation_resistance_cycle": list(resist.complying_cycle) if resist else [],
    }
    return checks, failures


def cmd_solve(args) -> int:
    query, game, graph = _parse_with_query(args)
    main_inf = _main_inf(args, game)
    report = {
        "command": "solve",
        "game": args.game,
        "comm": args.comm,
        "predicate": args.predicate,
        "main_inf": sorted(main_inf) if main_inf else None,
    }
    candidates = candidate_payoffs(game, query)
    result = None
    if candidates:
        eg = _build(args, game, graph, pruned=True)
        t0 = time.perf_counter()
        result = solve(eg, query=query, main_inf=main_inf, lar_cap=args.lar_cap)
        log.info("solve finished in %.3fs", time.perf_counter() - t0)
    else:
        log.info("no payoff vector satisfies the predicate: no epistemic game built")
    if result is None:
        report["status"] = "not-found"
        report["candidates_tried"] = [[str(q) for q in v] for v in candidates]
        _emit_solve(args, report)
        return EXIT_NOT_FOUND
    checks, failures = _verify_strategy(game, graph, eg, result.strategy)
    report["status"] = "found"
    report["payoff"] = [str(q) for q in result.payoff]
    report["lasso"] = {
        "prefix": list(result.lasso_prefix),
        "cycle": list(result.lasso_cycle),
    }
    report["candidates_tried"] = [[str(q) for q in v] for v in result.candidates_tried]
    report["checks"] = checks
    report["check_failures"] = failures
    report["profile"] = result.strategy.to_dict()
    _emit_solve(args, report)
    return EXIT_VERIFY if failures else EXIT_OK


def _emit_solve(args, report: dict) -> None:
    if args.format == "json":
        _emit(args, _json_text(report))
        return
    lines = [f"status: {report['status']}"]
    if report.get("predicate"):
        lines.append(f"predicate: {report['predicate']}")
    if report.get("main_inf"):
        lines.append(f"main inf: {{{','.join(report['main_inf'])}}}")
    if report["status"] == "found":
        lines.append(f"payoff: ({','.join(report['payoff'])})")
        lasso = report["lasso"]
        pre = " ".join(lasso["prefix"]) or "-"
        lines.append(f"lasso: {pre} ({' '.join(lasso['cycle'])})^w")
        ok = "pass" if not report["check_failures"] else "FAIL"
        lines.append(f"re-verification: {ok}")
        lines += [f"  {f}" for f in report["check_failures"]]
    lines.append(f"candidates tried: {len(report['candidates_tried'])}")
    _emit(args, "\n".join(lines) + "\n")


def _verify_profile(game, graph, data, state_cap: int = STATE_CAP):
    """Read a profile on an `EpistemicView` of the game and re-check it;
    returns (strategy, check report, failures)."""
    t0 = time.perf_counter()
    eg = EpistemicView(game, graph, state_cap)
    strategy = EveStrategy.from_dict(eg, data)
    checks, failures = _verify_strategy(game, graph, eg, strategy)
    log.info(
        "verified on %d protagonist / %d antagonist states of the epistemic game in %.3fs",
        eg.eve_count(), eg.adam_count(), time.perf_counter() - t0,
    )
    return strategy, checks, failures


def cmd_verify(args) -> int:
    """Re-verify a report's or a bare profile's strategy: read every row (a
    `solve` profile holds the punishment rows its play reaches, but any row
    is checked) on an `EpistemicView`, then run the three checks and the
    --predicate and --main-inf ones.  Input errors come first."""
    query, game, graph = _parse_with_query(args)
    main_inf = _main_inf(args, game)
    try:
        data = json.loads(Path(args.profile).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read profile file {args.profile}: {exc}") from exc
    if isinstance(data, dict) and "profile" in data:
        data = data["profile"]
    strategy, checks, failures = _verify_profile(game, graph, data, args.state_cap)
    if query is not None and not query.matches(strategy.payoff):
        failures.append(
            f"profile payoff ({','.join(str(q) for q in strategy.payoff)}) "
            f"does not satisfy the predicate"
        )
    if main_inf is not None and frozenset(checks["complying_cycle"]) != main_inf:
        failures.append("complying outcome does not match --main-inf")
    report = {
        "command": "verify",
        "game": args.game,
        "comm": args.comm,
        "profile": args.profile,
        "payoff": [str(q) for q in strategy.payoff],
        "checks": checks,
        "check_failures": failures,
        "status": "pass" if not failures else "fail",
    }
    if args.format == "json":
        _emit(args, _json_text(report))
    else:
        lines = [
            f"profile: {args.profile}",
            f"payoff: ({','.join(report['payoff'])})",
            f"status: {report['status']}",
        ]
        lines += [f"  {f}" for f in failures]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if not failures else EXIT_VERIFY


@contextlib.contextmanager
def _log_to_stderr():
    """While the body runs, send the `equisynth` loggers' records to stderr
    at the level EQUISYNTH_LOG names; the root logger is left alone."""
    name = os.environ.get("EQUISYNTH_LOG", "").upper()
    if not name:
        yield
        return
    # Only the level names of `logging` are ints; anything else logs INFO.
    level = getattr(logging, name, None)
    handler, saved = logging.StreamHandler(), log.level
    handler.setFormatter(logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s"))
    log.addHandler(handler)
    log.setLevel(level if isinstance(level, int) else logging.INFO)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(saved)


def main(argv=None) -> int:
    with _log_to_stderr():
        args = _parser().parse_args(argv)
        try:
            for flag in ("state_cap", "lar_cap"):
                value = getattr(args, flag, None)
                if value is not None and value < 1:
                    raise InvalidInput(
                        f"--{flag.replace('_', '-')} must be at least 1, got {value}")
            return args.func(args)
        except InvalidInput as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except CapExceeded as exc:
            print(f"resource cap: {exc}", file=sys.stderr)
            return EXIT_CAP
        except _CHECK_ERRORS as exc:
            print(f"verification failure: {exc}", file=sys.stderr)
            return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
