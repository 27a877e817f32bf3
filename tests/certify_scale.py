"""Solve the dense scaling games with every parity answer certified.

    PYTHONPATH=src python tests/certify_scale.py

For the run only, `equisynth.solver.solve_parity` is wrapped so that each
region game it solves is checked with `oracles.check_parity_certificate`:
both players' positional strategies must win on their regions.  The games
are drawn with the benchmark's generator (`perfbench/workloads.py`) and
solved as `equisynth solve` solves them, on the dominance-pruned build:
dense 5/4 and 6/4 from seed 1, which are found, and two not-found games
whose punishment solves lose states, dense 6/4 with three two-atom rules
from seed 3 and dense 5/4 with three `inf` rules from seed 10.  One line is
printed per game, and the script exits 1 on a wrong verdict or payoff or on
any failed certificate.  The CI workflow runs it; pytest does not collect
it.
"""
from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import equisynth.solver
from equisynth.epistemic import build_reachable
from equisynth.parsing import parse_query
from oracles import check_parity_certificate

# (label, seed, players, rule kinds, rule count, predicate, payoff found or
# None for not found)
GAMES = (
    ("dense 5/4", 1, 5, ("inf",), 2, None, (1, 1, 1, 1, 0)),
    ("dense 6/4", 1, 6, ("inf",), 2, None, (1, 0, 2, 0, 0, 2)),
    ("lost 6/4", 3, 6, ("and", "andnot", "or"), 3, "p=(1,1,0,0,0,2)", None),
    ("punished 5/4", 10, 5, ("inf",), 3, "p=(2,2,2,0,2)", None),
)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import draw_dense, materialize

    solve_parity = equisynth.solver.solve_parity
    failed = 0
    for label, seed, players, kinds, rules, predicate, want in GAMES:
        solved: list[int] = []
        failures: list[str] = []

        def solve_and_certify(pg, blocks=None, weight=None):
            winner, move = solve_parity(pg, blocks, weight)
            failures.extend(check_parity_certificate(pg, winner, move))
            solved.append(pg.node_count())
            return winner, move

        game, graph = materialize(draw_dense(random.Random(seed), players, 4, 2, kinds, rules))
        start = time.perf_counter()
        equisynth.solver.solve_parity = solve_and_certify
        try:
            result = equisynth.solver.solve(
                build_reachable(game, graph, pruned=True),
                query=parse_query(predicate) if predicate else None)
        finally:
            equisynth.solver.solve_parity = solve_parity
        got = None if result is None else result.payoff
        wrong = got != (None if want is None else tuple(map(Fraction, want)))
        verdict = "not found" if got is None else f"found ({','.join(map(str, got))})"
        print(f"{label}: {verdict}, {len(solved)} region games of {sum(solved)} nodes, "
              f"{len(failures)} failed certificates, {time.perf_counter() - start:.2f} s")
        for failure in [*(["wrong verdict"] if wrong else []), *failures[:5]]:
            print(f"  {failure}")
        failed += wrong or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
