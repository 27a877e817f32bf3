"""Record the verdicts of the generated instances into `expected.json`.

    python3 perfbench/record_expected.py

Solves every instance of the generated workloads once, at the default seed,
and writes status, exit code and payoff per instance.  The seed only renames
and reorders the vertices and actions of an instance, so the verdicts hold
for every seed.  Run it only when the instance families change: the file is
the reference later versions of the program are checked against.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    table: dict[str, dict] = {}
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        cli = run.fresh_import()
        for name in workloads.FAMILIES:
            target = Path(tmp) / name
            target.mkdir()
            ops = workloads.write_instances(name, run.DEFAULT_SEED, target)
            rows = {}
            for op in sorted(ops, key=lambda o: o.name):
                code = cli.main(op.argv)
                if code not in (0, 1):
                    print(f"{op.name}: exit {code}, nothing recorded", file=sys.stderr)
                    return 1
                report = json.loads(op.out.read_text())
                rows[op.name] = {"status": report["status"], "exit": code,
                                 "payoff": report.get("payoff")}
            table[name] = rows
    run.EXPECTED_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.EXPECTED_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
