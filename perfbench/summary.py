"""Run every workload of BENCHMARK.json once and print one table.

    python3 perfbench/summary.py [--seed N] [--trace 0|1]

With --trace 0 the rows are the end-to-end metrics plus failed_frac; with
--trace 1 they are the per-layer metrics.  Columns are workloads.  Each run
measures for the run_seconds of BENCHMARK.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = [w["name"] for w in spec["workloads"]]
    columns = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
        if proc.returncode != 0:
            sys.exit(f"{name} failed:\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        result, run = json.loads(lines[-1]), json.loads(lines[-2])["run"]
        column = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        if not args.trace:
            column["failed_frac"] = (run["failed_frac"], "ratio")
        column["correct"] = (result["correct"], "")
        columns[name] = column

    rows = list(columns[names[0]])
    width = max(len(r) for r in rows)
    print(f"{'metric':<{width}}  {'unit':<6}" + "".join(f"{n:>15}" for n in names))
    for row in rows:
        unit = columns[names[0]][row][1]
        cells = "".join(f"{_fmt(columns[n][row][0]):>15}" for n in names)
        print(f"{row:<{width}}  {unit:<6}{cells}")


def _fmt(value):
    if isinstance(value, bool) or isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


if __name__ == "__main__":
    main()
