"""Alternating wall times of one dipolerings command on two source trees, in one process.

    python tests/ab_time.py TREE_A TREE_B [--rounds N] -- <dipolerings CLI arguments>

Copies TREE_A/src/dipolerings and TREE_B/src/dipolerings into a temporary directory as the
packages `dipolerings_a` and `dipolerings_b`, runs the command once on each to warm up, then
runs `cli.main(argv)` on both for N rounds (default 20), B first in every other round.  Both
sides write the same artifact path, so their headers echo the same `output.out`.  Prints each
side's median wall time with its quartiles and the pairs each side won, and exits 1 unless
the two artifacts have identical data lines (every line that is not a `#` header comment).

The two trees share one interpreter, heap and BLAS, so the host's drift between separate
runs of a benchmark does not enter the comparison.  BLAS runs on one thread unless
OPENBLAS_NUM_THREADS is set.  This is a development aid beside byte_gate.py; the
benchmark of record is perfbench/run.py.
"""

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

SIDES = ("a", "b")


def load(tree: str, side: str, directory: str):
    """The cli module of tree's src/dipolerings, imported as dipolerings_<side>.cli."""
    shutil.copytree(os.path.join(tree, "src", "dipolerings"),
                    os.path.join(directory, f"dipolerings_{side}"))
    return importlib.import_module(f"dipolerings_{side}.cli")


def run_once(cli, argv: list, out: str) -> tuple[float, list]:
    """(wall seconds, data lines) of one cli.main call writing to out; exits on a failed run."""
    start = time.perf_counter()
    code = cli.main([*argv, "--out", out])
    seconds = time.perf_counter() - start
    if code:
        sys.exit(f"{cli.__name__}.main exited {code}")
    with open(out, encoding="utf-8") as f:
        return seconds, [line for line in f if not line.startswith("#")]


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv[:split])
    command = argv[split + 1:]
    if not command or args.rounds < 2:
        parser.error("give at least 2 rounds and the CLI arguments after --")
    with tempfile.TemporaryDirectory(prefix="ab_time-") as directory:
        sys.path.insert(0, directory)
        clis = {side: load(tree, side, directory)
                for side, tree in zip(SIDES, (args.tree_a, args.tree_b))}
        out = os.path.join(directory, "artifact")
        data = {side: run_once(clis[side], command, out)[1] for side in SIDES}   # warm-up
        times = {side: [] for side in SIDES}
        for k in range(args.rounds):
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                seconds, data[side] = run_once(clis[side], command, out)
                times[side].append(seconds)
    pairs = list(zip(times["a"], times["b"]))
    won = {"a": sum(a < b for a, b in pairs), "b": sum(b < a for a, b in pairs)}
    for side, tree in zip(SIDES, (args.tree_a, args.tree_b)):
        q1, median, q3 = statistics.quantiles(times[side], n=4, method="inclusive")
        print(f"{side}: median {median * 1e3:.2f} ms (IQR {q1 * 1e3:.2f}-{q3 * 1e3:.2f}), "
              f"won {won[side]} of {args.rounds} pairs  {tree}")
    if data["a"] != data["b"]:
        print("data lines differ between the two artifacts")
        return 1
    print(f"data lines identical ({len(data['a'])} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
