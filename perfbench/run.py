"""dipolerings benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The workloads and metrics are declared in BENCHMARK.json
and described in perfbench/README.md.

One process per workload.  BLAS is pinned to one thread before numpy loads,
so the only extra thread is the CLI's own `threads` pool.  After one untimed
warm-up call, `dipolerings.cli.main` runs in-process in a closed loop until
the deadline, and every artifact, the warm-up's too, is checked against the
workload's reference.  With --trace 0 the import of `dipolerings.cli` is
also timed, in fresh interpreters started between calls across the run;
with --trace 1 the loop alternates untraced and traced calls instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the two lines before it record the
environment and the run (failed_frac, check counts, known-defect counts,
sample quartiles).  Exits 2 without a result when the checkout has no
source or a step fails.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_PROBE = ("import time; t = time.perf_counter(); import dipolerings.cli; "
               "print(time.perf_counter() - t)")
TIME_LIMIT = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Interrupted(BaseException):
    """Raised by the signal handlers.  A CLI call catches SystemExit, not this."""


def interrupt(signum, frame):
    raise Interrupted(signal.Signals(signum).name)


def import_seconds():
    """Seconds to import dipolerings.cli in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=False)
    if proc.returncode != 0:
        fail(f"importing dipolerings.cli failed:\n{proc.stderr}")
    return float(proc.stdout)


def environment():
    """What the timings depend on: source, interpreter, BLAS build and threads, machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((SRC / "dipolerings").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        git = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": git,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "openblas_threads_in_use": _openblas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
    }


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None where it cannot be asked."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def quartiles(values):
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def layer_values(layers, main_self, plain, traced, defects, declared):
    """Per-layer metric values of a traced run (0 for layers not run)."""
    untraced = statistics.median(plain)
    listed = {m["name"].rsplit(".", 1)[0] for m in declared
              if m["name"].endswith((".self_s", ".total_s"))}
    listed_self = statistics.median(sum(t for layer, t in per_call.items() if layer in listed)
                                    for per_call in main_self)
    derived = {
        "trace.overhead_frac": statistics.median(traced) / untraced - 1.0,
        "trace.listed_self_frac": listed_self / untraced,
        "spectrum.negative_rates": defects.get("spectrum.negative_rates", 0),
    }
    return {m["name"]: derived.get(m["name"], layers.get(m["name"], 0.0)) for m in declared}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's sizes")
    args = parser.parse_args()
    # On SIGTERM or a hung call (SIGALRM), unwind: the temporary directory is removed.
    signal.signal(signal.SIGTERM, interrupt)
    signal.signal(signal.SIGALRM, interrupt)
    signal.alarm(TIME_LIMIT)

    if not (SRC / "dipolerings" / "cli.py").is_file():
        fail(f"no dipolerings source under {SRC}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    sys.path.insert(0, str(SRC))
    import dipolerings
    import dipolerings.cli
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS, command_line
    if not Path(dipolerings.__file__).resolve().is_relative_to(SRC):
        fail(f"dipolerings imported from {dipolerings.__file__}, not from {SRC}")

    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed, args.size)
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        argv, out = command_line(config, tmpdir)
        reference = workload.reference(config)
        run = measure(args.seconds, workload, config, reference, argv, out,
                      Tracer(dipolerings) if args.trace else None, dipolerings.cli.main)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    if args.trace:
        declared = spec["per_layer"]
        main_thread = threading.main_thread().ident
        layers, main_self = zip(*(layer_metrics(spans, main_thread) for spans in run["spans"]))
        layers = {key: statistics.median(m.get(key, 0.0) for m in layers)
                  for key in set().union(*layers)}
        values = layer_values(layers, main_self, run["wall_s"], run["traced_wall_s"],
                              run["defects"], declared)
    else:
        declared = spec["end_to_end"]
        values = {"wall_s": statistics.median(run["wall_s"]),
                  "setup_s": statistics.median(run["setup_s"]),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"run": {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "config": config,
        "failed_frac": run["failed"] / run["attempted"],
        "checks": run["checks"], "problems": run["problems"][:20],
        "known_defects": run["defects"],
        **{key: quartiles(run[key]) for key in ("wall_s", "traced_wall_s", "setup_s")},
    }}))
    print(json.dumps({
        "correct": run["warm_ok"] and run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))


def measure(seconds, workload, config, reference, argv, out, tracer, cli_main):
    """The closed loop: one warm-up call, then calls until the deadline."""
    run = {"checks": 0, "problems": [], "defects": {}, "attempted": 0, "failed": 0,
           "wall_s": [], "traced_wall_s": [], "setup_s": [], "spans": []}

    def call():
        if os.path.exists(out):
            os.remove(out)
        start = time.perf_counter()
        try:
            code = cli_main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            code = None
        return time.perf_counter() - start, code == 0

    def checked(ok):
        run["checks"] += 1
        if not ok:
            run["problems"].append("command exited non-zero")
            return False
        try:
            found, run["defects"] = workload.check(out, config, reference)
        except (OSError, ValueError, IndexError) as exc:
            found = [f"unreadable artifact: {exc!r}"]
        run["problems"].extend(found)
        return not found

    typical, warm_ok = call()
    run["warm_ok"] = checked(warm_ok)
    plain, traced = run["wall_s"], run["traced_wall_s"]
    start = time.perf_counter()
    deadline = start + seconds
    # Import probes are spread over the run, so that setup_s, like wall_s,
    # averages over the host's speed during the whole run.
    probes = [] if tracer else [start + k * seconds / SETUP_REPEATS
                                for k in range(SETUP_REPEATS)]
    # A call starts while at least half a typical call fits before the deadline,
    # so runs end near it on average rather than overrunning by half a call.
    while (time.perf_counter() + typical / 2 < deadline or not plain
           or (tracer is not None and not traced)):
        if probes and time.perf_counter() >= probes[0]:
            probes.pop(0)
            run["setup_s"].append(import_seconds())
            continue
        if tracer is not None and len(traced) < len(plain):
            with tracer:
                wall, ok = call()
            traced.append(wall)
            run["spans"].append(tracer.take())
        else:
            wall, ok = call()
            plain.append(wall)
            typical = statistics.median(plain)
        run["attempted"] += 1
        run["failed"] += not checked(ok)
    run["setup_s"].extend(import_seconds() for _ in probes)
    return run


if __name__ == "__main__":
    try:
        main()
    except Interrupted as exc:
        fail(f"stopped by {exc}")
