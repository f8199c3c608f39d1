"""Smoke test of the benchmark itself, at tiny sizes, in well under a minute.

    python3 perfbench/smoke.py

Checks that every workload runs end to end and traced, that each run emits
every metric of BENCHMARK.json with its unit, that the output checks ran on
every call and reject a tampered artifact, that the tracer loses no span
under a thread pool, and that the benchmark exits non-zero without a result
when the checkout holds no source.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import dipolerings  # noqa: E402
from dipolerings import spectrum  # noqa: E402
from dipolerings.cli import main as cli_main  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, command_line  # noqa: E402

# Column of the first data row that each check compares with its reference.
CHECKED_COLUMN = {"ring-spectrum": 3, "transfer-scan": 3, "fieldmap": 3, "decay-scan": 2}


def expect(condition, message):
    if not condition:
        sys.exit(f"smoke: FAILED: {message}")


def run_benchmark(cwd, workload, trace):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
                           "--size", "tiny"],
                          cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def check_runs(spec):
    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            proc = run_benchmark(ROOT, workload, trace)
            expect(proc.returncode == 0, f"{label} exited {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            run = json.loads(lines[-2])["run"]
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}")
            expect(result["correct"] is True and result["failed"] == 0,
                   f"{label}: not correct: {run['problems']}")
            expect(result["attempted"] >= 1, f"{label}: no call attempted")
            expect(run["checks"] == result["attempted"] + 1,
                   f"{label}: {run['checks']} checks for {result['attempted']} calls + warm-up")
            names = [m["name"] for m in declared]
            expect(list(result["metrics"]) == names, f"{label}: metrics {list(result['metrics'])}")
            for m in declared:
                got = result["metrics"][m["name"]]
                expect(got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}")
                value = got["value"]
                expect(isinstance(value, (int, float)) and not isinstance(value, bool)
                       and math.isfinite(value), f"{label}: {m['name']} = {value!r}")
            if not trace:
                expect(all(result["metrics"][m]["value"] > 0 for m in names),
                       f"{label}: an end-to-end metric is not positive")
            print(f"smoke: {label}: {result['attempted']} calls checked")


def check_checks_reject_tampering():
    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT) as tmpdir:
        for name, workload in WORKLOADS.items():
            config = workload.config(7, "tiny")
            argv, out = command_line(config, tmpdir)
            expect(cli_main(argv) == 0, f"{name}: command failed")
            reference = workload.reference(config)
            problems, _ = workload.check(out, config, reference)
            expect(not problems, f"{name}: untouched artifact rejected: {problems}")
            with open(out, encoding="utf-8") as f:
                lines = f.read().splitlines()
            first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
            cells = lines[first].split(",")
            col = CHECKED_COLUMN[name]
            cells[col] = repr(float(cells[col]) * 1.001 + 1e-6)
            lines[first] = ",".join(cells)
            with open(out, "w", encoding="utf-8") as f:
                f.write("\n".join(lines) + "\n")
            problems, _ = workload.check(out, config, reference)
            expect(problems, f"{name}: tampered artifact passed the check")
            print(f"smoke: {name}: check rejects a tampered artifact")


def check_tracer_under_threads():
    """More pool threads than cores, a short switch interval: no span or count is lost."""
    sizes = [4] * 200
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tracer(dipolerings) as tracer:
            spectrum.min_decay_scan("ring", sizes, 3.0, threads=4)
        spans = tracer.take()
    finally:
        sys.setswitchinterval(interval)
    expect(spectrum.min_decay_scan.__module__ == "dipolerings.spectrum"
           and not hasattr(spectrum.min_decay_scan, "__wrapped__"), "tracer left a patch behind")
    root = [s for s in spans if s.name == "spectrum.min_decay_scan"]
    expect(len(root) == 1, f"{len(root)} min_decay_scan spans")
    for name in ("geometry.build_ring", "spectrum.assemble_heff", "spectrum.eigenmodes"):
        found = [s for s in spans if s.name == name]
        expect(len(found) == len(sizes), f"{len(found)} {name} spans for {len(sizes)} calls")
        expect(all(s.parent is root[0] for s in found), f"{name} span with a wrong parent")
    metrics, _ = layer_metrics(spans, threading.main_thread().ident)
    expect(metrics["spectrum.eigenmodes.eig_calls"] == len(sizes), "eigensolver calls lost")
    expect(0.0 < metrics["spectrum.min_decay_scan.busy_frac"] <= 1.0, "busy_frac out of (0, 1]")
    print(f"smoke: tracer: {len(spans)} spans from 4 pool threads, none lost")


def check_bare_directory():
    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(bare, "fieldmap", 0)
        expect(proc.returncode != 0, "run without source exited 0")
        expect(not proc.stdout.strip(), f"run without source printed {proc.stdout!r}")
        print("smoke: without source: exits", proc.returncode, "with no result")


if __name__ == "__main__":
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_checks_reject_tampering()
    check_tracer_under_threads()
    check_bare_directory()
    check_runs(spec)
    print("smoke: ok")
