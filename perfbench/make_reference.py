"""Regenerate perfbench/reference.json, the stored transfer-scan fidelities.

    python3 perfbench/make_reference.py

Runs the fidelity-scan of every (size, m) the transfer-scan workload can
draw, with BLAS on one thread, and stores the max-fidelity grid.  Only rerun
it when the physics of the scan is meant to change.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dipolerings.cli import main  # noqa: E402
from workloads import REFERENCE_FILE, TRANSFER_MS, TRANSFER_SCAN, command_line, read_table  # noqa: E402


def scan(config, tmpdir):
    argv, out = command_line(config, tmpdir)
    if main(argv) != 0:
        sys.exit(f"fidelity-scan failed for {config}")
    _, rows = read_table(out)
    n_dt = config["physics.dtheta_points"]
    fids = [float(r[3]) for r in rows]
    return [fids[i:i + n_dt] for i in range(0, len(fids), n_dt)]


def build():
    stored = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        for size, ms in TRANSFER_MS.items():
            for m in ms:
                config = {**TRANSFER_SCAN.sizes[size], "physics.m": m}
                stored[f"n={config['geometry.n']},m={m}"] = scan(config, tmpdir)
    return {"transfer-scan": stored}


if __name__ == "__main__":
    with open(REFERENCE_FILE, "w", encoding="utf-8") as f:
        json.dump(build(), f, indent=1)
        f.write("\n")
