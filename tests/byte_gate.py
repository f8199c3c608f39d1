"""Digests of a fixed set of dipolerings artifacts, to compare two source trees byte for byte.

    PYTHONPATH=<tree>/src python tests/byte_gate.py OUTDIR

Runs one fixed command set through `dipolerings.cli.main`, writes every artifact into
OUTDIR and prints one `sha256  name` line per artifact, in run order.  The set is:

- every command in each arrangement it runs, as CSV and as JSON, at small sizes;
- the CLI smoke commands of the CI workflow;
- the four benchmark workloads' full-size configs at seed 1 (perfbench/workloads.py).

Each artifact header echoes its own path (output.out), so run both trees with the same
OUTDIR and diff the two listings.  BLAS runs on one thread unless OPENBLAS_NUM_THREADS
is set.  A command that fails prints `exit <code>  name` instead, and the script then
exits 1.
"""

import contextlib
import hashlib
import io
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from dipolerings.cli import main  # noqa: E402


def sets(*pairs):
    """--set arguments of `key=value` pairs."""
    return [arg for pair in pairs for arg in ("--set", pair)]


# Small systems per arrangement, and per command the settings that keep it small.
ARRANGEMENTS = {
    "single": sets("geometry.n=8", "geometry.polarization=tangential"),
    "chain": sets("geometry.n=9"),
    "site-site": sets("geometry.n=6", "geometry.polarization=tangential"),
    "site-edge": sets("geometry.n=6", "geometry.polarization=radial"),
}
COMMANDS = {
    "spectrum": (("single", "chain", "site-site", "site-edge"), []),
    "decay-scan": (("single", "chain", "site-site", "site-edge"),
                   sets("physics.n_min=5", "physics.n_max=12", "physics.n_step=7",
                        "output.threads=2")),
    "fieldmap": (("single",), sets("physics.resolution=9")),
    "coupling": (("site-site", "site-edge"), []),
    "eta": (("site-site", "site-edge"), []),
    "fidelity": (("site-site", "site-edge"), sets("physics.t_steps=50")),
    "fidelity-scan": (("site-site", "site-edge"),
                      sets("physics.x_points=2", "physics.dtheta_points=2",
                           "physics.t_steps=50", "output.threads=2")),
}

CI_SMOKE = [
    ("ci-decay-scan.csv", ["decay-scan", *sets("physics.n_min=10", "physics.n_max=41",
                                               "physics.n_step=31", "output.threads=2")]),
    ("ci-decay-scan-small.csv", ["decay-scan", *sets("physics.n_min=1", "physics.n_max=12",
                                                     "physics.n_step=1", "output.threads=2")]),
    *((f"ci-fieldmap.{fmt}", ["fieldmap", "--format", fmt,
                              *sets("geometry.n=12", "geometry.d=0.3", "physics.m=3",
                                    "physics.plane=xz", "physics.resolution=73")])
      for fmt in ("csv", "json")),
    *((f"ci-{cmd}.{fmt}", [cmd, "--format", fmt,
                           *sets("geometry.arrangement=site-edge", "geometry.n=64",
                                 "geometry.d=0.3", "geometry.polarization=tangential")])
      for cmd in ("coupling", "eta") for fmt in ("csv", "json")),
    ("ci-spectrum-chain.json", ["spectrum", "--format", "json",
                                *sets("geometry.arrangement=chain", "geometry.n=9")]),
    ("ci-spectrum-site-edge.json", ["spectrum", "--format", "json",
                                    *sets("geometry.arrangement=site-edge", "geometry.n=6")]),
    ("ci-fidelity-scan.csv", ["fidelity-scan", *sets("geometry.n=6", "physics.x_points=3",
                                                     "physics.dtheta_points=2",
                                                     "physics.t_steps=100", "output.threads=2")]),
    *((f"ci-fidelity-site-edge.{fmt}", ["fidelity", "--format", fmt,
                                        *sets("geometry.arrangement=site-edge", "geometry.n=7",
                                              "geometry.polarization=radial", "physics.m=2",
                                              "physics.t_steps=200")])
      for fmt in ("csv", "json")),
    *((f"ci-fidelity-scan-site-edge.{fmt}", ["fidelity-scan", "--format", fmt,
                                             *sets("geometry.arrangement=site-edge",
                                                   "geometry.n=6", "physics.x_points=3",
                                                   "physics.dtheta_points=2",
                                                   "physics.t_steps=100", "output.threads=2")])
      for fmt in ("csv", "json")),
    ("ci-fidelity-site-site.csv", ["fidelity", *sets("geometry.arrangement=site-site",
                                                     "geometry.n=64",
                                                     "geometry.polarization=tangential",
                                                     "physics.m=6")]),
    ("ci-fidelity-long.csv", ["fidelity", *sets("geometry.arrangement=site-edge",
                                                "geometry.n=100",
                                                "geometry.polarization=transverse",
                                                "geometry.x=0.3", "physics.m=22")]),
    ("ci-fidelity-default.csv", ["fidelity", *sets("physics.t_steps=50")]),
    ("ci-console-spectrum.csv", ["spectrum", *sets("geometry.n=12",
                                                   "geometry.polarization=tangential")]),
]

# perfbench's full-size workload configs with the seeded entries drawn at seed 1.
BENCHMARK = [
    ("bench-ring-spectrum.csv", ["spectrum", *sets(
        "geometry.arrangement=single", "geometry.n=600", "geometry.d=0.1",
        "geometry.polarization=tangential", "geometry.angular_offset=0.005359783520355729")]),
    ("bench-transfer-scan.csv", ["fidelity-scan", *sets(
        "geometry.arrangement=site-site", "geometry.d=0.1", "geometry.polarization=tangential",
        "physics.x_min=0.05", "physics.x_max=0.3", "physics.dtheta_min=0.3",
        "physics.dtheta_max=2.5", "physics.t_max=0.0", "output.threads=1", "geometry.n=100",
        "physics.x_points=4", "physics.dtheta_points=4", "physics.t_steps=2000",
        "physics.m=25")]),
    ("bench-fieldmap.csv", ["fieldmap", *sets(
        "geometry.arrangement=single", "geometry.d=0.4", "geometry.polarization=tangential",
        "physics.plane=xy", "geometry.n=50", "physics.m=5", "physics.extent=2.0",
        "physics.resolution=201", "physics.plane_offset=0.12795540617506418")]),
    ("bench-decay-scan.csv", ["decay-scan", *sets(
        "geometry.polarization=transverse", "physics.wavelength_over_d=3.0",
        "output.threads=2", "physics.n_min=100", "physics.n_max=400", "physics.n_step=20")]),
]


def command_set():
    """(artifact name, CLI arguments without --out) of every run, in order."""
    for command, (arrangements, settings) in COMMANDS.items():
        for arrangement in arrangements:
            for fmt in ("csv", "json"):
                yield (f"{command}-{arrangement}.{fmt}",
                       [command, "--format", fmt, *sets(f"geometry.arrangement={arrangement}"),
                        *ARRANGEMENTS[arrangement], *settings])
    yield from CI_SMOKE
    yield from BENCHMARK


def main_gate(outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    failed = 0
    for name, argv in command_set():
        path = os.path.join(outdir, name)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, "--out", path])
        if code:
            failed += 1
            print(f"exit {code}  {name}  {err.getvalue().strip()}")
            continue
        with open(path, "rb") as f:
            print(f"{hashlib.sha256(f.read()).hexdigest()}  {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    sys.exit(main_gate(sys.argv[1]))
