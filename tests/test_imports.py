"""scipy is loaded only where it runs: each check starts a fresh interpreter,
because in this process other test modules have imported scipy already."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import dipolerings

SRC = str(Path(dipolerings.__file__).resolve().parents[1])

SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def fresh(code: str, tmp_path=None):
    """Run code in a new interpreter with dipolerings importable; its last stdout line as JSON."""
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + textwrap.dedent(code)],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert fresh(f"""
        import json
        import dipolerings, dipolerings.cli
        print(json.dumps({SCIPY_MODULES}))
        """) == []


def test_every_cli_command_runs_without_scipy(tmp_path):
    assert fresh(f"""
        import json
        from dipolerings.cli import main
        two = ["--set", "geometry.arrangement=site-edge", "--set", "geometry.n=6",
               "--set", "geometry.polarization=tangential"]
        runs = [
            ["spectrum", "--set", "geometry.n=8"],
            ["spectrum", "--set", "geometry.arrangement=chain", "--set", "geometry.n=9",
             "--format", "json"],
            ["spectrum", *two, "--format", "json"],
            ["decay-scan", "--set", "physics.n_min=5", "--set", "physics.n_max=12",
             "--set", "physics.n_step=7", "--threads", "2"],
            ["fieldmap", "--set", "geometry.n=6", "--set", "physics.resolution=9"],
            ["coupling", *two],
            ["eta", *two, "--format", "json"],
            ["fidelity", *two, "--set", "physics.t_steps=50"],
            ["fidelity-scan", *two, "--set", "physics.x_points=2",
             "--set", "physics.dtheta_points=2", "--set", "physics.t_steps=50",
             "--threads", "2"],
        ]
        codes = [main([*argv, "--out", f"out{{i}}"]) for i, argv in enumerate(runs)]
        print(json.dumps([codes, {SCIPY_MODULES}]))
        """, tmp_path) == [[0] * 9, []]


def test_classify_modes_loads_its_assignment_solver_on_demand():
    loaded_before, labels, ok, loaded_after = fresh("""
        import json
        from dipolerings import assemble_heff, build_ring, classify_modes, eigenmodes
        ring = build_ring(8, 0.1, "tangential")
        spec = eigenmodes(assemble_heff(ring))
        before = "scipy.optimize" in sys.modules
        spec = classify_modes(spec, ring)
        print(json.dumps([before, sorted(spec.labels.tolist()), bool(spec.label_ok.all()),
                          "scipy.optimize" in sys.modules]))
        """)
    assert labels == list(range(-3, 5)) and ok
    assert not loaded_before and loaded_after


def test_ode_fallback_loads_its_integrator_on_demand():
    # the defective h of test_defective_h_takes_the_ode_fallback: cond(V) is huge
    loaded_before, method, loaded_after = fresh("""
        import json
        import numpy as np
        from dipolerings import propagate
        h = np.array([[-0.5j, 0.0], [1.0, -0.5j]])
        before = "scipy.integrate" in sys.modules
        prop = propagate(h, np.array([1.0, 0.0]), np.linspace(0.0, 12.0, 61))
        print(json.dumps([before, prop.method, "scipy.integrate" in sys.modules]))
        """)
    assert method == "ode"
    assert not loaded_before and loaded_after
