"""scipy is loaded only where it runs: each runtime check starts a fresh interpreter,
because in this process other test modules have imported scipy already, and one
check scans the package source for its scipy imports."""

import ast
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


def test_import_loads_no_process_pool():
    # multiprocessing alone costs 15-27 ms to import; only a pooled scan needs it
    assert fresh("""
        import json
        import dipolerings.cli
        print(json.dumps([m for m in ("multiprocessing", "concurrent.futures.process")
                          if m in sys.modules]))
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


def _imports(node, scope):
    """(scope, module) of each import under node; scope is module[.function...]."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _imports(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Import):
            yield from ((scope, alias.name) for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            yield scope, "." * child.level + (child.module or "")
        yield from _imports(child, scope)


def test_the_only_scipy_import_is_the_ode_fallback_integrator():
    found = [(scope, module)
             for path in sorted(Path(SRC, "dipolerings").glob("*.py"))
             for scope, module in _imports(ast.parse(path.read_text(encoding="utf-8")), path.stem)
             if module == "scipy" or module.startswith("scipy.")]
    assert found == [("transfer._evolve", "scipy.linalg")]


def test_process_pool_modules_are_imported_by_the_pool_helpers_alone():
    found = [(scope, module)
             for path in sorted(Path(SRC, "dipolerings").glob("*.py"))
             for scope, module in _imports(ast.parse(path.read_text(encoding="utf-8")), path.stem)
             if module.split(".")[0] in ("multiprocessing", "ctypes", "concurrent")]
    assert found == [("spectrum._blas_threads", "ctypes"),
                     ("spectrum._pool_map", "multiprocessing"),
                     ("spectrum._pool_map", "concurrent.futures.process")]


def test_ode_fallback_loads_its_integrator_on_demand():
    # the defective h of test_defective_h_takes_the_ode_fallback: cond(V) is huge
    loaded_before, method, loaded_after = fresh("""
        import json
        import numpy as np
        from dipolerings import propagate
        h = np.array([[-0.5j, 0.0], [1.0, -0.5j]])
        before = "scipy.linalg" in sys.modules
        prop = propagate(h, np.array([1.0, 0.0]), np.linspace(0.0, 12.0, 61))
        print(json.dumps([before, prop.method, "scipy.linalg" in sys.modules]))
        """)
    assert method == "ode"
    assert not loaded_before and loaded_after
