"""The command-line checks that the CI workflow used to run as steps of their own.

Each check keeps the sizes, bounds, tolerances and timeouts of its step.  The smoke commands
are byte_gate.CI_SMOKE's, taken by artifact name and run once in this process through
cli.main; the commands that only a check here runs are written beside it.  A check that reads
peak RSS, or needs OPENBLAS_NUM_THREADS unset or scipy absent, runs its command in a fresh
interpreter (test_imports.fresh), where a meta-path finder blocks scipy.  The references are
those of oracles.py."""

import csv
import json
import math
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import byte_gate
from byte_gate import sets
from dipolerings.cli import main
from dipolerings.geometry import build_chain, build_ring, build_two_rings
from dipolerings.spectrum import assemble_heff, spin_wave_state
from dipolerings.transfer import default_horizon
from oracles import (chain_toeplitz_h, fidelity_scan_from_dense_eig, green_tensor_field,
                     reference_cell)
from test_imports import fresh

SMOKE = dict(byte_gate.CI_SMOKE)

# Put first in a child's code: scipy cannot be imported, as where numpy alone is installed.
NO_SCIPY = """
import importlib.abc
class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
sys.meta_path.insert(0, NoScipy())
"""


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The path of a CI_SMOKE artifact by name, its command run once with exit 0."""
    outdir, made = tmp_path_factory.mktemp("smoke"), {}

    def artifact(name):
        if name not in made:
            assert main([*SMOKE[name], "--out", str(outdir / name)]) == 0, name
            made[name] = outdir / name
        return made[name]
    return artifact


def run_fresh(argv, **variables):
    """[exit code, peak RSS in MiB or None off Linux] of cli.main(argv) in a fresh interpreter.
    The peak is the child's VmHWM: its ru_maxrss would take in this process's peak, which the
    kernel carries over through exec."""
    return fresh(f"""
        import json
        from dipolerings.cli import main
        rc = main({argv!r})
        peak = None
        if sys.platform == "linux":
            with open("/proc/self/status") as status:
                peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
        print(json.dumps([rc, peak and peak / 1024]))   # kB
        """, **variables)


on_linux = pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM in /proc/self/status")


def read_csv(path):
    """(config, rows) of a CSV artifact: its `# config:` header lines and its data rows."""
    lines = Path(path).read_text().splitlines()
    cfg = dict(line[len("# config: "):].split(" = ") for line in lines
               if line.startswith("# config: "))
    return cfg, list(csv.DictReader(line for line in lines if not line.startswith("#")))


def test_byte_gate_digests_with_numpy_alone_and_with_blas_unpinned(tmp_path):
    # every CI smoke command among them exits 0
    code = f"""
        import contextlib, io, json
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        import byte_gate
        with contextlib.redirect_stdout(io.StringIO()) as listing:
            code = byte_gate.main_gate({str(tmp_path)!r})
        print(json.dumps([code, listing.getvalue().splitlines()]))
        """
    pinned = fresh(NO_SCIPY + textwrap.dedent(code))
    # an empty OPENBLAS_NUM_THREADS survives byte_gate.py's setdefault: BLAS on every CPU
    unpinned = fresh(code, OPENBLAS_NUM_THREADS="")
    assert pinned == unpinned == [0, pinned[1]]
    assert len(pinned[1]) == len(list(byte_gate.command_set()))


def test_chain_decay_scan_rows_match_the_dense_toeplitz_h(smoke):
    # every chain size 1-12 on two threads
    cfg, rows = read_csv(smoke("ci-decay-scan-small.csv"))
    rows = [r for r in rows if r["geometry"] == "chain"]
    assert [int(r["N"]) for r in rows] == list(range(1, 13))
    d = 1.0 / float(cfg["physics.wavelength_over_d"])
    for r in rows:
        expected = np.min(-2.0 * np.imag(np.linalg.eigvals(chain_toeplitz_h(int(r["N"]), d))))
        assert abs(float(r["min_gamma"]) - expected) <= 1e-10 * expected, (r, expected)


def test_chain_spectrum_of_400_matches_the_dense_toeplitz_h_one_to_one(tmp_path):
    # solved in the two sectors of the chain's inversion
    out = tmp_path / "chain-400.csv"
    assert main(["spectrum", *sets("geometry.arrangement=chain", "geometry.n=400"),
                 "--out", str(out)]) == 0
    cfg, rows = read_csv(out)
    n = int(cfg["geometry.n"])
    assert n == 400 and len(rows) == n
    h = chain_toeplitz_h(n, float(cfg["geometry.d"]))
    got = np.array([float(r["J_over_Gamma0"]) - 0.5j * float(r["Gamma_over_Gamma0"])
                    for r in rows])
    gap = np.abs(got[:, None] - np.linalg.eigvals(h)[None, :])
    worst = gap[linear_sum_assignment(gap)].max()
    assert worst <= 1e-10 * np.abs(h).max(), (worst, np.abs(h).max())


WORKER_SCANS = {
    "decay-scan": ["decay-scan", *sets("physics.n_min=100", "physics.n_max=300",
                                       "physics.n_step=100")],
    "fidelity-scan": ["fidelity-scan", *sets("geometry.arrangement=site-site", "geometry.n=100",
                                             "physics.x_points=3")],
}


@pytest.mark.parametrize("command", WORKER_SCANS)
def test_scans_past_the_fork_threshold_write_the_same_rows_on_one_and_two_workers(tmp_path,
                                                                                   command):
    # BLAS left to its own thread count in each worker; each run under a 120 s timeout
    lines = []
    for threads in (1, 2):
        out = tmp_path / f"{threads}.csv"
        argv = [*WORKER_SCANS[command], "--threads", str(threads), "--out", str(out)]
        assert run_fresh(argv, OPENBLAS_NUM_THREADS=None)[0] == 0
        # the headers echo output.threads and output.out
        lines.append([line for line in out.read_text().splitlines() if line[:1] != "#"])
    assert lines[0] == lines[1]


def assert_sampled_intensities(path, plane, seed):
    """16 cells of a CSV field map, its first and last and 14 drawn at `seed`, against the
    green_tensor sum at their points: the intensity to 1e-9 relative or 1e-12 of the largest
    sample, the point to 1e-10."""
    cfg, rows = read_csv(path)
    res, extent = int(cfg["physics.resolution"]), float(cfg["physics.extent"])
    offset = float(cfg["physics.plane_offset"])
    assert cfg["physics.plane"] == plane and len(rows) == res * res, (cfg, len(rows))
    ring = build_ring(int(cfg["geometry.n"]), float(cfg["geometry.d"]),
                      cfg["geometry.polarization"])
    state = spin_wave_state(ring, int(cfg["physics.m"]))
    axis = np.linspace(-extent, extent, res)
    picks = {0, res * res - 1, *np.random.default_rng(seed).integers(0, res * res, 14).tolist()}
    expected = {}
    for k in sorted(picks):
        u, v = axis[k // res], axis[k % res]
        point = np.array([u, offset, v] if plane == "xz" else [u, v, offset])
        expected[k] = point, float(np.sum(np.abs(green_tensor_field(ring, state, point)) ** 2))
    scale = max(intensity for _, intensity in expected.values())
    for k, (point, intensity) in expected.items():
        r = rows[k]
        assert np.allclose([float(r[a]) for a in "xyz"], point, rtol=1e-10, atol=1e-12), (k, r)
        assert math.isclose(float(r["intensity"]), intensity, rel_tol=1e-9,
                            abs_tol=1e-12 * scale), (k, r, intensity)


@pytest.mark.parametrize("name, plane", [("ci-fieldmap.csv", "xz"),
                                         ("ci-fieldmap-odd-xy.csv", "xy")])
def test_field_map_samples_match_the_green_tensor_sum(smoke, name, plane):
    assert_sampled_intensities(smoke(name), plane, seed=73)


def test_xz_map_cells_equal_their_mirror_images(smoke):
    # z -> -z is the ring's plane; the even ring's half-turn about z maps y = 0 onto itself
    # with x -> -x
    cfg, rows = read_csv(smoke("ci-fieldmap.csv"))
    res = int(cfg["physics.resolution"])
    cells = np.array([r["intensity"] for r in rows]).reshape(res, res)   # (x, z)
    assert np.array_equal(cells, cells[:, ::-1])
    assert np.array_equal(cells, cells[::-1, :])


def test_json_field_map_records_are_the_csv_rows_cell_for_cell(smoke):
    cfg, rows = read_csv(smoke("ci-fieldmap.csv"))
    records = json.loads(smoke("ci-fieldmap.json").read_text())["points"]
    digits = int(cfg["output.precision"])
    assert len(records) == len(rows) == int(cfg["physics.resolution"]) ** 2
    for k, (record, row) in enumerate(zip(records, rows)):
        assert {c: reference_cell(v, digits) for c, v in record.items()} == row, k


@pytest.mark.parametrize("plus, minus", [("odd-xy", "odd-xy-minus"),
                                         ("even-xy-plus", "even-xy-minus")])
def test_mirror_images_of_the_m_map_are_the_minus_m_map(smoke, plus, minus):
    # y -> -y maps the spin wave m onto -m, I_m(x, -y) = I_-m(x, y); with the half-turn of an
    # even ring, also I_m(-x, y) = I_-m(x, y).  An odd ring has no half-turn, and z = 0.1 is
    # no mirror plane.
    maps = {}
    for name in (plus, minus):
        cfg, rows = read_csv(smoke(f"ci-fieldmap-{name}.csv"))
        res = int(cfg["physics.resolution"])
        assert cfg["physics.plane"] == "xy" and len(rows) == res * res, (cfg, len(rows))
        maps[int(cfg["physics.m"])] = np.array([float(r["intensity"])
                                                for r in rows]).reshape(res, res)
    n, m = int(cfg["geometry.n"]), abs(int(cfg["physics.m"]))
    images = [maps[m][:, ::-1]] + ([maps[m][::-1, :]] if n % 2 == 0 else [])
    for image in images:
        assert np.max(np.abs(image - maps[-m])) <= 1e-12 * np.max(maps[m])


@on_linux
def test_large_field_map_stays_under_160_mb(tmp_path):
    # radiated_field works in blocks of about 8,192 emitter-point pairs
    out = tmp_path / "fieldmap-1000.csv"
    rc, peak = run_fresh(["fieldmap", "--out", str(out), *sets(
        "geometry.n=1000", "geometry.d=0.1", "physics.resolution=201")])
    assert rc == 0 and peak < 160, (rc, peak)
    assert_sampled_intensities(out, "xy", seed=201)


@pytest.mark.parametrize("name", ["ci-spectrum-chain.json", "ci-spectrum-site-edge.json"])
def test_spectrum_records_are_unit_eigenvectors_of_the_full_h(smoke, name):
    doc = json.loads(smoke(name).read_text())
    cfg, records = doc["config"], doc["modes"]
    n, d = int(cfg["geometry.n"]), float(cfg["geometry.d"])
    arrangement = cfg["geometry.arrangement"]
    system = (build_chain(n, d) if arrangement == "chain" else
              build_two_rings(arrangement, n, d, float(cfg["geometry.x"]),
                              cfg["geometry.polarization"]))
    h = assemble_heff(system)
    assert len(records) == len(h)
    for k, r in enumerate(records):
        lam = complex(*r["eigenvalue"])
        v = np.array(r["eigenvector"][0::2]) + 1j * np.array(r["eigenvector"][1::2])
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12, k
        assert np.linalg.norm(h @ v - lam * v) <= 1e-10, k


@pytest.mark.parametrize("name", ["ci-fidelity-site-site.csv", "ci-fidelity-long.csv"])
def test_fidelity_starts_on_no_site_and_stays_in_the_unit_interval(smoke, name):
    # the long run: site-edge n = 100 transverse m = 22 at x = 0.3, default horizon 2.4e6,
    # where 66 of the 200 phases fall below 2^-511
    rows = read_csv(smoke(name))[1]
    assert rows[0]["argmax_site"] == "-1", rows[0]
    assert all(math.isfinite(float(r["fidelity"])) and 0.0 <= float(r["fidelity"]) <= 1.0
               for r in rows)


LONG_GRIDS = {
    "fidelity-scan": ["fidelity-scan", *sets(
        "geometry.arrangement=site-site", "geometry.n=100", "geometry.polarization=tangential",
        "physics.m=24", "physics.x_min=0.3", "physics.x_max=0.3", "physics.x_points=1",
        "physics.dtheta_min=0.3", "physics.dtheta_max=2.5", "physics.dtheta_points=3",
        "output.threads=1")],
    "fidelity": ["fidelity", *sets("geometry.n=100")],
}


@on_linux
@pytest.mark.parametrize("command", LONG_GRIDS)
def test_200000_step_grids_stay_under_256_mb(tmp_path, command):
    # the time axis is streamed in blocks
    out = tmp_path / "long.csv"
    rc, peak = run_fresh([*LONG_GRIDS[command], *sets("physics.t_steps=200000"),
                          "--out", str(out)])
    assert rc == 0 and peak < 256, (rc, peak)
    rows = read_csv(out)[1]
    if command == "fidelity-scan":
        assert len(rows) == 3 and all(0.0 <= float(r["max_fidelity"]) <= 1.0 for r in rows)
    else:
        assert len(rows) == 200000


@pytest.mark.parametrize("n", [25, 41])
@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
def test_fidelity_scan_matches_the_dense_eig_reference(smoke, n, arrangement):
    # at n = 25 every width keeps its explicit targets; at n = 41 the wide packets go through
    # ring-2 momenta
    doc = json.loads(smoke(f"ci-fidelity-scan-{n}-{arrangement}.json").read_text())
    cfg, rows = doc["config"], doc["scan"]
    xs, dts = sorted({r["x"] for r in rows}), sorted({r["delta_theta"] for r in rows})
    assert len(rows) == len(xs) * len(dts) == 8
    d, m = float(cfg["geometry.d"]), int(cfg["physics.m"])
    polarization = cfg["geometry.polarization"]
    maxf, tat = fidelity_scan_from_dense_eig(n, d, polarization, m, xs, dts, None,
                                             int(cfg["physics.t_steps"]), arrangement)
    horizons = [default_horizon(build_two_rings(arrangement, n, d, x, polarization), m)
                for x in xs]
    for r in rows:
        i, j = xs.index(r["x"]), dts.index(r["delta_theta"])
        assert abs(r["max_fidelity"] - maxf[i, j]) <= 1e-10, (r, maxf[i, j])
        assert abs(r["t_at_max"] - tat[i, j]) <= 1e-10 * horizons[i], (r, tat[i, j])


OUT_OF_RANGE = [
    ["spectrum", *sets("geometry.d=1e300")],
    ["fieldmap", *sets("physics.extent=1e300")],
    ["spectrum", *sets("geometry.d=1e308")],
    ["coupling", *sets("geometry.arrangement=site-site", "geometry.x=1e308")],
    ["fieldmap", *sets("physics.extent=1e308", "physics.resolution=5")],
    ["fidelity", *sets("geometry.arrangement=site-site", "physics.delta_theta=1e-300")],
]


def test_out_of_range_geometry_with_numpy_alone_prints_one_json_error_line(tmp_path):
    # every warning is printed, so none may stand above the error line
    results = fresh(NO_SCIPY + textwrap.dedent(f"""
        import contextlib, io, json, warnings
        from dipolerings.cli import main
        warnings.simplefilter("always")
        results = []
        for argv in {OUT_OF_RANGE!r}:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                results.append([main([*argv, "--out", "out.csv"]), err.getvalue().splitlines()])
        print(json.dumps(results))
        """), tmp_path)
    for argv, (code, lines) in zip(OUT_OF_RANGE, results):
        assert code == 3 and len(lines) == 1, (argv, lines)
        assert json.loads(lines[0])["error"]["code"] == 3, (argv, lines)
