"""The benchmark's workloads: seeded CLI configs and tolerance-based output checks.

A workload turns (seed, size) into one dipolerings config.  The seed varies
only inputs that leave the amount of work unchanged.  Each check compares an
artifact with a reference that does not use the code path under test, by
tolerance and keyed by label, never by bytes: BLAS thread counts and
reordered sums move values in the last digits and swap degenerate +/-m rows.

Sizes: "full" is what the benchmark times; "tiny" is for the smoke test.
"""

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import toeplitz

from dipolerings.emfield import green_tensor, pair_coupling

EPS = np.finfo(float).eps
REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict                        # size -> base config {"section.key": value}
    vary: Callable                     # (rng, size, base) -> seeded config entries
    reference: Callable                # config -> reference object
    check: Callable                    # (artifact path, config, reference) -> (problems, defects)

    def config(self, seed, size="full"):
        base = dict(self.sizes[size])
        base.update(self.vary(np.random.default_rng(seed), size, base))
        return base


def command_line(config, directory):
    """Write the config as a dipolerings config file (dotted keys) into directory;
    return the CLI arguments that run it and the artifact path they write."""
    cfg_path = os.path.join(directory, "run.cfg")
    out = os.path.join(directory, "out.csv")
    with open(cfg_path, "w", encoding="utf-8") as f:
        f.writelines(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                     for key, value in config.items())
    return [config["command"], "--config", cfg_path, "--out", out], out


def read_table(path):
    """Column names and string rows of a CSV artifact, header comments skipped."""
    with open(path, encoding="utf-8") as f:
        lines = [line.rstrip("\n") for line in f if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def canonical_ms(n):
    return np.arange(-(n - 1) // 2, (n - 1) // 2 + 1) if n % 2 else np.arange(-n // 2 + 1, n // 2 + 1)


def ring_sites(n, d, polarization, angular_offset=0.0):
    """Site angles, positions and unit dipoles of a regular ring, built here from
    the geometry's definition rather than by `geometry.build_ring`."""
    radius = d / (2.0 * math.sin(math.pi / n))
    angles = angular_offset + 2.0 * np.pi * np.arange(n) / n
    c, s, z = np.cos(angles), np.sin(angles), np.zeros(n)
    positions = radius * np.column_stack([c, s, z])
    dipoles = {"transverse": np.column_stack([z, z, z + 1.0]),
               "tangential": np.column_stack([-s, c, z]),
               "radial": np.column_stack([c, s, z])}[polarization]
    return angles, positions, dipoles.astype(complex)


def ring_lambdas(n, d, polarization, angular_offset=0.0):
    """Ring eigenvalues lambda_m = -i/2 + sum_l h_0l e^{i m (theta_l - theta_0)}
    over the canonical m range, with h_0l from `emfield.pair_coupling`."""
    angles, pos, dip = ring_sites(n, d, polarization, angular_offset)
    row = np.array([pair_coupling(pos[0], dip[0], pos[l], dip[l]).h for l in range(1, n)])
    ms = canonical_ms(n)
    return ms, -0.5j + np.exp(1j * np.outer(ms, angles[1:] - angles[0])) @ row


def chain_min_rate(n, d):
    """Smallest decay rate of an open chain of z-dipoles along x, from the
    Toeplitz matrix of `emfield.pair_coupling` values."""
    p = np.array([0, 0, 1], dtype=complex)
    col = [-0.5j] + [pair_coupling((0, 0, 0), p, (j * d, 0, 0), p).h for j in range(1, n)]
    return float(np.min(-2.0 * np.imag(np.linalg.eigvals(toeplitz(col, col)))))


def floor(n):
    """Absolute error floor of a rate summed over n terms of order Gamma0 in float64."""
    return 64.0 * EPS * n


def _close(value, ref, rtol, atol):
    return abs(value - ref) <= atol + rtol * abs(ref)


# --- ring-spectrum -------------------------------------------------------------

def _spectrum_reference(cfg):
    ms, lam = ring_lambdas(cfg["geometry.n"], cfg["geometry.d"], cfg["geometry.polarization"],
                           cfg["geometry.angular_offset"])
    return dict(zip(ms.tolist(), lam))


def _spectrum_check(path, cfg, ref):
    n = cfg["geometry.n"]
    _, rows = read_table(path)
    problems = []
    labels = [int(r[1]) for r in rows]
    if sorted(labels) != sorted(ref):
        problems.append(f"labels are not the canonical m range of n = {n}")
        return problems, {}
    shifts = np.array([float(r[2]) for r in rows])
    rates = np.array([float(r[3]) for r in rows])
    tol = 1e-8
    for m, j, g in zip(labels, shifts, rates):
        lam = ref[m]
        if not (_close(j, lam.real, tol, tol) and _close(g, -2.0 * lam.imag, tol, tol)):
            problems.append(f"m = {m}: (J, Gamma) = ({j}, {g}), circulant sum gives "
                            f"({lam.real}, {-2.0 * lam.imag})")
    scale = np.sum(np.abs(shifts)) + n
    if abs(np.sum(rates) - n) > 1e-10 * scale:
        problems.append(f"sum rule: sum Gamma = {np.sum(rates)}, expected {n}")
    if abs(np.sum(shifts)) > 1e-10 * scale:
        problems.append(f"sum rule: sum J = {np.sum(shifts)}, expected 0")
    return problems, {"spectrum.negative_rates": int(np.sum(rates < 0))}


RING_SPECTRUM = Workload(
    name="ring-spectrum",
    sizes={
        "full": {"command": "spectrum", "geometry.arrangement": "single", "geometry.n": 600,
                 "geometry.d": 0.1, "geometry.polarization": "tangential"},
        "tiny": {"command": "spectrum", "geometry.arrangement": "single", "geometry.n": 24,
                 "geometry.d": 0.1, "geometry.polarization": "tangential"},
    },
    # A rotated ring has the same spectrum and the same matrix sizes.
    vary=lambda rng, size, base: {"geometry.angular_offset":
                                  float(rng.uniform(0.0, 2.0 * np.pi / base["geometry.n"]))},
    reference=_spectrum_reference,
    check=_spectrum_check,
)


# --- transfer-scan -------------------------------------------------------------

# Guided packet momenta (|m| above the light line n*d) with stored references.
TRANSFER_MS = {"full": (22, 23, 24, 25, 26, 27, 28), "tiny": (3, 4, 5)}


def _axis(cfg, lo, hi, points):
    return np.linspace(cfg[lo], cfg[hi], cfg[points])


def _transfer_reference(cfg):
    with open(REFERENCE_FILE, encoding="utf-8") as f:
        stored = json.load(f)["transfer-scan"]
    key = f"n={cfg['geometry.n']},m={cfg['physics.m']}"
    return np.array(stored[key])


def _transfer_check(path, cfg, ref):
    _, rows = read_table(path)
    xs = _axis(cfg, "physics.x_min", "physics.x_max", "physics.x_points")
    dts = _axis(cfg, "physics.dtheta_min", "physics.dtheta_max", "physics.dtheta_points")
    if len(rows) != xs.size * dts.size:
        return [f"{len(rows)} rows, expected {xs.size * dts.size}"], {}
    radius = cfg["geometry.d"] / (2.0 * math.sin(math.pi / cfg["geometry.n"]))
    problems = []
    for k, r in enumerate(rows):
        x, width, dt, fid, t_at = (float(v) for v in r)
        i, j = divmod(k, dts.size)
        if not (_close(x, xs[i], 1e-10, 0) and _close(dt, dts[j], 1e-10, 0)
                and _close(width, radius * dts[j], 1e-10, 0)):
            problems.append(f"row {k}: grid point ({x}, {dt}, {width}) is off the scan grid")
        if not 0.0 <= fid <= 1.0 + 1e-12:
            problems.append(f"row {k}: fidelity {fid} outside [0, 1]")
        if not _close(fid, ref[i, j], 1e-7, 1e-9):
            problems.append(f"row {k}: max fidelity {fid}, stored reference {ref[i, j]}")
        if t_at < 0.0:
            problems.append(f"row {k}: negative t_at_max {t_at}")
    return problems, {}


_TRANSFER_BASE = {"command": "fidelity-scan", "geometry.arrangement": "site-site",
                  "geometry.d": 0.1, "geometry.polarization": "tangential",
                  "physics.x_min": 0.05, "physics.x_max": 0.3,
                  "physics.dtheta_min": 0.3, "physics.dtheta_max": 2.5,
                  "physics.t_max": 0.0, "output.threads": 1}

TRANSFER_SCAN = Workload(
    name="transfer-scan",
    sizes={
        "full": {**_TRANSFER_BASE, "geometry.n": 100, "physics.x_points": 4,
                 "physics.dtheta_points": 4, "physics.t_steps": 2000},
        "tiny": {**_TRANSFER_BASE, "geometry.n": 12, "physics.x_points": 2,
                 "physics.dtheta_points": 2, "physics.t_steps": 200},
    },
    # Any guided m propagates the same matrices over the same number of steps.
    vary=lambda rng, size, base: {"physics.m": int(rng.choice(TRANSFER_MS[size]))},
    reference=_transfer_reference,
    check=_transfer_check,
)


# --- fieldmap ------------------------------------------------------------------

SAMPLED_POINTS = 16


def _fieldmap_reference(cfg):
    n, d, m = cfg["geometry.n"], cfg["geometry.d"], cfg["physics.m"]
    angles, pos, dip = ring_sites(n, d, cfg["geometry.polarization"])
    state = np.exp(1j * m * angles) / math.sqrt(n)
    res, extent, offset = cfg["physics.resolution"], cfg["physics.extent"], cfg["physics.plane_offset"]
    axis = np.linspace(-extent, extent, res)
    rng = np.random.default_rng(res)
    picks = sorted({0, res * res - 1, *rng.integers(0, res * res, SAMPLED_POINTS - 2).tolist()})
    expected = {}
    for k in picks:
        point = np.array([axis[k // res], axis[k % res], offset])
        # E+(r) = sum_i c_i G(r - r_i) . p_i, one tensor at a time: not the
        # vectorized green_apply kernel that intensity_map uses.
        field = sum(c * green_tensor(point - r) @ p for c, r, p in zip(state, pos, dip))
        masked = np.min(np.linalg.norm(pos - point, axis=1)) <= d / 4.0
        expected[k] = (point, float(np.sum(np.abs(field) ** 2)), masked)
    return expected


def _fieldmap_check(path, cfg, ref):
    _, rows = read_table(path)
    res = cfg["physics.resolution"]
    if len(rows) != res * res:
        return [f"{len(rows)} rows, expected {res * res}"], {}
    scale = max(v[1] for v in ref.values())
    problems = []
    for k, (point, intensity, masked) in ref.items():
        r = rows[k]
        got = np.array([float(v) for v in r[:3]])
        if not np.allclose(got, point, rtol=1e-10, atol=1e-12):
            problems.append(f"row {k}: point {got.tolist()}, expected {point.tolist()}")
        if not _close(float(r[3]), intensity, 1e-9, 1e-9 * scale):
            problems.append(f"row {k}: intensity {r[3]}, sum of green_tensor gives {intensity}")
        if (r[4] == "1") != masked:
            problems.append(f"row {k}: masked flag {r[4]}, expected {int(masked)}")
    return problems, {}


_FIELDMAP_BASE = {"command": "fieldmap", "geometry.arrangement": "single", "geometry.d": 0.4,
                  "geometry.polarization": "tangential", "physics.plane": "xy"}

FIELDMAP = Workload(
    name="fieldmap",
    sizes={
        "full": {**_FIELDMAP_BASE, "geometry.n": 50, "physics.m": 5, "physics.extent": 2.0,
                 "physics.resolution": 201},
        "tiny": {**_FIELDMAP_BASE, "geometry.n": 12, "physics.m": 2, "physics.extent": 0.5,
                 "physics.resolution": 21},
    },
    # The map's height above the ring plane changes values, not the grid.
    vary=lambda rng, size, base: {"physics.plane_offset": float(rng.uniform(0.0, 0.25))},
    reference=_fieldmap_reference,
    check=_fieldmap_check,
)


# --- decay-scan ----------------------------------------------------------------

def _decay_reference(cfg):
    d = 1.0 / cfg["physics.wavelength_over_d"]
    ns = range(cfg["physics.n_min"], cfg["physics.n_max"] + 1, cfg["physics.n_step"])
    ref = {}
    for n in ns:
        _, lam = ring_lambdas(n, d, cfg["geometry.polarization"])
        ref[("ring", n)] = float(np.min(-2.0 * lam.imag))
        ref[("chain", n)] = chain_min_rate(n, d)
    return ref


def _decay_check(path, cfg, ref):
    _, rows = read_table(path)
    got = {(r[0], int(r[1])): float(r[2]) for r in rows}
    if len(rows) != len(ref) or set(got) != set(ref):
        return [f"rows {sorted(got)} do not match the scan {sorted(ref)}"], {}
    problems = []
    for (kind, n), expected in ref.items():
        # Ring rates fall below the float64 floor from N ~ 140; both this sum and
        # an exact computation agree with the reference to within that floor.
        rtol = 1e-6 if kind == "chain" else 0.0
        if not _close(got[(kind, n)], expected, rtol, floor(n)):
            problems.append(f"{kind} N = {n}: min Gamma {got[(kind, n)]}, reference {expected}")
    negative = sum(1 for v in got.values() if v < 0)
    return problems, {"spectrum.negative_rates": negative}


_DECAY_BASE = {"command": "decay-scan", "geometry.polarization": "transverse",
               "physics.wavelength_over_d": 3.0, "output.threads": 2}

DECAY_SCAN = Workload(
    name="decay-scan",
    sizes={
        "full": {**_DECAY_BASE, "physics.n_min": 100, "physics.n_max": 400, "physics.n_step": 20},
        "tiny": {**_DECAY_BASE, "physics.n_min": 10, "physics.n_max": 30, "physics.n_step": 10},
    },
    # Nothing to vary: every input sets either the sizes or the physics checked.
    vary=lambda rng, size, base: {},
    reference=_decay_reference,
    check=_decay_check,
)


WORKLOADS = {w.name: w for w in (RING_SPECTRUM, TRANSFER_SCAN, FIELDMAP, DECAY_SCAN)}
