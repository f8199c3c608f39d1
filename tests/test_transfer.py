import os
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from dipolerings import spectrum, transfer
from dipolerings.geometry import (SYMMETRIC_SCHEMES, EmitterArray, build_chain, build_ring,
                                  build_two_rings)
from dipolerings.spectrum import (_block, _project, _sectors, assemble_heff, canonical_m_range,
                                  min_decay_scan, ring_spectrum, spin_wave_state)
from dipolerings.transfer import (default_horizon, eta_map, farthest_site, fidelity_scan,
                                  fidelity_trace, gaussian_packet, propagate,
                                  ring_ring_coupling)
from oracles import (decay_matrix, fidelity_scan_from_dense_eig, fidelity_scan_from_states,
                     random_geometry, rk4_propagate)


@pytest.fixture(scope="module")
def pair10():
    return build_two_rings("site-site", 10, 0.1, 0.15, "tangential")


@pytest.fixture(scope="module")
def h10(pair10):
    return assemble_heff(pair10)


@pytest.mark.parametrize("polarization", SYMMETRIC_SCHEMES)
@pytest.mark.parametrize("n", [6, 7, 64])
@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
def test_coupling_shape_and_group_check(arrangement, n, polarization):
    pair = build_two_rings(arrangement, n, 0.1, 0.15, polarization)
    cpl = ring_ring_coupling(pair, assemble_heff(pair))
    assert cpl.lambda_mm.shape == (n, n)
    assert list(cpl.m_values) == list(canonical_m_range(n))
    # the rings of a pair are mirror images: one spectrum and one m axis serve both
    ms, lams = ring_spectrum(pair)
    ms2, lams2 = ring_spectrum(pair, 1)
    assert list(ms2) == list(ms)
    assert np.max(np.abs(lams2 - lams)) <= 1e-13 * np.max(np.abs(lams))
    bad = EmitterArray(pair.positions, pair.dipoles,
                       groups=[np.arange(3), np.arange(3, 2 * n)])
    with pytest.raises(ValueError):
        ring_ring_coupling(bad)


def test_coupling_vanishes_at_large_separation():
    near = ring_ring_coupling(build_two_rings("site-site", 6, 0.1, 0.1))
    far = ring_ring_coupling(build_two_rings("site-site", 6, 0.1, 60.0))
    very_far = ring_ring_coupling(build_two_rings("site-site", 6, 0.1, 600.0))
    assert np.max(np.abs(far.lambda_mm)) < 1e-2 * np.max(np.abs(near.lambda_mm))
    # radiative tail falls off at least as 1/r
    assert np.max(np.abs(very_far.lambda_mm)) < 0.15 * np.max(np.abs(far.lambda_mm))


def test_mirror_symmetry_selection(pair10, h10):
    cpl = ring_ring_coupling(pair10, h10)
    for m1 in (-2, 1, 3):
        for m2 in (-4, 0, 2):
            assert abs(abs(cpl.at(m1, m2)) - abs(cpl.at(-m1, -m2))) < 1e-10


def test_site_edge_exact_null():
    system = build_two_rings("site-edge", 10, 0.1, 0.15, "tangential")
    cpl = ring_ring_coupling(system)
    assert abs(cpl.at(5, 5)) < 1e-12


def test_eta_map_nonnegative_and_zero_with_j(pair10, h10):
    cpl = ring_ring_coupling(pair10, h10)
    lams = ring_spectrum(build_ring(10, 0.1, "tangential"))[1]
    eta = eta_map(cpl, lams)
    assert np.all(eta >= 0.0) and np.all(np.isfinite(eta))
    zeroed = ring_ring_coupling(pair10, h10)
    zeroed.lambda_mm = 1j * np.imag(zeroed.lambda_mm)
    assert np.allclose(eta_map(zeroed, lams), 0.0)


def test_gaussian_packet_limits(pair10):
    # infinite width -> spin wave up to a global phase
    wide = gaussian_packet(pair10, 0, 3, m=4, delta_theta=1e6)
    wave = spin_wave_state(pair10, 4, group=0)
    overlap = abs(np.vdot(wave, wide))
    assert abs(overlap - 1.0) < 1e-10
    # zero width -> single site
    narrow = gaussian_packet(pair10, 0, 3, m=4, delta_theta=1e-4)
    assert abs(abs(narrow[3]) - 1.0) < 1e-12
    for dt in (0.1, 0.7, 2.0):
        psi = gaussian_packet(pair10, 1, 5, m=-2, delta_theta=dt)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        assert np.allclose(psi[pair10.groups[0]], 0.0)
    with pytest.raises(ValueError):
        gaussian_packet(pair10, 0, 17, m=1, delta_theta=0.5)
    with pytest.raises(ValueError):
        gaussian_packet(pair10, 0, 1, m=1, delta_theta=0.0)


def test_propagate_identity_at_t0_and_single_emitter():
    arr = EmitterArray([[0, 0, 0]], [[0, 0, 1]])
    h = assemble_heff(arr)
    psi0 = np.array([1.0 + 0j])
    prop = propagate(h, psi0, [0.0, 1.0, 3.0])
    assert abs(prop.states[0, 0] - 1.0) < 1e-14
    assert abs(prop.states[1, 0] - np.exp(-0.5)) < 1e-12
    assert abs(prop.states[2, 0] - np.exp(-1.5)) < 1e-12


def test_propagate_matches_rk4_oracle():
    rng = np.random.default_rng(11)
    for _ in range(3):
        n = int(rng.integers(4, 12))
        pos, dip = random_geometry(rng, n)
        h = assemble_heff(EmitterArray(pos, dip))
        psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi0 /= np.linalg.norm(psi0)
        prop = propagate(h, psi0, [0.0, 10.0])
        oracle = rk4_propagate(h, psi0, 10.0, dt=1e-3)
        assert np.max(np.abs(prop.states[-1] - oracle)) < 1e-8


def test_norm_monotonically_decreasing(pair10, h10):
    psi0 = gaussian_packet(pair10, 0, farthest_site(pair10, 0), m=4, delta_theta=0.8)
    prop = propagate(h10, psi0, np.linspace(0.0, 50.0, 400))
    norms = np.linalg.norm(prop.states, axis=1)
    assert np.all(np.diff(norms) <= 1e-10)


def test_norm_decay_rate_matches_quadratic_form(pair10, h10):
    psi0 = spin_wave_state(pair10, 2, group=0)
    gamma = decay_matrix(h10)
    dt = 1e-5
    for t in (0.5, 2.0, 7.0):
        prop = propagate(h10, psi0, [t - dt, t, t + dt])
        deriv = (np.linalg.norm(prop.states[2]) ** 2
                 - np.linalg.norm(prop.states[0]) ** 2) / (2 * dt)
        psi = prop.states[1]
        expected = -np.real(np.conj(psi) @ gamma @ psi)
        assert abs(deriv - expected) < 1e-6 * abs(expected)


def test_fidelity_starts_at_zero_and_bounded(pair10, h10):
    psi0 = gaussian_packet(pair10, 0, farthest_site(pair10, 0), m=4, delta_theta=1.0)
    times = np.linspace(0.0, 40.0, 300)
    trace = fidelity_trace(pair10, psi0, m=4, delta_theta=1.0, times=times, h=h10)
    assert trace.fidelity[0] < 1e-12
    assert np.all(trace.fidelity >= 0.0) and np.all(trace.fidelity <= 1.0 + 1e-10)


def test_two_mode_model_retention(pair10, h10):
    # subradiant edge-mode dynamics stay in the {ring, +/-m} subspace
    cpl = ring_ring_coupling(pair10, h10)
    j = abs(np.real(cpl.at(5, 5)))
    psi0 = spin_wave_state(pair10, 5, group=0)
    times = np.linspace(0.0, np.pi / j, 150)
    prop = propagate(h10, psi0, times)
    basis = np.column_stack([spin_wave_state(pair10, 5, 0), spin_wave_state(pair10, 5, 1)])
    q, _ = np.linalg.qr(basis)
    retained = (np.linalg.norm(prop.states @ np.conj(q), axis=1) ** 2
                / np.linalg.norm(prop.states, axis=1) ** 2)
    assert retained.min() > 0.9


def test_farthest_site(pair10):
    k = farthest_site(pair10, 0)
    assert k == 5  # site at angle pi, opposite the facing site


def test_default_horizon(pair10, h10):
    cpl = ring_ring_coupling(pair10, h10)
    horizon = default_horizon(cpl, 5)
    assert abs(horizon - 20.0 * np.pi / abs(np.real(cpl.at(5, -5)))) < 1e-9


def test_fidelity_scan_grid_shape():
    scan = fidelity_scan(8, 0.1, "tangential", 2, [0.1, 0.2], [0.3, 1.0, 2.0],
                         t_max=30.0, t_steps=200)
    assert scan.max_fidelity.shape == (2, 3)
    assert scan.widths.shape == (2, 3)
    assert np.all(scan.max_fidelity >= 0.0) and np.all(scan.max_fidelity <= 1.0)
    threaded = fidelity_scan(8, 0.1, "tangential", 2, [0.1, 0.2], [0.3, 1.0, 2.0],
                             t_max=30.0, t_steps=200, threads=2)
    assert np.array_equal(scan.max_fidelity, threaded.max_fidelity)
    with pytest.raises(ValueError):
        fidelity_scan(8, 0.1, "tangential", 2, [], [0.3], t_max=10.0)


@pytest.mark.parametrize("ring", [0, 1])
def test_one_site_packet_is_that_site(ring):
    # a one-site ring has radius 0: the packet is its site with unit amplitude
    pair = build_two_rings("site-site", 1, 0.1, 0.15, "tangential")
    psi = gaussian_packet(pair, ring, 0, m=3, delta_theta=0.5)
    site = pair.groups[ring][0]
    assert abs(abs(psi[site]) - 1.0) < 1e-15
    assert np.count_nonzero(psi) == 1


def _count_eig(monkeypatch):
    """Record the side of each np.linalg.eig call from any thread (list.append is atomic
    under the GIL)."""
    calls, eig = [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(len(a)) or eig(a))
    return calls


@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
@pytest.mark.parametrize("t_max", [25.0, None])
def test_fidelity_scan_factors_once_per_separation(monkeypatch, arrangement, t_max):
    args = (6, 0.1, "tangential", 2, [0.1, 0.15, 0.25], [0.3, 0.8, 1.5, 2.5])
    kwargs = dict(t_max=t_max, t_steps=150, arrangement=arrangement)
    expected_f, expected_t = fidelity_scan_from_states(*args, **kwargs)
    calls = _count_eig(monkeypatch)
    for threads in (1, 2):
        calls.clear()
        scan = fidelity_scan(*args, threads=threads, **kwargs)
        # one eig per symmetry sector: C2v (4) site-site, sigma_y (2) site-edge
        assert len(calls) == 3 * {"site-site": 4, "site-edge": 2}[arrangement]
        assert sum(calls) == 3 * 2 * args[0]
        assert np.max(np.abs(scan.max_fidelity - expected_f)) < 1e-12
        assert np.max(np.abs(scan.t_at_max - expected_t)) < 1e-12 * np.max(expected_t)


def test_fidelity_trace_factors_once_and_reports_its_path(monkeypatch, pair10, h10):
    psi0 = gaussian_packet(pair10, 0, farthest_site(pair10, 0), m=4, delta_theta=1.0)
    cond = np.linalg.cond(np.linalg.eig(h10)[1])
    calls = _count_eig(monkeypatch)
    times = np.linspace(0.0, 40.0, 300)
    trace = fidelity_trace(pair10, psi0, m=4, delta_theta=1.0, times=times, h=h10)
    assert len(calls) == 4 and sum(calls) == len(h10)        # one eig per C2v sector
    assert trace.method == "eig" and 1.0 <= cond < 1e8
    assert trace.cond == pytest.approx(cond, rel=1e-12, abs=0)
    with pytest.raises(FrozenInstanceError):
        trace.method = "ode"


def test_defective_h_takes_the_ode_fallback():
    # h = -i/2 + N with N nilpotent: one eigenvector, so cond(V) is huge and
    # psi(t) = e^{-t/2} (1, -i t) exactly
    pair = build_two_rings("site-site", 1, 0.1, 0.15, "tangential")
    h = np.array([[-0.5j, 0.0], [1.0, -0.5j]])
    psi0 = gaussian_packet(pair, 0, 0, m=0, delta_theta=1.0)
    times = np.linspace(0.0, 12.0, 61)
    prop = propagate(h, psi0, times)
    assert prop.method == "ode"
    decay = np.exp(-times / 2)
    assert np.max(np.abs(prop.states - np.column_stack([decay, -1j * times * decay]))) < 1e-8
    # h = N alone: eig returns two exactly parallel eigenvectors, so cond(V) is inf
    nilpotent = propagate(np.array([[0.0, 0.0], [1.0, 0.0]]), psi0, times)
    assert nilpotent.method == "ode"
    exact = np.column_stack([np.ones_like(times), -1j * times])
    assert np.max(np.abs(nilpotent.states - exact)) < 1e-8
    trace = fidelity_trace(pair, psi0, m=0, delta_theta=1.0, times=times, h=h)
    assert trace.method == "ode" and trace.cond > 1e8
    assert np.max(np.abs(trace.fidelity - times * decay)) < 1e-8
    # F(0) = 0 is below the ODE floor n eps = 2 eps: no site; every later F is above it
    assert trace.argmax_site.tolist() == [-1] + [0] * (len(times) - 1)


def test_fidelity_scan_ode_fallback_matches_eig(monkeypatch):
    args = (5, 0.1, "tangential", 2, [0.1, 0.2], [0.5, 1.5])
    eig_scan = fidelity_scan(*args, t_max=20.0, t_steps=120)
    import scipy.integrate
    integrations, solve_ivp = [], scipy.integrate.solve_ivp
    monkeypatch.setattr(scipy.integrate, "solve_ivp",
                        lambda *a, **k: integrations.append(1) or solve_ivp(*a, **k))
    # cond(V) comes from the singular values of the sector blocks: force it to 1e9
    monkeypatch.setattr(np.linalg, "svd", lambda a, compute_uv: np.array([1e9, 1.0]))
    ode_scan = fidelity_scan(*args, t_max=20.0, t_steps=120)
    assert len(integrations) == 4
    assert np.max(np.abs(ode_scan.max_fidelity - eig_scan.max_fidelity)) < 1e-7
    assert np.max(np.abs(ode_scan.t_at_max - eig_scan.t_at_max)) < 1e-7


@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
def test_fidelity_scan_reports_its_solver_path(monkeypatch, arrangement):
    args = (5, 0.1, "tangential", 2, [0.1, 0.2, 0.4], [0.5, 1.5])
    conds = [np.linalg.cond(np.linalg.eig(assemble_heff(
        build_two_rings(arrangement, 5, 0.1, x, "tangential")))[1])
        for x in args[4]]
    for threads in (1, 2):
        scan = fidelity_scan(*args, t_max=20.0, t_steps=120, threads=threads,
                             arrangement=arrangement)
        assert scan.methods.tolist() == ["eig"] * 3
        assert np.allclose(scan.conds, conds, rtol=1e-12, atol=0)
    monkeypatch.setattr(np.linalg, "svd", lambda a, compute_uv: np.array([1e9, 1.0]))
    scan = fidelity_scan(*args, t_max=20.0, t_steps=120, arrangement=arrangement)
    assert scan.methods.tolist() == ["ode"] * 3
    assert scan.conds.tolist() == [1e9] * 3


@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
@pytest.mark.parametrize("n", [1, 6, 7, 100])
def test_targets_match_per_site_packets(arrangement, n):
    pair = build_two_rings(arrangement, n, 0.1, 0.15, "tangential")
    dts = [0.3, 1.7]
    for dt, targets in zip(dts, transfer._targets(pair, 3, dts)):
        columns = np.column_stack([gaussian_packet(pair, 1, k, -3, dt) for k in range(n)])
        assert targets.shape == (2 * n, n)
        assert np.max(np.abs(targets - columns)) <= 1e-15


CIRCULAR = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0)


def _pair_and_h(arrangement, n, polarization):
    pair = build_two_rings(arrangement, n, 0.1, 0.15, polarization)
    return pair, assemble_heff(pair)


def _dense_bases(sectors, n):
    """Q_s (n, n_s) of each sector of _sectors, built densely from its signed orbit gathers."""
    bases = []
    for _, idx, coef, sizes in sectors:
        q = np.zeros((n, len(sizes)))
        for rows, c in zip(idx, coef):
            q[rows, np.arange(len(sizes))] += c
        bases.append(q * np.sqrt(sizes) / len(idx))
    return bases


def _assert_sectors_split_h(sectors, h):
    """The dense Q of the gathers is orthonormal and block-diagonalizes h; the blocks from the
    representative rows and the gathered projections equal Q_s^T h Q_s and Q_s^T x."""
    n, scale = len(h), np.max(np.abs(h))
    bases = _dense_bases(sectors, n)
    q = np.hstack(bases)
    assert q.shape == (n, n) and np.isrealobj(q)
    assert np.max(np.abs(q.T @ q - np.eye(n))) < 1e-15
    rotated = q.T @ h @ q
    edges = np.cumsum([0] + [b.shape[1] for b in bases])
    for lo, hi in zip(edges[:-1], edges[1:]):
        rotated[lo:hi, lo:hi] = 0.0
    assert np.max(np.abs(rotated)) <= 1e-12 * scale
    x = np.random.default_rng(n).normal(size=(n, 3)) + 1j
    for sector, b in zip(sectors, bases):
        assert np.max(np.abs(_block(sector, h[sector[0]]) - b.T @ h @ b)) <= 1e-13 * scale
        assert np.max(np.abs(_project(sector, x) - b.T @ x)) <= 1e-13 * np.max(np.abs(x))
    return bases


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("arrangement, polarization, count", [
    ("site-site", "transverse", 4), ("site-site", "tangential", 4), ("site-site", "radial", 4),
    ("site-edge", "transverse", 2), ("site-edge", "tangential", 2), ("site-edge", "radial", 2),
    ("site-site", CIRCULAR, 2),      # sigma_y turns (1, i, 0) into (1, -i, 0): C2 only
    ("site-edge", CIRCULAR, 1),
])
def test_sectors_split_h_into_orthonormal_blocks(arrangement, polarization, count, n):
    pair, h = _pair_and_h(arrangement, n, polarization)
    sectors = _sectors(*transfer._symmetry_group(pair, h))
    assert len(sectors) == count
    _assert_sectors_split_h(sectors, h)
    from scipy.optimize import linear_sum_assignment
    sector_vals = np.concatenate([np.linalg.eigvals(_block(s, h[s[0]])) for s in sectors])
    dense_vals = np.linalg.eigvals(h)
    distance = np.abs(sector_vals[:, None] - dense_vals[None, :])
    rows, cols = linear_sum_assignment(distance)
    assert np.max(distance[rows, cols]) < 1e-10


def _reversal(n):
    """The group {identity, j -> n-1-j} with signs +1 that chain_spectrum passes to _sectors."""
    sites = np.arange(n)
    return np.array([sites, sites[::-1]]), np.ones((2, n))


@pytest.mark.parametrize("dipole", [(0, 0, 1), (0.3, 0.4, 0.5)], ids=["z", "tilted"])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
def test_sectors_of_a_chain(n, dipole):
    chain = build_chain(n, 1.0 / 3.0, dipole)
    h = assemble_heff(chain)
    # sigma_y and C2 of a z-polarized chain; the identity for a tilted dipole
    _assert_sectors_split_h(_sectors(*transfer._symmetry_group(chain, h)), h)
    sectors = _sectors(*_reversal(n))
    _assert_sectors_split_h(sectors, h)
    # even block first; for odd n it holds the middle site as a one-site orbit
    assert [len(s[0]) for s in sectors] == [(n + 1) // 2, n // 2][:min(n, 2)]
    assert list(sectors[0][3]) == [2] * (n // 2) + [1] * (n % 2)


@pytest.mark.parametrize("array, count", [
    *[(build_two_rings(arrangement, n, 0.1, 0.15, "tangential"), 2)
      for arrangement in ("site-site", "site-edge") for n in (1, 2)],
    (build_ring(8, 0.1, "tangential"), 4),
], ids=["site-site-1", "site-site-2", "site-edge-1", "site-edge-2", "ring-8"])
def test_sectors_of_small_pairs_and_a_ring(array, count):
    h = assemble_heff(array)
    sectors = _sectors(*transfer._symmetry_group(array, h))
    assert len(sectors) == count
    _assert_sectors_split_h(sectors, h)


def test_sectors_without_a_verified_symmetry_is_the_identity():
    rng = np.random.default_rng(5)
    pos, dip = random_geometry(rng, 9)
    asymmetric = EmitterArray(pos, dip)
    # the defective h of a symmetric pair: C2 swaps its sites, but h is not C2-symmetric
    pair = build_two_rings("site-site", 1, 0.1, 0.15, "tangential")
    defective = np.array([[-0.5j, 0.0], [1.0, -0.5j]])
    for array, h in ((None, assemble_heff(asymmetric)), (asymmetric, assemble_heff(asymmetric)),
                     (pair, defective)):
        sectors = _sectors(*transfer._symmetry_group(array, h))
        assert len(sectors) == 1 and np.array_equal(_dense_bases(sectors, len(h))[0],
                                                    np.eye(len(h)))


@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
def test_sector_fidelity_scan_matches_the_full_state_oracle(arrangement):
    args = (40, 0.1, "tangential", 6, [0.1, 0.2], [0.5, 1.5])
    kwargs = dict(t_max=None, t_steps=200, arrangement=arrangement)
    expected_f, expected_t = fidelity_scan_from_states(*args, **kwargs)
    for threads in (1, 2):
        scan = fidelity_scan(*args, threads=threads, **kwargs)
        assert np.max(np.abs(scan.max_fidelity - expected_f)) < 1e-10
        assert np.max(np.abs(scan.t_at_max - expected_t)) < 1e-10 * np.max(expected_t)
    pair, h = _pair_and_h(arrangement, 40, "tangential")
    psi0 = gaussian_packet(pair, 0, farthest_site(pair, 0), m=6, delta_theta=1.0)
    times = np.linspace(0.0, 200.0, 300)
    trace = fidelity_trace(pair, psi0, m=6, delta_theta=1.0, times=times, h=h)
    targets = np.column_stack([gaussian_packet(pair, 1, k, -6, 1.0) for k in range(40)])
    overlaps = np.abs(propagate(h, psi0, times).states @ np.conj(targets))
    # at t = 0 ring 2 holds only round-off (~1e-16), below the floor n eps cond(V): no site
    lit = overlaps.max(axis=1) > 1e-8
    assert np.count_nonzero(lit) == len(times) - 1
    assert trace.fidelity[0] <= len(h) * np.finfo(float).eps * trace.cond
    assert trace.argmax_site[0] == -1 and np.all(trace.argmax_site[1:] >= 0)
    assert np.array_equal(trace.argmax_site[lit], np.argmax(overlaps, axis=1)[lit])
    assert np.max(np.abs(trace.fidelity - overlaps.max(axis=1))) < 1e-10


@pytest.mark.parametrize("arrangement, sizes", [("site-site", [19, 21, 19, 21]),
                                                ("site-edge", [39, 41])])
def test_sector_transfer_factors_no_full_size_system(monkeypatch, arrangement, sizes):
    pair, h = _pair_and_h(arrangement, 40, "tangential")
    psi0 = gaussian_packet(pair, 0, farthest_site(pair, 0), m=6, delta_theta=1.0)
    bases = _dense_bases(_sectors(*transfer._symmetry_group(pair, h)), len(h))
    dense = np.linalg.cond(np.hstack([q @ np.linalg.eig(q.T @ h @ q)[1] for q in bases]))
    shapes = {"solve": [], "svd": []}
    for name in shapes:
        call = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *r, _call=call, _seen=shapes[name], **k:
                            _seen.append(np.shape(a)) or _call(a, *r, **k))
    trace = fidelity_trace(pair, psi0, m=6, delta_theta=1.0, times=np.linspace(0, 50, 40), h=h)
    assert trace.method == "eig"
    assert trace.cond == pytest.approx(dense, rel=1e-12, abs=0)
    # one LU and one SVD per sector block; none of them is 2N x 2N
    assert shapes["svd"] == [(s, s) for s in sizes]
    assert [shape[0] for shape in shapes["solve"]] == sizes
    assert all(shape[0] < len(h) for shape in shapes["solve"] + shapes["svd"])


@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
@pytest.mark.parametrize("n", [5, 6, 7, 11, 21, 25])
def test_farthest_site_is_the_same_at_every_gap(arrangement, n):
    # for odd n two mirror-image sites are farthest and tie up to round-off: the lower index
    gaps = [0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.5, 1.0]
    sites = {farthest_site(build_two_rings(arrangement, n, 0.1, x, "radial"), 0)
             for x in gaps}
    assert len(sites) == 1
    pair = build_two_rings(arrangement, n, 0.1, 0.15, "radial")
    dist = np.linalg.norm(pair.positions[pair.groups[0]] - pair.ring_meta[1].center, axis=1)
    assert sites.pop() == np.flatnonzero(dist >= (1.0 - 1e-9) * dist.max())[0]


def _phase_reference(times, vals):
    """e^{-i vals t} in extended precision, from the exact float64 times and vals."""
    return np.exp(np.multiply.outer(np.asarray(times, dtype=np.longdouble),
                                    (-1j * vals).astype(np.clongdouble)))


def _phase_error(table, reference):
    """Largest error, relative where the phase has grown above 1 (Im lambda > 0)."""
    if table.size == 0:
        return 0.0
    return float(np.max(np.abs(table - reference) / np.maximum(1.0, np.abs(reference))))


def _slack(times, vals):
    """What the rows between two anchors may add to the error of one np.exp per entry: at most
    _ANCHOR_ROWS roundings of a product and of the phase lambda dt of one step."""
    step = np.max(np.diff(times), initial=0.0)
    return transfer._ANCHOR_ROWS * np.finfo(float).eps * (1.0 + np.max(np.abs(vals)) * step)


_RNG = np.random.default_rng(3)
# decaying columns from subradiant to radiant (Gamma up to 12), two with Gamma = 0 and one
# growing (Im lambda > 0), as round-off gives the deepest subradiant modes of h
_VALS = _RNG.uniform(-3.0, 3.0, 40) - 0.5j * np.concatenate(
    [10.0 ** _RNG.uniform(-8.0, np.log10(12.0), 37), [0.0, 0.0, -2e-4]])


@pytest.mark.parametrize("vals", [_VALS, np.real(_VALS)], ids=["non-hermitian", "hermitian"])
@pytest.mark.parametrize("times", [np.linspace(0.0, 1e4, 2000), [0.0, 1.0, 3.0],
                                   [7.0 - 1e-5, 7.0, 7.0 + 1e-5], [0.0, 2.0, 2.0, 5.0], [4.0], []],
                         ids=["linspace", "steps-1-2", "offset", "repeated", "one", "none"])
def test_phases_match_an_extended_precision_reference(times, vals):
    times = np.asarray(times, dtype=float)
    table = transfer._phases(times, vals)
    reference = _phase_reference(times, vals)
    assert table.shape == (len(times), len(vals)) and table.dtype == complex
    # no worse than one np.exp per entry, up to the roundings between anchors (see _slack)
    direct = _phase_error(np.exp(np.outer(times, -1j * vals)), reference)
    assert _phase_error(table, reference) <= direct + _slack(times, vals)
    # an entry below sqrt(tiny) = 2^-511 in magnitude is exactly 0, and none is subnormal
    floor = np.sqrt(np.finfo(float).tiny)
    assert np.all((table == 0.0) == (np.abs(reference) < floor))
    for part in (table.real, table.imag):
        assert not np.any((part != 0.0) & (np.abs(part) < np.finfo(float).tiny))
    assert np.all(table[:, np.imag(vals) >= 0] != 0.0)


@pytest.mark.parametrize("horizon", [10.0, 1e4])
def test_phases_error_does_not_grow_with_the_number_of_steps(horizon):
    # a running product without anchors reaches 1.1e-11 at 1e5 steps over a horizon of 10
    # (1.1e-13 at 1e3); with one exact anchor per _ANCHOR_ROWS rows it stays at the level
    # of np.exp
    vals = _VALS[[0, 5, 10, 37, 38, 39]]
    errors = []
    for steps in (1000, 100_000):
        times = np.linspace(0.0, horizon, steps)
        reference = _phase_reference(times, vals)
        error = _phase_error(transfer._phases(times, vals), reference)
        direct = _phase_error(np.exp(np.outer(times, -1j * vals)), reference)
        assert error <= direct + _slack(times, vals)
        errors.append(error)
    assert errors[1] <= 2.0 * errors[0]


def test_phases_allocate_only_their_table():
    import tracemalloc
    times = np.linspace(0.0, 1e3, 2000)
    tracemalloc.start()
    try:
        table = transfer._phases(times, _VALS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the anchors' exp argument is 1/_ANCHOR_ROWS of the table; nothing else is (t, n)
    assert peak - table.nbytes < table.nbytes / 8


def test_fidelity_scan_matches_a_dense_eig_time_axis_at_a_long_horizon():
    # site-edge transverse at x = 0.3: the default horizon for m = 10 is 2.1e5, and 30 of
    # the 80 phases fall below 2^-511 on the way
    args = (40, 0.1, "transverse", 10, [0.3], [0.5, 1.0, 2.0])
    kwargs = dict(t_max=None, t_steps=2000, arrangement="site-edge")
    expected_f, expected_t = fidelity_scan_from_dense_eig(*args, **kwargs)
    scan = fidelity_scan(*args, **kwargs)
    assert np.max(np.abs(scan.max_fidelity - expected_f)) < 1e-10
    assert np.array_equal(scan.t_at_max, expected_t)


@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
def test_gathers_project_as_the_dense_basis(arrangement):
    for n in (1, 6, 7, 40):
        pair, h = _pair_and_h(arrangement, n, "tangential")
        x = np.random.default_rng(n).normal(size=(2 * n, 3)) + 1j
        sectors = _sectors(*transfer._symmetry_group(pair, h))
        for sector, q in zip(sectors, _dense_bases(sectors, 2 * n)):
            # each orbit gathers at most |G| distinct sites
            assert np.max(sector[3]) <= {"site-site": 4, "site-edge": 2}[arrangement]
            assert np.max(np.abs(_project(sector, x) - q.T @ x)) < 1e-15


def test_threads_is_an_upper_bound_on_the_pool_size(monkeypatch):
    # the pool class is patched to record its size: 10**6 threads are never asked of the system
    sizes = []

    class Recording(spectrum.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=min(max_workers, 3))

    monkeypatch.setattr(spectrum, "ThreadPoolExecutor", Recording)
    min_decay_scan("chain", [4, 5, 6], 3.0, threads=10**6)
    fidelity_scan(6, 0.1, "tangential", 2, [0.1, 0.2, 0.3], [1.0], t_max=5.0, t_steps=10,
                  threads=10**6)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert sizes == [min(3, cpus or 1)] * 2


@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
def test_mirror_image_sites_tie_to_the_lower_index(arrangement):
    # an m = 0 packet from the farthest site is sigma_y-symmetric, so ring-2 sites k and their
    # mirror images give equal overlaps; round-off must not decide which one is reported
    pair, h = _pair_and_h(arrangement, 10, "transverse")
    psi0 = gaussian_packet(pair, 0, farthest_site(pair, 0), m=0, delta_theta=1.0)
    times = np.linspace(0.0, default_horizon(ring_ring_coupling(pair, h), 0), 2000)
    trace = fidelity_trace(pair, psi0, m=0, delta_theta=1.0, times=times, h=h)
    angles = pair.ring_meta[1].angles
    mirror = np.argmin(np.abs(np.exp(-1j * angles)[:, None] - np.exp(1j * angles)), axis=1)
    lit = trace.argmax_site >= 0
    assert np.count_nonzero(lit) == len(times) - 1
    assert np.all(trace.argmax_site[lit] <= mirror[trace.argmax_site[lit]])
