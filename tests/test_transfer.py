import concurrent.futures.process
import json
import multiprocessing
import os
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from dipolerings import spectrum, transfer
from dipolerings.geometry import (SYMMETRIC_SCHEMES, EmitterArray, build_chain, build_ring,
                                  build_two_rings)
from dipolerings.spectrum import (_block, _project, _sectors, assemble_heff, canonical_m_range,
                                  min_decay_scan, ring_spectrum, spin_wave_state)
from dipolerings.transfer import (FidelityScan, default_horizon, eta_map, farthest_site,
                                  fidelity_scan, fidelity_trace, gaussian_packet, propagate,
                                  ring_ring_coupling)
from oracles import (decay_matrix, fidelity_scan_from_dense_eig, fidelity_scan_from_states,
                     geometric_symmetry_group, random_geometry, rk4_propagate)


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


@pytest.mark.parametrize("call", [
    ring_ring_coupling, lambda a: ring_ring_coupling(a, assemble_heff(a)),
    lambda a: farthest_site(a, 0), lambda a: farthest_site(a, 1), lambda a: default_horizon(a, 1),
], ids=["coupling", "coupling-given-h", "farthest-site-0", "farthest-site-1", "horizon"])
def test_groups_without_ring_metadata_raise_value_error(call):
    pair = build_two_rings("site-site", 6, 0.1, 0.15, "tangential")
    bare = EmitterArray(pair.positions, pair.dipoles, pair.groups)
    with pytest.raises(ValueError, match="no ring metadata"):
        call(bare)


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


def test_a_width_whose_square_overflows_is_the_widest_packet(pair10):
    # dtheta^2 leaves float range above about 1.3e154: the exponent is inf, the envelope 1
    assert np.array_equal(gaussian_packet(pair10, 0, 3, m=4, delta_theta=1e200),
                          gaussian_packet(pair10, 0, 3, m=4, delta_theta=1e150))


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


def test_default_horizon(pair10):
    # against the independent inter-ring block path of ring_ring_coupling
    want = 20.0 * np.pi / abs(np.real(ring_ring_coupling(pair10).at(5, -5)))
    assert default_horizon(pair10, 5) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("groups", [
    None, [np.arange(3), np.arange(3, 20)], [np.arange(5), np.arange(5, 10), np.arange(10, 20)],
], ids=["one-group", "unequal-groups", "three-groups"])
def test_default_horizon_needs_two_equal_size_ring_groups(pair10, groups):
    array = EmitterArray(pair10.positions, pair10.dipoles, groups)
    with pytest.raises(ValueError, match="need exactly two equal-size ring groups"):
        default_horizon(array, 1)


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


def _count_eig(monkeypatch, tmp_path):
    """Record the side of each np.linalg.eig call, in this process or a forked worker: each
    call appends one line to a file opened O_APPEND.  Returns take(), the sides recorded
    since the last take."""
    log, eig = tmp_path / "eig-sides", np.linalg.eig
    log.write_text("")

    def counted(a):
        with open(log, "a", encoding="ascii") as f:
            f.write(f"{len(a)}\n")
        return eig(a)

    def take():
        sides = [int(side) for side in log.read_text().split()]
        log.write_text("")
        return sides

    monkeypatch.setattr(np.linalg, "eig", counted)
    return take


@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
@pytest.mark.parametrize("t_max", [25.0, None])
def test_fidelity_scan_factors_once_per_separation(monkeypatch, tmp_path, arrangement, t_max):
    args = (6, 0.1, "tangential", 2, [0.1, 0.15, 0.25], [0.3, 0.8, 1.5, 2.5])
    kwargs = dict(t_max=t_max, t_steps=150, arrangement=arrangement)
    expected_f, expected_t = fidelity_scan_from_states(*args, **kwargs)
    take = _count_eig(monkeypatch, tmp_path)
    for threads in (1, 2):
        scan = fidelity_scan(*args, threads=threads, **kwargs)
        calls = take()
        # one eig per symmetry sector: C2v (4) site-site, sigma_y (2) site-edge
        assert len(calls) == 3 * {"site-site": 4, "site-edge": 2}[arrangement]
        assert sum(calls) == 3 * 2 * args[0]
        assert np.max(np.abs(scan.max_fidelity - expected_f)) < 1e-12
        assert np.max(np.abs(scan.t_at_max - expected_t)) < 1e-12 * np.max(expected_t)


def test_fidelity_trace_factors_once_and_reports_its_path(monkeypatch, tmp_path, pair10, h10):
    psi0 = gaussian_packet(pair10, 0, farthest_site(pair10, 0), m=4, delta_theta=1.0)
    cond = np.linalg.cond(np.linalg.eig(h10)[1])
    take = _count_eig(monkeypatch, tmp_path)
    times = np.linspace(0.0, 40.0, 300)
    trace = fidelity_trace(pair10, psi0, m=4, delta_theta=1.0, times=times)
    calls = take()
    assert len(calls) == 4 and sum(calls) == len(h10)        # one eig per C2v sector
    assert trace.method == "eig" and 1.0 <= cond < 1e8
    assert trace.cond == pytest.approx(cond, rel=1e-12, abs=0)
    with pytest.raises(FrozenInstanceError):
        trace.method = "ode"


def test_fidelity_trace_factors_a_given_h_as_one_sector(monkeypatch, tmp_path, pair10, h10):
    psi0 = gaussian_packet(pair10, 0, farthest_site(pair10, 0), m=4, delta_theta=1.0)
    times = np.linspace(0.0, 40.0, 300)
    targets = np.column_stack([gaussian_packet(pair10, 1, k, -4, 1.0) for k in range(10)])
    overlaps = np.abs(propagate(h10, psi0, times).states @ np.conj(targets))
    take = _count_eig(monkeypatch, tmp_path)
    trace = fidelity_trace(pair10, psi0, m=4, delta_theta=1.0, times=times, h=h10)
    assert take() == [len(h10)]
    assert trace.method == "eig"
    assert np.max(np.abs(trace.fidelity - overlaps.max(axis=1))) <= 1e-12


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
    assert np.max(np.abs(prop.states - np.column_stack([decay, -1j * times * decay]))) < 1e-12
    # h = N alone: eig returns two exactly parallel eigenvectors, so cond(V) is inf
    nilpotent = propagate(np.array([[0.0, 0.0], [1.0, 0.0]]), psi0, times)
    assert nilpotent.method == "ode"
    exact = np.column_stack([np.ones_like(times), -1j * times])
    assert np.max(np.abs(nilpotent.states - exact)) < 1e-12
    trace = fidelity_trace(pair, psi0, m=0, delta_theta=1.0, times=times, h=h)
    assert trace.method == "ode" and trace.cond > 1e8
    assert np.max(np.abs(trace.fidelity - times * decay)) < 1e-12
    # F(0) = 0 is below the ODE floor n eps = 2 eps: no site; every later F is above it
    assert trace.argmax_site.tolist() == [-1] + [0] * (len(times) - 1)


def test_fidelity_scan_ode_fallback_matches_eig(monkeypatch):
    args = (5, 0.1, "tangential", 2, [0.1, 0.2], [0.5, 1.5])
    eig_scan = fidelity_scan(*args, t_max=20.0, t_steps=120)
    import scipy.linalg
    exponentials, expm = [], scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda *a: exponentials.append(1) or expm(*a))
    # cond(V) comes from the singular values of the sector blocks: force it to 1e9
    monkeypatch.setattr(np.linalg, "svd", lambda a, compute_uv: np.array([1e9, 1.0]))
    ode_scan = fidelity_scan(*args, t_max=20.0, t_steps=120)
    # one exponential per distinct step of the grid from t = 0, for all widths together
    assert len(exponentials) == 2 * 10
    assert np.max(np.abs(ode_scan.max_fidelity - eig_scan.max_fidelity)) < 1e-10
    assert np.max(np.abs(ode_scan.t_at_max - eig_scan.t_at_max)) < 1e-10


def _block_rows(n):
    """Rows per time block of a pair of two n-site rings (at most _BLOCK_ENTRIES rows)."""
    return transfer._time_blocks(spectrum._BLOCK_ENTRIES, 2 * n)[0].stop


def test_ode_fallback_steps_from_t_zero_on_every_grid(monkeypatch):
    # the first exponential step runs from t = 0 to the grid's first time, so a grid that
    # starts later, a single point, an irregular grid and an empty one match the eig path,
    # as does a grid of two time blocks and three rows, through which the state is carried
    pair = build_two_rings("site-edge", 7, 0.1, 0.15, "tangential")
    h = assemble_heff(pair)
    psi0 = gaussian_packet(pair, 0, farthest_site(pair, 0), m=2, delta_theta=1.0)
    grids = [np.linspace(5.0, 30.0, 41), np.array([3.0]), np.array([0.0, 0.5, 7.25, 7.5, 30.0]),
             np.array([]), np.linspace(0.0, 30.0, 2 * _block_rows(7) + 3)]
    eig = [propagate(h, psi0, times) for times in grids]
    monkeypatch.setattr(np.linalg, "svd", lambda a, compute_uv: np.array([1e9, 1.0]))
    for times, want in zip(grids, eig):
        got = propagate(h, psi0, times)
        assert (want.method, got.method) == ("eig", "ode")
        assert got.states.shape == want.states.shape == (len(times), 14)
        assert np.max(np.abs(got.states - want.states), initial=0.0) <= 1e-12
    # the defective h of test_defective_h_takes_the_ode_fallback from t = 2, against
    # psi(t) = e^{-t/2} (1, -i t)
    times = np.linspace(2.0, 12.0, 51)
    prop = propagate(np.array([[-0.5j, 0.0], [1.0, -0.5j]]), np.array([1.0, 0.0]), times)
    decay = np.exp(-times / 2)
    assert prop.method == "ode"
    assert np.max(np.abs(prop.states - np.column_stack([decay, -1j * times * decay]))) < 1e-12


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
    for dt in dts:
        targets = transfer._targets(pair, 3, dt)                 # conjugated
        columns = np.column_stack([gaussian_packet(pair, 1, k, -3, dt) for k in range(n)])
        assert targets.shape == (2 * n, n)
        assert np.max(np.abs(np.conj(targets) - columns)) <= 1e-15


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
        assert np.max(np.abs(_block(sector, h, sector[0]) - b.T @ h @ b)) <= 1e-13 * scale
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
    sectors = _sectors(*spectrum._symmetry_group(pair))
    assert len(sectors) == count
    _assert_sectors_split_h(sectors, h)
    from scipy.optimize import linear_sum_assignment
    sector_vals = np.concatenate([np.linalg.eigvals(_block(s, h, s[0])) for s in sectors])
    dense_vals = np.linalg.eigvals(h)
    distance = np.abs(sector_vals[:, None] - dense_vals[None, :])
    rows, cols = linear_sum_assignment(distance)
    assert np.max(distance[rows, cols]) < 1e-10


@pytest.mark.parametrize("dipole", [(0, 0, 1), (0.3, 0.4, 0.5)], ids=["z", "tilted"])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
def test_sectors_of_a_chain(n, dipole):
    chain = build_chain(n, 1.0 / 3.0, dipole)
    h = assemble_heff(chain)
    # the declared inversion j -> n-1-j is kept, with sign -1 on every site (p -> -p)
    perms, signs = spectrum._symmetry_group(chain)
    sites = np.arange(n)
    assert np.array_equal(perms, [sites, sites[::-1]])
    assert np.array_equal(signs, [np.ones(n), -np.ones(n)])
    sectors = _sectors(perms, signs)
    _assert_sectors_split_h(sectors, h)
    # odd block first (the trivial character times the signs -1); the even block, last,
    # holds the middle site of an odd chain as a one-site orbit
    assert [len(s[0]) for s in sectors] == [n // 2, (n + 1) // 2][2 - min(n, 2):]
    assert list(sectors[-1][3]) == [2] * (n // 2) + [1] * (n % 2)


@pytest.mark.parametrize("dipole", [(0, 0, 1), (1, 0, 0), (0.3, 0.4, 0.5), CIRCULAR],
                         ids=["z", "x", "tilted", "circular"])
@pytest.mark.parametrize("n", [*range(1, 13), 101])
def test_build_chain_keeps_its_inversion(n, dipole):
    for d in (0.1, 1.0 / 3.0):
        chain = build_chain(n, d, dipole)
        (flip, perm), = chain.symmetries
        assert flip.tolist() == [-1, -1, -1] and perm.tolist() == list(range(n))[::-1]
        # the inversion turns every dipole, real or complex, into its negative
        perms, signs = spectrum._symmetry_group(chain)
        assert len(perms) == 2 and np.array_equal(signs[1], -np.ones(n))


@pytest.mark.parametrize("array, count", [
    *[(build_two_rings(arrangement, n, 0.1, 0.15, "tangential"), 2)
      for arrangement in ("site-site", "site-edge") for n in (1, 2)],
    # the declared half-turn and mirror y -> -y split h in four; the mirror in the ring's own
    # plane fixes every site
    (build_ring(8, 0.1, "tangential"), 4),
], ids=["site-site-1", "site-site-2", "site-edge-1", "site-edge-2", "ring-8"])
def test_sectors_of_small_pairs_and_a_ring(array, count):
    h = assemble_heff(array)
    sectors = _sectors(*spectrum._symmetry_group(array))
    assert len(sectors) == count
    _assert_sectors_split_h(sectors, h)


def test_sectors_without_a_verified_symmetry_is_the_identity():
    rng = np.random.default_rng(5)
    pos, dip = random_geometry(rng, 9)
    asymmetric = EmitterArray(pos, dip)
    sectors = _sectors(*spectrum._symmetry_group(asymmetric))
    assert len(sectors) == 1 and np.array_equal(_dense_bases(sectors, 9)[0], np.eye(9))
    # a given h, even a defective one that a C2 site swap does not map onto itself, is one
    # sector with every site, and its rows are h itself
    defective = np.array([[-0.5j, 0.0], [1.0, -0.5j]])
    for h in (assemble_heff(asymmetric), defective):
        sectors, sites, rows = spectrum._orbit_rows(h)
        assert len(sectors) == 1 and np.array_equal(_dense_bases(sectors, len(h))[0],
                                                    np.eye(len(h)))
        assert np.array_equal(sites, np.arange(len(h))) and rows is h


PAIR_DIPOLES = {**{scheme: scheme for scheme in SYMMETRIC_SCHEMES}, "circular": CIRCULAR,
                "x": (1, 0, 0), "y": (0, 1, 0), "xy": (1, 1, 0), "tilted": (0.3, 0.4, 0.5)}


@pytest.mark.parametrize("n", [*range(1, 10), 25, 64, 101])
@pytest.mark.parametrize("dipole", PAIR_DIPOLES)
@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
def test_declared_pair_symmetries_match_the_geometric_search(arrangement, dipole, n):
    pair, h = _pair_and_h(arrangement, n, PAIR_DIPOLES[dipole])
    expected_perms, expected_signs = geometric_symmetry_group(pair, h)
    # the coordinate flips alone, never h, give the group of the residual search
    perms, signs = spectrum._symmetry_group(pair)
    assert np.array_equal(perms, expected_perms) and np.array_equal(signs, expected_signs)
    # a copy with the same sites and dipoles but no declaration has only the identity
    plain = EmitterArray(pair.positions, pair.dipoles, pair.groups, pair.ring_meta)
    perms, signs = spectrum._symmetry_group(plain)
    assert np.array_equal(perms, [np.arange(2 * n)]) and np.array_equal(signs, np.ones((1, 2 * n)))


# Three sites on the x axis about the origin, which the flip x -> -x maps onto themselves
# with sites 0 and 2 swapped; and three sites on which y -> -y swaps sites 0 and 1.
LINE_X = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
LINE_Y = np.array([[0.0, -1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("symmetries", [
    [((1, 1, 1), [1, 2, 0])],                                   # a 3-cycle
    [((0, 1, 1), [2, 1, 0])],                                   # a flip entry of 0
    [((1j, 1, 1), [2, 1, 0])],                                  # a flip entry of 1j
    [((-1, 1, 1), [2, 1, 3])],                                  # a site outside range(3)
    [((-1, 1, 1), [2, 1, -1])],                                 # a negative site
    [((-1, 1, 1), [2, 2, 0])],                                  # not a permutation
    [((-1, 1, 1), [2, 1, 0]), ((1, -1, 1), [1, 0, 2])],         # involutions that do not commute
], ids=["3-cycle", "flip-0", "flip-1j", "site-out-of-range", "negative-site", "not-a-permutation",
        "perms-do-not-commute"])
def test_emitter_array_rejects_a_symmetry_that_is_not_a_commuting_involution(symmetries):
    dipoles = np.tile([0.0, 0.0, 1.0], (3, 1))
    with pytest.raises(ValueError):
        EmitterArray(LINE_X, dipoles, symmetries=tuple(symmetries))
    if len(symmetries) == 2:          # each generator of the pair is accepted on its own
        for (flip, perm), positions in zip(symmetries, (LINE_X, LINE_Y)):
            kept = EmitterArray(positions, dipoles, symmetries=((flip, perm),)).symmetries
            assert len(kept) == 1
            assert np.array_equal(kept[0][0], flip) and np.array_equal(kept[0][1], perm)


def _ring_declarations(n, mirror=True):
    """What build_ring keeps: the mirror z -> -z, the mirror y -> -y (where site 0 is on it)
    and the half-turn for even n."""
    sites = np.arange(n)
    return ([((1, 1, -1), sites)] + ([((1, -1, 1), -sites % n)] if mirror else [])
            + ([((-1, -1, 1), (sites + n // 2) % n)] if n % 2 == 0 else []))


def _pair_declarations(arrangement, n):
    """What build_two_rings declares: sigma_y, and C2 for site-site pairs and n = 1."""
    sites, edge = np.arange(n), int(arrangement == "site-edge")
    return ([((1, -1, 1), np.r_[-sites % n, (-sites - edge) % n + n])]
            + ([((-1, -1, 1), np.r_[sites + n, sites])] if edge == 0 or n == 1 else []))


def _assert_kept(array, declarations, symmetric, group_size=None):
    """array keeps every declaration; with a C_N-symmetric scheme the dipoles keep them too,
    so that the group has 2^k elements (group_size where the dipoles break some), and its
    sectors split h."""
    assert len(array.symmetries) == len(declarations)
    for (flip, perm), (expected_flip, expected_perm) in zip(array.symmetries, declarations):
        assert np.array_equal(flip, expected_flip) and np.array_equal(perm, expected_perm)
    if symmetric:
        perms, signs = spectrum._symmetry_group(array)
        assert len(perms) == (group_size or 2 ** len(declarations))
        _assert_sectors_split_h(_sectors(perms, signs), assemble_heff(array))


@pytest.mark.parametrize("placement", [{}, {"angular_offset": 0.37},
                                       {"center": (0.31, -0.27, 0.73)}],
                         ids=["origin", "offset", "off-origin"])
@pytest.mark.parametrize("polarization", [*SYMMETRIC_SCHEMES, (0.3, 0.4, 0.5)])
@pytest.mark.parametrize("n", [*range(1, 10), 64, 101])
def test_every_ring_declaration_is_realised_and_kept(n, polarization, placement):
    ring = build_ring(n, 0.2, polarization, **placement)
    # turned by 0.37, site 0 is off the mirror y -> -y, which the ring drops; a one-site ring,
    # its site at the centre, keeps it, and its turned in-plane dipole breaks it: the group is
    # the mirror z -> -z alone
    turned = "angular_offset" in placement
    broken = turned and n == 1 and polarization in ("tangential", "radial")
    _assert_kept(ring, _ring_declarations(n, not turned or n == 1),
                 isinstance(polarization, str), group_size=2 if broken else None)


@pytest.mark.parametrize("polarization", [*SYMMETRIC_SCHEMES, (0.3, 0.4, 0.5)])
@pytest.mark.parametrize("n", [*range(1, 10), 64, 101])
@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
def test_every_pair_declaration_is_realised_and_kept(arrangement, n, polarization):
    pair = build_two_rings(arrangement, n, 0.2, 0.15, polarization)
    _assert_kept(pair, _pair_declarations(arrangement, n), isinstance(polarization, str))


def test_a_false_declaration_of_a_small_ring_far_from_the_origin_is_dropped():
    # the sites lie 1e-10 apart at x = 2000: 1e-12 of the largest |coordinate| (2e-9) would
    # let any site map pass, 1e-12 of the extent plus a few eps of 2000 does not
    ring = build_ring(6, 1e-10, "transverse", center=(2000, 0, 0))
    _assert_kept(ring, _ring_declarations(6), symmetric=False)
    swapped = ((-1, -1, 1), np.array([1, 0, 3, 2, 5, 4]))        # not the half-turn's map
    declared = EmitterArray(ring.positions, ring.dipoles, ring.groups, ring.ring_meta,
                            symmetries=(swapped,))
    assert declared.symmetries == ()
    perms, signs = spectrum._symmetry_group(declared)
    assert np.array_equal(perms, [np.arange(6)]) and np.array_equal(signs, np.ones((1, 6)))


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
    trace = fidelity_trace(pair, psi0, m=6, delta_theta=1.0, times=times)
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
    bases = _dense_bases(_sectors(*spectrum._symmetry_group(pair)), len(h))
    dense = np.linalg.cond(np.hstack([q @ np.linalg.eig(q.T @ h @ q)[1] for q in bases]))
    shapes = {"solve": [], "svd": []}
    for name in shapes:
        call = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *r, _call=call, _seen=shapes[name], **k:
                            _seen.append(np.shape(a)) or _call(a, *r, **k))
    trace = fidelity_trace(pair, psi0, m=6, delta_theta=1.0, times=np.linspace(0, 50, 40))
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


def _phases_row_by_row(times, vals):
    """The phase table by one product per row and one zeroed tail per column: the same
    arithmetic as _phases, written as loops."""
    table = np.empty((len(times), len(vals)), dtype=complex)
    steps, step_of = np.unique(np.diff(times), return_inverse=True)
    factors = np.exp(np.outer(steps, -1j * vals))
    anchors = transfer._ANCHOR_ROWS
    table[::anchors] = np.exp(np.outer(times[::anchors], -1j * vals))
    for row in range(1, len(times)):
        if row % anchors:
            table[row] = table[row - 1] * factors[step_of[row - 1]]
    for col in np.flatnonzero(np.imag(vals) < 0):
        limit = transfer._LOG_PHASE_FLOOR / np.imag(vals[col])
        table[np.searchsorted(times, limit, side="right"):, col] = 0.0
    return table


@pytest.mark.parametrize("times", [np.linspace(0.0, 1e4, 2000), np.linspace(0.0, 30.0, 130),
                                   [0.0, 1.0, 3.0], [0.0, 2.0, 2.0, 5.0], [4.0], []],
                         ids=["linspace", "short", "steps-1-2", "repeated", "one", "none"])
def test_phases_are_the_row_by_row_products(times):
    times = np.asarray(times, dtype=float)
    assert np.array_equal(transfer._phases(times, _VALS), _phases_row_by_row(times, _VALS))


def test_phases_of_anchor_aligned_rows_are_the_rows_of_the_whole_table():
    # an irregular grid with repeated times, on which the sub-sqrt(tiny) tails of the
    # radiant columns start inside blocks of rows
    steps = np.random.default_rng(5).uniform(0.05, 0.6, 899)
    steps[::97] = 0.0
    times = np.r_[0.0, np.cumsum(steps)]
    whole = transfer._phases(times, _VALS)
    decaying = np.imag(_VALS) < 0
    tails = np.searchsorted(times, transfer._LOG_PHASE_FLOOR / np.imag(_VALS[decaying]),
                            side="right")
    inside = tails[(tails > 0) & (tails < len(times))]
    assert np.count_nonzero(inside % transfer._ANCHOR_ROWS) >= 2
    for start in range(0, len(times), transfer._ANCHOR_ROWS):
        for stop in (start + 1, start + transfer._ANCHOR_ROWS, start + 100, len(times)):
            assert np.array_equal(transfer._phases(times[start:stop], _VALS), whole[start:stop])


def test_time_blocks_tile_the_grid_from_anchors():
    # about spectrum._BLOCK_ENTRIES phase entries per block, in whole anchor periods
    assert [(s.start, s.stop) for s in transfer._time_blocks(1000, 200)] == [
        (0, 320), (320, 640), (640, 960), (960, 1000)]
    for steps, modes in [(0, 5), (1, 5), (5000, 80), (200_000, 2000), (130, 10**6)]:
        spans = transfer._time_blocks(steps, modes)
        bounds = [0] + [s.stop for s in spans]
        assert [s.start for s in spans] == bounds[:-1] and bounds[-1] == steps
        assert all(s.start % transfer._ANCHOR_ROWS == 0 for s in spans)
        assert all(s.stop - s.start <= max(transfer._ANCHOR_ROWS, spectrum._BLOCK_ENTRIES // modes)
                   for s in spans)


@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (3, 5)])
@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
def test_fidelity_across_time_blocks_matches_the_oracles(arrangement, blocks, extra):
    t_steps = blocks * _block_rows(40) + extra
    # dtheta = 2.5 takes the momentum path at n = 40, dtheta = 0.3 its explicit targets
    args = (40, 0.1, "tangential", 6, [0.15], [0.3, 2.5])
    kwargs = dict(t_max=None, t_steps=t_steps, arrangement=arrangement)
    scan = fidelity_scan(*args, **kwargs)
    for oracle in (fidelity_scan_from_dense_eig, fidelity_scan_from_states):
        expected_f, expected_t = oracle(*args, **kwargs)
        assert np.max(np.abs(scan.max_fidelity - expected_f)) < 1e-10
        assert np.max(np.abs(scan.t_at_max - expected_t)) < 1e-10 * np.max(expected_t)
    # the trace against the textbook dense eig time axis
    pair, h = _pair_and_h(arrangement, 40, "tangential")
    psi0 = gaussian_packet(pair, 0, farthest_site(pair, 0), m=6, delta_theta=1.0)
    times = np.linspace(0.0, 200.0, t_steps)
    trace = fidelity_trace(pair, psi0, m=6, delta_theta=1.0, times=times)
    vals, vecs = np.linalg.eig(h)
    states = (np.exp(np.outer(times, -1j * vals)) * np.linalg.solve(vecs, psi0)) @ vecs.T
    targets = np.column_stack([gaussian_packet(pair, 1, k, -6, 1.0) for k in range(40)])
    overlaps = np.abs(states @ np.conj(targets))
    lit = overlaps.max(axis=1) > 1e-8
    assert np.count_nonzero(lit) == len(times) - 1
    assert trace.argmax_site[0] == -1 and np.all(trace.argmax_site[1:] >= 0)
    assert np.array_equal(trace.argmax_site[lit], np.argmax(overlaps, axis=1)[lit])
    assert np.max(np.abs(trace.fidelity - overlaps.max(axis=1))) < 1e-10


def test_fidelity_scan_memory_does_not_grow_with_the_number_of_steps():
    import tracemalloc
    peaks = []
    for t_steps in (2000, 20000):
        tracemalloc.start()
        try:
            fidelity_scan(40, 0.1, "tangential", 10, [0.15], [0.3, 1.0, 2.5], t_steps=t_steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the (t, widths) fidelities and the times grow, 32 B a step; the blocks do not
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_times_are_rejected_when_the_grid_is_given(bad):
    pair, h = _pair_and_h("site-edge", 6, "tangential")
    psi0 = gaussian_packet(pair, 0, farthest_site(pair, 0), m=2, delta_theta=0.5)
    times = np.array([0.0, 1.0, bad])
    *_, blocks = transfer._evolve(pair, psi0[:, None], np.eye(12), [slice(None)])
    with pytest.raises(ValueError, match="finite"):
        blocks(times)                    # before the first block is asked for
    with pytest.raises(ValueError, match="finite"):
        propagate(h, psi0, times)
    with pytest.raises(ValueError, match="finite"):
        fidelity_trace(pair, psi0, m=2, delta_theta=0.5, times=times)
    with pytest.raises(ValueError, match="t_max must be finite"):
        fidelity_scan(6, 0.1, "tangential", 2, [0.2], [0.5], t_max=float(bad), t_steps=10)


@pytest.mark.parametrize("t_steps", [0, -3])
def test_fidelity_scan_without_time_steps_is_rejected(t_steps):
    with pytest.raises(ValueError, match="t_steps must be at least 1"):
        fidelity_scan(6, 0.1, "tangential", 2, [0.2], [0.5], t_max=10.0, t_steps=t_steps)


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
        sectors = _sectors(*spectrum._symmetry_group(pair))
        for sector, q in zip(sectors, _dense_bases(sectors, 2 * n)):
            # each orbit gathers at most |G| distinct sites
            assert np.max(sector[3]) <= {"site-site": 4, "site-edge": 2}[arrangement]
            assert np.max(np.abs(_project(sector, x) - q.T @ x)) < 1e-15


def test_threads_is_an_upper_bound_on_the_pool_size(monkeypatch):
    # the pool class is patched to record its size and start at most 3 workers:
    # 10**6 processes are never asked of the system
    sizes = []

    class Recording(concurrent.futures.process.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(min(max_workers, 3), **kwargs)

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(spectrum, "_FORK_WORK", 0)   # fork these small chain scans too
    min_decay_scan("chain", [4, 5, 6], 3.0, threads=10**6)
    fidelity_scan(6, 0.1, "tangential", 2, [0.1, 0.2, 0.3], [1.0], t_max=5.0, t_steps=10,
                  threads=10**6)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(3, cpus or 1)
    assert sizes == ([workers] * 2 if workers > 1 and spectrum._blas_threads() else [])
    sizes.clear()
    # one worker, from threads or from tasks: no pool
    min_decay_scan("chain", [4, 5, 6], 3.0, threads=1)
    min_decay_scan("chain", [40], 3.0, threads=2)
    fidelity_scan(6, 0.1, "tangential", 2, [0.1], [1.0], t_max=5.0, t_steps=10, threads=2)
    assert sizes == []


@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
def test_fidelity_scan_on_workers_is_the_in_process_scan(monkeypatch, arrangement):
    monkeypatch.setattr(spectrum, "_FORK_WORK", 0)   # fork these small scans too
    args = (8, 0.1, "tangential", 2, [0.1, 0.2, 0.3], [0.3, 1.0])
    serial = fidelity_scan(*args, t_steps=100, arrangement=arrangement, threads=1)
    assert multiprocessing.active_children() == []
    pooled = fidelity_scan(*args, t_steps=100, arrangement=arrangement, threads=2)
    assert multiprocessing.active_children() == []
    for field in fields(FidelityScan):
        assert np.array_equal(getattr(serial, field.name), getattr(pooled, field.name))


@pytest.mark.parametrize("n, widths, t_steps, forks", [
    (6, 2, 100, False), (25, 2, 100, False), (10, 8, 2000, False), (100, 2, 100, True),
    (40, 8, 20000, True),   # (2n)^3 alone is 1.5e6: the overlaps carry this one past the rule
])
def test_fidelity_scan_work_counts_the_eig_and_the_overlaps(monkeypatch, n, widths, t_steps,
                                                            forks):
    stated = []

    class Stated(Exception):
        pass

    def record(fn, items, threads, work):   # the stated work, without running the scan
        stated.append(work)
        raise Stated

    monkeypatch.setattr(transfer, "_pool_map", record)
    with pytest.raises(Stated):
        fidelity_scan(n, 0.1, "tangential", 2, [0.1, 0.2, 0.3], np.linspace(0.3, 1.0, widths),
                      t_steps=t_steps, threads=2)
    assert stated == [[(2 * n) ** 3 + t_steps * widths * 2 * n * n / 32] * 3]
    assert (sum(stated[0]) >= spectrum._FORK_WORK) == forks


def test_fidelity_scan_above_the_fork_work_forks(monkeypatch):
    # 100-site rings over three separations state 3 (200^3 + 100 * 2 * 200 * 100 / 32) = 2.4e7
    # >= _FORK_WORK: two workers wherever there are two CPUs, fork and the BLAS setter, and the
    # in-process fields
    sizes = []

    class Recording(concurrent.futures.process.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    args = (100, 0.1, "tangential", 2, [0.1, 0.2, 0.3], [0.3, 1.0])
    serial = fidelity_scan(*args, t_steps=100, threads=1)
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", Recording)
    pooled = fidelity_scan(*args, t_steps=100, threads=2)
    assert multiprocessing.active_children() == []
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    forks = ((cpus or 1) >= 2 and spectrum._blas_threads() is not None
             and "fork" in multiprocessing.get_all_start_methods())
    assert sizes == ([2] if forks else [])
    for field in fields(FidelityScan):
        assert np.array_equal(getattr(serial, field.name), getattr(pooled, field.name))


@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
def test_mirror_image_sites_tie_to_the_lower_index(arrangement):
    # an m = 0 packet from the farthest site is sigma_y-symmetric, so ring-2 sites k and their
    # mirror images give equal overlaps; round-off must not decide which one is reported
    pair, h = _pair_and_h(arrangement, 10, "transverse")
    psi0 = gaussian_packet(pair, 0, farthest_site(pair, 0), m=0, delta_theta=1.0)
    times = np.linspace(0.0, default_horizon(pair, 0), 2000)
    trace = fidelity_trace(pair, psi0, m=0, delta_theta=1.0, times=times, h=h)
    angles = pair.ring_meta[1].angles
    mirror = np.argmin(np.abs(np.exp(-1j * angles)[:, None] - np.exp(1j * angles)), axis=1)
    lit = trace.argmax_site >= 0
    assert np.count_nonzero(lit) == len(times) - 1
    assert np.all(trace.argmax_site[lit] <= mirror[trace.argmax_site[lit]])


MOMENTUM_WIDTHS = [0.05, 0.3, 2.5]


@pytest.mark.parametrize("n", [1, 2, 7, 12, 40, 101])
@pytest.mark.parametrize("dipole", ["transverse", "tangential", "radial", "tilted"])
@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
def test_momentum_targets_match_the_explicit_targets_and_the_oracles(arrangement, dipole, n):
    polarization = PAIR_DIPOLES[dipole]
    pair, h = _pair_and_h(arrangement, n, polarization)
    eps, m, times = np.finfo(float).eps, 3, np.linspace(0.0, 30.0, 200)
    basis, cols, factors = transfer._target_factors(pair, m, MOMENTUM_WIDTHS)
    momentum = [r is not None for r in factors]
    # the narrowest packet keeps every momentum, so its explicit targets; from n = 40 the
    # widest one takes the momentum path, and from n = 101 also dtheta = 0.3
    assert momentum == [False, n >= 101, n >= 40]
    for c, r, dt in zip(cols, factors, MOMENTUM_WIDTHS):
        factored = basis[:, c] if r is None else basis[:, c] @ r
        assert np.max(np.abs(factored - transfer._targets(pair, m, dt))) <= 2 * n * eps
    # every overlap against the explicit targets on the same factorization: n eps cond(V)
    site = farthest_site(pair, 0)
    psi0s = np.column_stack([gaussian_packet(pair, 0, site, m, dt) for dt in MOMENTUM_WIDTHS])
    method, cond, _, _, blocks = transfer._evolve(pair, psi0s, basis, cols)
    overlaps = [np.vstack(parts) for parts in zip(*(o for _, o in blocks(times)))]   # per width
    explicit = np.hstack([transfer._targets(pair, m, dt) for dt in MOMENTUM_WIDTHS])
    *_, blocks = transfer._evolve(pair, psi0s, explicit,
                                  [slice(j * n, (j + 1) * n) for j in range(3)])
    expected = [np.vstack(parts) for parts in zip(*(o for _, o in blocks(times)))]
    assert method == "eig"
    for got, r, want in zip(overlaps, factors, expected):
        got = got if r is None else got @ r
        assert got.shape == want.shape == (len(times), n)
        assert np.max(np.abs(got - want)) <= 2 * n * eps * cond
    # the scan against both oracles: the same floor, plus the eps |lambda| t_max that the
    # round-off of each eigenvalue adds to its phase over the horizon in every method
    args = (n, 0.1, polarization, m, [0.15], MOMENTUM_WIDTHS)
    kwargs = dict(t_max=times[-1], t_steps=len(times), arrangement=arrangement)
    scan = fidelity_scan(*args, **kwargs)
    tol = 2 * n * eps * scan.conds[0] * (1.0 + times[-1] * np.abs(h).sum(axis=1).max())
    for oracle in (fidelity_scan_from_states, fidelity_scan_from_dense_eig):
        expected_f, expected_t = oracle(*args, **kwargs)
        assert np.max(np.abs(scan.max_fidelity - expected_f)) <= tol
        assert np.array_equal(scan.t_at_max, expected_t)


def _spy_couplings(monkeypatch):
    """Record the number of rows and columns of each _couplings call of transfer, and of
    assemble_heff (which builds all of h) through spectrum."""
    calls = []
    for module in (transfer, spectrum):
        couplings = module._couplings

        def spy(array, rows=None, cols=None, _couplings=couplings):
            calls.append((array.n if rows is None else len(rows),
                          array.n if cols is None else len(cols)))
            return _couplings(array, rows, cols)
        monkeypatch.setattr(module, "_couplings", spy)
    return calls


@pytest.mark.parametrize("n", [6, 7, 40, 41])
@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
def test_no_eig_path_separation_builds_all_rows_of_h(monkeypatch, arrangement, n):
    args = (n, 0.1, "tangential", 2, [0.1, 0.2], [0.5, 2.5])
    expected = {t_max: fidelity_scan_from_states(*args, t_max=t_max, t_steps=150,
                                                 arrangement=arrangement)
                for t_max in (None, 25.0)}
    pair, h = _pair_and_h(arrangement, n, "tangential")
    calls = _spy_couplings(monkeypatch)
    # the orbit representatives: one per sigma_y and C2 orbit of a site-site pair, all in
    # ring 1; one per sigma_y orbit of a site-edge pair, about half of them in ring 2
    reps = (n + 2) // 2 if arrangement == "site-site" else n + 1
    for t_max, (expected_f, expected_t) in expected.items():
        scan = fidelity_scan(*args, t_max=t_max, t_steps=150, arrangement=arrangement)
        assert scan.methods.tolist() == ["eig", "eig"]
        # per separation the representatives' rows are built once: they are factored, and a
        # default horizon is read from them
        assert calls == [(reps, 2 * n)] * 2
        calls.clear()
        assert np.max(np.abs(scan.max_fidelity - expected_f)) < 1e-12
        assert np.max(np.abs(scan.t_at_max - expected_t)) < 1e-12 * np.max(expected_t)
    # fidelity_trace without h builds the representatives' rows, with h none; a given h is
    # factored densely, so both traces are held to the propagate(h) overlaps
    psi0 = gaussian_packet(pair, 0, farthest_site(pair, 0), m=2, delta_theta=1.0)
    times = np.linspace(0.0, 40.0, 100)
    trace = fidelity_trace(pair, psi0, 2, 1.0, times)
    assert calls == [(reps, 2 * n)]
    calls.clear()
    given = fidelity_trace(pair, psi0, 2, 1.0, times, h=h)
    assert calls == []
    targets = np.column_stack([gaussian_packet(pair, 1, k, -2, 1.0) for k in range(n)])
    overlaps = np.abs(propagate(h, psi0, times).states @ np.conj(targets)).max(axis=1)
    for fidelity in (trace.fidelity, given.fidelity):
        assert np.max(np.abs(fidelity - overlaps)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 40, 41])
@pytest.mark.parametrize("polarization", SYMMETRIC_SCHEMES)
@pytest.mark.parametrize("arrangement", ["site-site", "site-edge"])
def test_pair_lambda_from_the_orbit_rows_is_the_inter_ring_coupling(arrangement, polarization, n):
    pair, h = _pair_and_h(arrangement, n, polarization)
    _, sites, rows = spectrum._orbit_rows(pair)
    coupling = ring_ring_coupling(pair)
    # relative to (1/N) sum |h_ij| over the inter-ring block, the round-off scale of both sums:
    # symmetry makes some lambda_{m,-m} zero (site-edge, even N, m = N/2), with no relative error
    scale = np.abs(h[:n, n:]).sum() / n
    for m in {0, 1, -1, n // 2, n // 2 + n + 1, -n - 3}:         # the last two wrap
        want = coupling.at(m, -m)
        lam, magnitudes = transfer._pair_lambda(pair, m, sites, rows)
        assert abs(lam - want) <= 1e-13 * scale
        assert abs(magnitudes - scale) <= 1e-13 * scale


@pytest.mark.parametrize("x", [0.15, 3.0])
@pytest.mark.parametrize("polarization", SYMMETRIC_SCHEMES)
@pytest.mark.parametrize("n", [2, 6, 40, 64, 100])
def test_a_coupling_that_symmetry_cancels_has_no_default_horizon(n, polarization, x):
    # site-edge, even N, m = N/2: lambda_{m,-m} is 0 but for round-off (8e-17 at N = 6, once a
    # horizon of 1e17, and 8.3e17 from the public horizon at transverse N = 6, x = 0.15 while it
    # had no floor); the radiant m = 0 keeps its horizon, that of the inter-ring block path
    pair = build_two_rings("site-edge", n, 0.1, x, polarization)
    _, sites, rows = spectrum._orbit_rows(pair)
    for horizon in (lambda m: transfer._orbit_horizon(pair, m, sites, rows),
                    lambda m: default_horizon(pair, m)):
        with pytest.raises(ValueError, match="zero inter-ring coupling"):
            horizon(n // 2)
        assert horizon(0) == pytest.approx(
            20.0 * np.pi / abs(np.real(ring_ring_coupling(pair).at(0, 0))), rel=1e-10)


def test_fidelity_and_fidelity_scan_take_one_horizon(tmp_path, monkeypatch):
    # the CLI's fidelity, a scan at the same separation and the public default_horizon read the
    # same rows, so the same horizon, bit for bit, and none builds the inter-ring block of
    # ring_ring_coupling
    from dipolerings import cli
    n, x, m, t_steps = 12, 0.15, 3, 200
    horizons, orbit_horizon = [], transfer._orbit_horizon

    def recorded(*args):
        horizons.append(orbit_horizon(*args))
        return horizons[-1]

    def forbidden(*args):
        raise AssertionError("ring_ring_coupling on a default-horizon path")
    for module in (transfer, cli):
        monkeypatch.setattr(module, "_orbit_horizon", recorded)
        monkeypatch.setattr(module, "ring_ring_coupling", forbidden)
    calls = _spy_couplings(monkeypatch)
    out = tmp_path / "trace.json"
    assert cli.main(["fidelity", "--set", "geometry.arrangement=site-edge",
                     "--set", "geometry.polarization=tangential", "--set", f"geometry.n={n}",
                     "--set", f"geometry.x={x}", "--set", f"physics.m={m}",
                     "--set", f"physics.t_steps={t_steps}", "--format", "json",
                     "--out", str(out)]) == 0
    scan = fidelity_scan(n, 0.1, "tangential", m, [x], [0.3, 1.0], t_steps=t_steps,
                         arrangement="site-edge")
    assert calls == [(n + 1, 2 * n)] * 2
    assert len(horizons) == 2 and horizons[0] == horizons[1]
    assert np.all(np.isin(scan.t_at_max, np.linspace(0.0, horizons[0], t_steps)))
    system = build_two_rings("site-edge", n, 0.1, x, "tangential")
    last = json.loads(out.read_text())["trace"][-1]["t"]
    assert default_horizon(system, m) == horizons[0] == last


def test_a_widths_peak_does_not_depend_on_the_widths_scanned_with_it():
    # n = 40: dtheta 0.05 and 0.3 keep their explicit targets, 2.5 takes the momentum path
    n, args = 40, (0.1, "tangential", 3, [0.1, 0.2])
    basis, cols, factors = transfer._target_factors(build_two_rings("site-site", n, 0.1, 0.1),
                                                    3, MOMENTUM_WIDTHS)
    assert [r is not None for r in factors] == [False, False, True]
    for t_max in (None, 25.0):
        together = fidelity_scan(n, *args, MOMENTUM_WIDTHS, t_max=t_max, t_steps=300)
        for j, dt in enumerate(MOMENTUM_WIDTHS):
            alone = fidelity_scan(n, *args, [dt], t_max=t_max, t_steps=300)
            assert np.max(np.abs(alone.max_fidelity[:, 0] - together.max_fidelity[:, j])) <= 1e-13
            assert np.array_equal(alone.t_at_max[:, 0], together.t_at_max[:, j])


def test_one_phase_product_per_time_block_for_any_number_of_widths(monkeypatch):
    products, phases = [], transfer._phases

    class Counted(np.ndarray):
        def __matmul__(self, other):
            products.append(other.shape[1])
            return np.asarray(self) @ other
    monkeypatch.setattr(transfer, "_phases", lambda times, vals: phases(times, vals).view(Counted))
    n, t_steps = 12, 2 * _block_rows(12) + 5                 # three time blocks
    for widths in ([1.0], [0.3, 1.0, 2.5]):
        fidelity_scan(n, 0.1, "tangential", 2, [0.15], widths, t_max=20.0, t_steps=t_steps)
        assert len(products) == 3 and len(set(products)) == 1
        products.clear()


def test_orbit_rows_are_the_rows_of_the_full_h():
    for arrangement in ("site-site", "site-edge"):
        for n in (1, 2, 7, 40):
            for polarization in ("transverse", "tangential", "radial", (0.3, 0.4, 0.5)):
                pair, h = _pair_and_h(arrangement, n, polarization)
                _, sites, rows = spectrum._orbit_rows(pair)
                assert np.array_equal(rows, h[sites])
                # the inter-ring block built alone is the full h's, bit for bit, also a
                # one-site ring's 1 x 1 block
                alone, given = (ring_ring_coupling(pair, a).lambda_mm for a in (None, h))
                assert np.array_equal(alone, given)


def _false_declarations(n):
    """Declarations on a site-site pair of n-site rings that are no symmetry of its h: sigma_y
    with the site-edge mirror's site map, whose ring-2 image is one site off; the pair's
    sigma_y site map under the half-turn's flip; and sigma_y of the pair with dipoles
    (1, 1, 0), which sigma_y turns into (1, -1, 0), no +-1 image."""
    pair = build_two_rings("site-site", n, 0.1, 0.15, "tangential")
    sites = np.arange(n)
    shifted = ((1, -1, 1), np.r_[-sites % n, (-sites - 1) % n + n])
    turned = ((-1, -1, 1), pair.symmetries[0][1])
    tilted = build_two_rings("site-site", n, 0.1, 0.15, (1, 1, 0))
    return {"shifted-mirror": (pair, shifted), "wrong-flip": (pair, turned),
            "no-dipole-image": (tilted, tilted.symmetries[0])}


@pytest.mark.parametrize("generator", ["shifted-mirror", "wrong-flip", "no-dipole-image"])
def test_a_declared_generator_that_no_flip_realises_is_dropped(generator):
    n, m, dt = 10, 3, 1.0
    pair, (flip, perm) = _false_declarations(n)[generator]
    declared = EmitterArray(pair.positions, pair.dipoles, pair.groups, pair.ring_meta,
                            symmetries=((flip, perm),))
    h = assemble_heff(declared)
    if generator == "no-dipole-image":
        # the positions realise the flip, so the array keeps it; the dipoles do not
        assert len(declared.symmetries) == 1
        turned, image = np.multiply(flip, pair.dipoles), pair.dipoles[perm]
        assert min(np.abs(turned - image).max(), np.abs(turned + image).max()) > 0.1
    else:
        assert declared.symmetries == ()       # the positions do not realise it
    # with the best sign per site the site map is no symmetry of h, so a sector built on it
    # would be wrong
    sign = np.where(np.real(np.sum(np.conj(pair.dipoles[perm]) * np.multiply(flip, pair.dipoles),
                                   axis=1)) < 0, -1.0, 1.0)
    assert np.max(np.abs(np.outer(sign, sign) * h[np.ix_(perm, perm)] - h)) > 1e-3
    perms, signs = spectrum._symmetry_group(declared)
    assert np.array_equal(perms, [np.arange(2 * n)]) and np.array_equal(signs, np.ones((1, 2 * n)))
    psi0 = gaussian_packet(declared, 0, farthest_site(declared, 0), m, dt)
    times = np.linspace(0.0, 60.0, 200)
    trace = fidelity_trace(declared, psi0, m, dt, times)
    targets = np.column_stack([gaussian_packet(declared, 1, k, -m, dt) for k in range(n)])
    overlaps = np.abs(propagate(h, psi0, times).states @ np.conj(targets))
    assert np.max(np.abs(trace.fidelity - overlaps.max(axis=1))) < 1e-12
