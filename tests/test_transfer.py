from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from dipolerings import transfer
from dipolerings.geometry import EmitterArray, TwoRingConfig, build_two_rings
from dipolerings.spectrum import assemble_heff, canonical_m_range, decay_matrix, spin_wave_state
from dipolerings.transfer import (default_horizon, eta_map, farthest_site, fidelity_scan,
                                  fidelity_trace, gaussian_packet, propagate,
                                  ring_ring_coupling, single_ring_eigenvalues)
from oracles import fidelity_scan_from_states, random_geometry, rk4_propagate


@pytest.fixture(scope="module")
def pair10():
    return build_two_rings(TwoRingConfig("site-site", 10, 0.1, 0.15, "tangential"))


@pytest.fixture(scope="module")
def h10(pair10):
    return assemble_heff(pair10)


def test_coupling_shape_and_group_check(pair10, h10):
    cpl = ring_ring_coupling(pair10, h10)
    assert cpl.lambda_mm.shape == (10, 10)
    assert list(cpl.m1_values) == list(canonical_m_range(10))
    bad = EmitterArray(pair10.positions, pair10.dipoles,
                       groups=[np.arange(3), np.arange(3, 20)])
    with pytest.raises(ValueError):
        ring_ring_coupling(bad)


def test_coupling_vanishes_at_large_separation():
    near = ring_ring_coupling(build_two_rings(TwoRingConfig("site-site", 6, 0.1, 0.1)))
    far = ring_ring_coupling(build_two_rings(TwoRingConfig("site-site", 6, 0.1, 60.0)))
    very_far = ring_ring_coupling(build_two_rings(TwoRingConfig("site-site", 6, 0.1, 600.0)))
    assert np.max(np.abs(far.lambda_mm)) < 1e-2 * np.max(np.abs(near.lambda_mm))
    # radiative tail falls off at least as 1/r
    assert np.max(np.abs(very_far.lambda_mm)) < 0.15 * np.max(np.abs(far.lambda_mm))


def test_mirror_symmetry_selection(pair10, h10):
    cpl = ring_ring_coupling(pair10, h10)
    for m1 in (-2, 1, 3):
        for m2 in (-4, 0, 2):
            assert abs(abs(cpl.at(m1, m2)) - abs(cpl.at(-m1, -m2))) < 1e-10


def test_site_edge_exact_null():
    system = build_two_rings(TwoRingConfig("site-edge", 10, 0.1, 0.15, "tangential"))
    cpl = ring_ring_coupling(system)
    assert abs(cpl.at(5, 5)) < 1e-12


def test_eta_map_nonnegative_and_zero_with_j(pair10, h10):
    cpl = ring_ring_coupling(pair10, h10)
    lams = single_ring_eigenvalues(10, 0.1, "tangential")
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
    assert trace.squared is not None
    assert np.allclose(trace.squared, trace.fidelity**2)


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
    pair = build_two_rings(TwoRingConfig("site-site", 1, 0.1, 0.15, "tangential"))
    psi = gaussian_packet(pair, ring, 0, m=3, delta_theta=0.5)
    site = pair.groups[ring][0]
    assert abs(abs(psi[site]) - 1.0) < 1e-15
    assert np.count_nonzero(psi) == 1


def _count_eig(monkeypatch):
    """Count np.linalg.eig calls from any thread (list.append is atomic under the GIL)."""
    calls, eig = [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(1) or eig(a))
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
        assert len(calls) == 3
        assert np.max(np.abs(scan.max_fidelity - expected_f)) < 1e-12
        assert np.max(np.abs(scan.t_at_max - expected_t)) < 1e-12 * np.max(expected_t)


def test_fidelity_trace_factors_once_and_reports_its_path(monkeypatch, pair10, h10):
    psi0 = gaussian_packet(pair10, 0, farthest_site(pair10, 0), m=4, delta_theta=1.0)
    cond = np.linalg.cond(np.linalg.eig(h10)[1])
    calls = _count_eig(monkeypatch)
    times = np.linspace(0.0, 40.0, 300)
    trace = fidelity_trace(pair10, psi0, m=4, delta_theta=1.0, times=times, h=h10)
    assert len(calls) == 1
    assert trace.method == "eig" and trace.cond == cond and 1.0 <= cond < 1e8
    with pytest.raises(FrozenInstanceError):
        trace.method = "ode"


def test_defective_h_takes_the_ode_fallback():
    # h = -i/2 + N with N nilpotent: one eigenvector, so cond(V) is huge and
    # psi(t) = e^{-t/2} (1, -i t) exactly
    pair = build_two_rings(TwoRingConfig("site-site", 1, 0.1, 0.15, "tangential"))
    h = np.array([[-0.5j, 0.0], [1.0, -0.5j]])
    psi0 = gaussian_packet(pair, 0, 0, m=0, delta_theta=1.0)
    times = np.linspace(0.0, 12.0, 61)
    prop = propagate(h, psi0, times)
    assert prop.method == "ode"
    decay = np.exp(-times / 2)
    assert np.max(np.abs(prop.states - np.column_stack([decay, -1j * times * decay]))) < 1e-8
    trace = fidelity_trace(pair, psi0, m=0, delta_theta=1.0, times=times, h=h)
    assert trace.method == "ode" and trace.cond > 1e8
    assert np.max(np.abs(trace.fidelity - times * decay)) < 1e-8


def test_fidelity_scan_ode_fallback_matches_eig(monkeypatch):
    args = (5, 0.1, "tangential", 2, [0.1, 0.2], [0.5, 1.5])
    eig_scan = fidelity_scan(*args, t_max=20.0, t_steps=120)
    integrations, solve_ivp = [], transfer.solve_ivp
    monkeypatch.setattr(transfer, "solve_ivp",
                        lambda *a, **k: integrations.append(1) or solve_ivp(*a, **k))
    monkeypatch.setattr(np.linalg, "cond", lambda a: 1e9)
    ode_scan = fidelity_scan(*args, t_max=20.0, t_steps=120)
    assert len(integrations) == 4
    assert np.max(np.abs(ode_scan.max_fidelity - eig_scan.max_fidelity)) < 1e-7
    assert np.max(np.abs(ode_scan.t_at_max - eig_scan.t_at_max)) < 1e-7
