import numpy as np
import pytest

from dipolerings.emfield import (K0, SingularityError, green_tensor, pair_coupling,
                                 unit_dipole)
from dipolerings.emfield import projected_green
from oracles import two_atom_parallel, two_atom_perpendicular

ZHAT = np.array([0.0, 0.0, 1.0])
XHAT = np.array([1.0, 0.0, 0.0])


def test_parallel_dipole_has_no_transverse_part():
    r = 0.37
    g = green_tensor([r, 0, 0]) @ XHAT
    x = K0 * r
    expected = np.exp(1j * x) / (4 * np.pi * r) * 2.0 * (1.0 / x**2 - 1j / x)
    assert abs(g[0] - expected) < 1e-14
    assert abs(g[1]) < 1e-15 and abs(g[2]) < 1e-15


def test_imaginary_part_limit_at_origin():
    # Im{p.G.p} -> k0/(6 pi) as r -> 0, which pins Gamma_ii = Gamma0
    r = 1e-3 / K0
    for p in (ZHAT, XHAT, unit_dipole([1, 1j, 0])):
        val = np.imag(np.conj(p) @ green_tensor([0, 0.6 * r, 0.8 * r]) @ p)
        assert abs(val - K0 / (6 * np.pi)) / (K0 / (6 * np.pi)) < 1e-5


def test_half_wavelength_perpendicular_gamma():
    pc = pair_coupling([0, 0, 0], ZHAT, [0.5, 0, 0], ZHAT)
    assert abs(pc.gamma - (-3.0 / (2.0 * np.pi**2))) < 1e-14


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 1.7])
def test_two_atom_closed_forms(r):
    perp = pair_coupling([0, 0, 0], ZHAT, [r, 0, 0], ZHAT)
    ow, gw = two_atom_perpendicular(r)
    assert abs(perp.omega - ow) < 1e-12 and abs(perp.gamma - gw) < 1e-12
    par = pair_coupling([0, 0, 0], XHAT, [r, 0, 0], XHAT)
    ow, gw = two_atom_parallel(r)
    assert abs(par.omega - ow) < 1e-12 and abs(par.gamma - gw) < 1e-12


def test_reciprocity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = rng.uniform(-2, 2, 3)
        if np.linalg.norm(r) < 1e-3:
            continue
        g = green_tensor(r)
        assert np.linalg.norm(g - green_tensor(-r).T) < 1e-12 * np.linalg.norm(g)


def test_pair_swap_symmetric_for_real_dipoles():
    r1, r2 = np.array([0.1, -0.2, 0.3]), np.array([0.4, 0.1, -0.2])
    p1 = unit_dipole([1, 2, -1])
    p2 = unit_dipole([0, 1, 1])
    a = pair_coupling(r1, p1, r2, p2)
    b = pair_coupling(r2, p2, r1, p1)
    assert abs(a.omega - b.omega) < 1e-13
    assert abs(a.gamma - b.gamma) < 1e-13


def test_near_field_scaling():
    r = 0.05 / K0
    o1 = pair_coupling([0, 0, 0], ZHAT, [r, 0, 0], ZHAT).omega
    o2 = pair_coupling([0, 0, 0], ZHAT, [r / 2, 0, 0], ZHAT).omega
    assert abs(o2 / o1 - 8.0) / 8.0 < 0.05


def test_far_field_falloff():
    near = pair_coupling([0, 0, 0], ZHAT, [1.0, 0, 0], ZHAT)
    far = pair_coupling([0, 0, 0], ZHAT, [200.0, 0, 0], ZHAT)
    assert abs(far.omega) < abs(near.omega) / 100
    assert abs(far.gamma) < 1e-2


def test_h_consistency():
    pc = pair_coupling([0, 0, 0], ZHAT, [0.3, 0, 0], ZHAT)
    assert pc.h == pc.omega - 0.5j * pc.gamma


def test_singularities():
    with pytest.raises(SingularityError):
        green_tensor([0, 0, 0])
    with pytest.raises(SingularityError):
        pair_coupling([0.2, 0, 0], ZHAT, [0.2, 0, 0], ZHAT)


def test_dipole_normalization_enforced():
    with pytest.raises(ValueError):
        pair_coupling([0, 0, 0], [0, 0, 2.0], [0.3, 0, 0], ZHAT)
    p = unit_dipole([3, 4j, 0])
    assert abs(np.real(np.vdot(p, p)) - 1.0) < 1e-14


def test_projected_green_matches_green_tensor():
    # the vectorized kernel against the scalar reference, pair by pair: the real
    # identity as left projector gives the field vector G.p, a dipole the coupling
    rng = np.random.default_rng(11)
    sep = rng.uniform(-1.5, 1.5, (40, 3))
    p = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    q = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    field = projected_green(sep[:, None, :], np.eye(3), p[:, None, :])
    scalar = projected_green(sep, q, p)
    for k in range(40):
        g = green_tensor(sep[k])
        assert np.linalg.norm(field[k] - g @ p[k]) < 1e-13 * np.linalg.norm(g @ p[k])
        assert abs(scalar[k] - np.conj(q[k]) @ g @ p[k]) < 1e-13 * abs(np.conj(q[k]) @ g @ p[k])
