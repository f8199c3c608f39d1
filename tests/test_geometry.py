import numpy as np
import pytest

from dipolerings.emfield import unit_dipole
from dipolerings.geometry import (EmitterArray, build_chain, build_ring, build_two_rings,
                                  ring_radius)


def test_ring_radius_examples():
    assert abs(ring_radius(4, 1.0) - 1.0 / np.sqrt(2.0)) < 1e-15
    assert abs(ring_radius(6, 1.0) - 1.0) < 1e-15


PER_SITE_DIPOLE = {
    "transverse": lambda theta: (0.0, 0.0, 1.0),
    "tangential": lambda theta: (-np.sin(theta), np.cos(theta), 0.0),
    "radial": lambda theta: (np.cos(theta), np.sin(theta), 0.0),
}


@pytest.mark.parametrize("offset", [0.0, 0.37])
@pytest.mark.parametrize("polarization",
                         ["transverse", "tangential", "radial", "Radial", (1, 1, 0), "helical"])
def test_tangential_dipoles(polarization, offset):
    """Each scheme's dipole at site j, at angle 2*pi*j/n + offset, by its per-site
    formula; a scheme name in any case; a fixed vector on every site; no other name."""
    if polarization == "helical":
        with pytest.raises(ValueError, match="unknown polarization scheme"):
            build_ring(10, 0.1, polarization, angular_offset=offset)
        return
    ring = build_ring(10, 0.1, polarization, angular_offset=offset)
    meta = ring.ring_meta[0]
    assert np.allclose(meta.angles, offset + 2 * np.pi * np.arange(10) / 10, rtol=0, atol=1e-15)
    if isinstance(polarization, str):
        assert meta.scheme == polarization.lower()
        for j, theta in enumerate(meta.angles):
            expected = np.array(PER_SITE_DIPOLE[meta.scheme](theta))
            assert np.linalg.norm(ring.dipoles[j] - expected) < 1e-14
    else:
        assert meta.scheme == "fixed"
        assert np.array_equal(ring.dipoles, np.tile(unit_dipole(polarization), (10, 1)))


def test_nearest_neighbor_chords():
    for n in (3, 7, 12):
        ring = build_ring(n, 0.25, "transverse")
        pos = ring.positions
        for j in range(n):
            chord = np.linalg.norm(pos[(j + 1) % n] - pos[j])
            assert abs(chord - 0.25) < 1e-12


def test_rotational_symmetry():
    n = 9
    ring = build_ring(n, 0.2, "radial")
    phi = 2 * np.pi / n
    rot = np.array([[np.cos(phi), -np.sin(phi), 0],
                    [np.sin(phi), np.cos(phi), 0],
                    [0, 0, 1]])
    rotated_pos = ring.positions @ rot.T
    rotated_dip = ring.dipoles @ rot.T
    # rotation by one step maps site j onto site j+1
    assert np.allclose(rotated_pos, np.roll(ring.positions, -1, axis=0), atol=1e-12)
    assert np.allclose(rotated_dip, np.roll(ring.dipoles, -1, axis=0), atol=1e-12)


def test_single_emitter_ring():
    ring = build_ring(1, 0.5, "transverse", center=(1.0, 2.0, 0.0))
    assert ring.n == 1
    assert np.allclose(ring.positions[0], [1.0, 2.0, 0.0])


def test_chain():
    chain = build_chain(2, 0.5)
    assert np.allclose(chain.positions, [[0, 0, 0], [0.5, 0, 0]])
    single = build_chain(1, 0.3)
    assert single.n == 1
    # the lambda = 3 d setting used in the subradiance comparison
    chain = build_chain(20, 1.0 / 3.0)
    assert abs(chain.positions[-1, 0] - 19.0 / 3.0) < 1e-12


def test_site_site_two_rings():
    n, d, x = 10, 0.1, 0.15
    system = build_two_rings("site-site", n, d, x)
    r = ring_radius(n, d)
    c1, c2 = system.ring_meta[0].center, system.ring_meta[1].center
    assert abs(np.linalg.norm(c2 - c1) - (2 * r + x)) < 1e-12
    # facing sites are separated by exactly x along the center line
    gap = np.linalg.norm(system.positions[n] - system.positions[0])
    assert abs(gap - x) < 1e-12
    assert np.allclose(system.positions[:, 2], 0.0)
    # mirror symmetry about the center line (y -> -y)
    mirrored = system.positions * np.array([1.0, -1.0, 1.0])
    for p in mirrored:
        assert np.min(np.linalg.norm(system.positions - p, axis=1)) < 1e-12


def test_site_edge_two_rings():
    n, d, x = 10, 0.1, 0.15
    system = build_two_rings("site-edge", n, d, x)
    r = ring_radius(n, d)
    # edge midpoint of ring 2 faces ring 1's site 1 at distance x
    mid = 0.5 * (system.positions[n] + system.positions[2 * n - 1])
    assert abs(np.linalg.norm(mid - system.positions[0]) - x) < 1e-12
    assert abs(mid[1]) < 1e-12
    c2 = system.ring_meta[1].center
    assert abs(c2[0] - (r + x + r * np.cos(np.pi / n))) < 1e-12


def test_groups_partition():
    system = build_two_rings("site-site", 4, 0.1, 0.2)
    assert [len(g) for g in system.groups] == [4, 4]
    with pytest.raises(ValueError):
        EmitterArray(system.positions, system.dipoles, groups=[np.arange(4)])


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_ring(0, 0.1)
    with pytest.raises(ValueError):
        build_ring(5, -0.1)
    with pytest.raises(ValueError):
        build_chain(3, 0.0)
    with pytest.raises(ValueError):
        build_two_rings("site-site", 5, 0.1, 0.0)
    with pytest.raises(ValueError):
        build_two_rings("stacked", 5, 0.1, 0.1)
    # checked before any geometry: ring_radius(0, d) and ring_radius(n, 0) divide by zero
    with pytest.raises(ValueError):
        build_two_rings("site-site", 0, 0.1, 0.1)
    with pytest.raises(ValueError):
        build_two_rings("site-edge", 5, 0.0, 0.1)
