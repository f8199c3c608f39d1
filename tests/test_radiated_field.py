"""The blocked radiated-field kernel against the per-tensor Green's sum."""

import tracemalloc

import numpy as np
import pytest

from dipolerings import fieldmap
from dipolerings.emfield import (BLOCK_POINTS, SingularityError, green_tensor, radiated_field,
                                unit_dipole)
from dipolerings.fieldmap import GridSpec, intensity_map
from dipolerings.geometry import EmitterArray, build_ring
from dipolerings.spectrum import spin_wave_state

D = 0.3


def tensor_sum(array, state, points):
    """sum_j c_j G(r - r_j) . p_j, one green_tensor per point and emitter."""
    return np.array([sum(c * green_tensor(r - pos) @ p
                         for c, pos, p in zip(state, array.positions, array.dipoles))
                     for r in points])


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=n) + 1j * rng.normal(size=n)
    return state / np.linalg.norm(state)


def sample_points(array, count, seed):
    """`count` points: random ones in a box around the ring, and (if room) one
    point 1e-4 d from an emitter and one in the far field at |r| = 50 at the end,
    so a map of more than BLOCK_POINTS points has them in its last block."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, (count, 3))
    special = [array.positions[3] + 1e-4 * D * np.array([0.6, 0.0, 0.8]),
               50.0 * np.array([0.48, 0.6, 0.64])]
    k = min(count, len(special))
    points[count - k:] = special[:k]
    return points


@pytest.mark.parametrize("pol", ["transverse", "tangential", "radial"])
@pytest.mark.parametrize("count", [1, 2, 100, BLOCK_POINTS, BLOCK_POINTS + 1])
def test_radiated_field_matches_green_tensor_sum(pol, count):
    ring = build_ring(8, D, pol)
    state = random_state(ring.n, seed=count)
    points = sample_points(ring, count, seed=count)
    field, _ = radiated_field(points, ring.positions, ring.dipoles, state)
    # every 16th point and the last three: both sides of each block edge, and
    # the near and far points
    check = sorted({*range(0, count, 16), *range(max(count - 3, 0), count)})
    expected = tensor_sum(ring, state, points[check])
    err = np.linalg.norm(field[check] - expected, axis=1) / np.linalg.norm(expected, axis=1)
    assert field.shape == (count, 3)
    assert err.max() <= 1e-12


@pytest.mark.parametrize("dipole", [np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0),
                                    unit_dipole([0.3 - 0.2j, 0.5j, 1.0 + 0.4j])],
                         ids=["circular", "complex"])
def test_complex_dipoles_and_amplitudes_match_green_tensor_sum(dipole):
    # the amplitudes are folded into the dipoles: with complex p and c, a
    # conjugate or a dropped imaginary part would show
    ring = build_ring(9, D, "tangential")
    array = EmitterArray(ring.positions, np.tile(dipole, (ring.n, 1)))
    state = random_state(array.n, seed=5)
    points = sample_points(array, BLOCK_POINTS + 2, seed=5)
    field, _ = radiated_field(points, array.positions, array.dipoles, state)
    # both sides of the block edge, every 64th point, and the near and far points
    check = sorted({*range(0, len(points), 64), *range(BLOCK_POINTS - 3, len(points))})
    expected = tensor_sum(array, state, points[check])
    err = np.linalg.norm(field[check] - expected, axis=1) / np.linalg.norm(expected, axis=1)
    assert err.max() <= 1e-12

def test_nearest_distance_is_the_brute_force_minimum_exactly():
    ring = build_ring(12, D, "radial")
    points = sample_points(ring, BLOCK_POINTS + 7, seed=3)
    _, nearest = radiated_field(points, ring.positions, ring.dipoles, random_state(12, 3))
    brute = np.linalg.norm(points[:, None, :] - ring.positions[None, :, :], axis=-1).min(axis=1)
    assert np.array_equal(nearest, brute)


def test_point_on_an_emitter_in_a_later_block_raises():
    ring = build_ring(8, D, "transverse")
    points = sample_points(ring, BLOCK_POINTS + 5, seed=9)
    points[BLOCK_POINTS + 2] = ring.positions[6]
    with pytest.raises(SingularityError):
        radiated_field(points, ring.positions, ring.dipoles, random_state(8, 9))


def test_blocked_mask_radius_is_the_pairwise_minimum(monkeypatch):
    # blocks of 4 emitters cover the self-distance exclusion across block edges
    rng = np.random.default_rng(21)
    pos = rng.uniform(-1.0, 1.0, (11, 3))
    array = EmitterArray(pos, np.tile([0.0, 0.0, 1.0], (11, 1)))
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    np.fill_diagonal(dist, np.inf)
    expected = float(np.min(dist)) / 4.0
    assert fieldmap._mask_radius(array) == expected
    monkeypatch.setattr(fieldmap, "BLOCK_POINTS", 4)
    assert fieldmap._mask_radius(array) == expected


def test_intensity_map_memory_is_independent_of_points_times_emitters():
    # the (P, N, 3) separations of a 201^2 map over 50 emitters would be 48 MB alone
    ring = build_ring(50, 0.4, "tangential")
    grid = GridSpec.xy(0.1, ((-2.0, 2.0), (-2.0, 2.0)), 201)
    state = spin_wave_state(ring, 5)
    tracemalloc.start()
    try:
        fmap = intensity_map(ring, state, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fmap.values.shape == (201, 201)
    assert peak < 30e6
