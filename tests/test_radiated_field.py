"""The blocked radiated-field kernel against the per-tensor Green's sum."""

import tracemalloc

import numpy as np
import pytest

from dipolerings import emfield, fieldmap
from dipolerings.emfield import SingularityError, green_tensor, radiated_field, unit_dipole
from dipolerings.fieldmap import GridSpec, intensity_map
from dipolerings.geometry import EmitterArray, build_ring
from dipolerings.spectrum import _one_blas_thread, spin_wave_state

D = 0.3
# Points per block of radiated_field against the 8 emitters of the block-edge ring.
EDGE = emfield._block_points(8)


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
    so a map of more than one block of points has them in its last block."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, (count, 3))
    special = [array.positions[3] + 1e-4 * D * np.array([0.6, 0.0, 0.8]),
               50.0 * np.array([0.48, 0.6, 0.64])]
    k = min(count, len(special))
    points[count - k:] = special[:k]
    return points


@pytest.mark.parametrize("pol", ["transverse", "tangential", "radial"])
@pytest.mark.parametrize("count", [1, 2, 100, EDGE, EDGE + 1])
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
    edge = emfield._block_points(array.n)
    points = sample_points(array, edge + 2, seed=5)
    field, _ = radiated_field(points, array.positions, array.dipoles, state)
    # both sides of the block edge, every 64th point, and the near and far points
    check = sorted({*range(0, len(points), 64), *range(edge - 3, len(points))})
    expected = tensor_sum(array, state, points[check])
    err = np.linalg.norm(field[check] - expected, axis=1) / np.linalg.norm(expected, axis=1)
    assert err.max() <= 1e-12


def test_nearest_distance_is_the_brute_force_minimum_exactly():
    ring = build_ring(12, D, "radial")
    points = sample_points(ring, emfield._block_points(ring.n) + 7, seed=3)
    _, nearest = radiated_field(points, ring.positions, ring.dipoles, random_state(12, 3))
    brute = np.linalg.norm(points[:, None, :] - ring.positions[None, :, :], axis=-1).min(axis=1)
    assert np.array_equal(nearest, brute)


def test_point_on_an_emitter_in_a_later_block_raises():
    ring = build_ring(8, D, "transverse")
    points = sample_points(ring, EDGE + 5, seed=9)
    points[EDGE + 2] = ring.positions[6]
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
    monkeypatch.setattr(emfield, "_BLOCK_PAIRS", 4 * 11)
    monkeypatch.setattr(emfield, "_MIN_BLOCK_POINTS", 1)
    assert emfield._block_points(array.n) == 4
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


def test_radiated_field_peak_memory_is_bounded_by_the_block():
    # N = 1000, P = 2000: a block is 1000 x _block_points(1000) pairs, and the work arrays
    # take 96 B a pair (8 real and 2 complex (N, B) arrays).  Blocks of 1024 points would
    # take 24.6 MB for the (3, N, B) separations alone.
    ring = build_ring(1000, 0.1, "tangential")
    points = sample_points(ring, 2000, seed=4)
    state = random_state(ring.n, seed=4)
    pairs = ring.n * emfield._block_points(ring.n)
    bound = 2 * 96 * pairs + 64 * len(points)
    tracemalloc.start()
    try:
        field, _ = radiated_field(points, ring.positions, ring.dipoles, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.shape == (2000, 3)
    assert peak < bound < 24.6e6


def test_no_emitters_radiate_no_field():
    points = sample_points(build_ring(8, D, "radial"), 5, seed=1)
    field, nearest = radiated_field(points, np.empty((0, 3)), np.empty((0, 3)), np.empty(0))
    assert field.shape == (5, 3) and field.dtype == complex and not field.any()
    assert nearest.shape == (5,) and np.all(nearest == np.inf)
    field, _ = radiated_field(points, np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 2)))
    assert field.shape == (5, 3, 2) and not field.any()


# (_BLOCK_PAIRS, _MIN_BLOCK_POINTS) for one point per block and for one block per call, each
# held to the default blocks on one BLAS thread, as the CLI runs (with more, OpenBLAS can round
# a row of a matrix product by the number of rows)
BUDGETS = {"one-point": (1, 1), "whole": (10 ** 9, 1)}


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("n, count", [(4, 5), (12, 2 * emfield._block_points(12) + 1),
                                      (50, 700)])
def test_radiated_field_bits_do_not_depend_on_the_blocks(monkeypatch, budget, n, count):
    # (12, 2 B + 1): the default blocks end in one lone point
    ring = build_ring(n, D, "tangential")
    points = sample_points(ring, count, seed=n)
    state = random_state(n, seed=n)
    with _one_blas_thread():
        field, nearest = radiated_field(points, ring.positions, ring.dipoles, state)
        monkeypatch.setattr(emfield, "_BLOCK_PAIRS", BUDGETS[budget][0])
        monkeypatch.setattr(emfield, "_MIN_BLOCK_POINTS", BUDGETS[budget][1])
        assert emfield._block_points(n) == (1 if budget == "one-point" else 10 ** 9 // n)
        got_field, got_nearest = radiated_field(points, ring.positions, ring.dipoles, state)
    assert np.array_equal(got_field, field)
    assert np.array_equal(got_nearest, nearest)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("n, grid", [(11, GridSpec.xy(0.1, ((-1.0, 1.0),) * 2, 41)),
                                     (50, GridSpec.xz(0.0, ((-2.0, 2.0),) * 2, 45))])
def test_intensity_map_bits_do_not_depend_on_the_blocks(monkeypatch, budget, n, grid):
    ring = build_ring(n, D if n < 50 else 0.4, "tangential")
    state = spin_wave_state(ring, 3)
    with _one_blas_thread():
        fmap = intensity_map(ring, state, grid)
        monkeypatch.setattr(emfield, "_BLOCK_PAIRS", BUDGETS[budget][0])
        monkeypatch.setattr(emfield, "_MIN_BLOCK_POINTS", BUDGETS[budget][1])
        got = intensity_map(ring, state, grid)
    assert np.array_equal(got.values, fmap.values)
    assert np.array_equal(got.mask, fmap.mask)


@pytest.mark.parametrize("budget", [None, *BUDGETS])
@pytest.mark.parametrize("count", [1, 2, EDGE, EDGE + 1, 2 * EDGE + 1])
def test_states_side_by_side_are_each_state_alone_to_the_bit(monkeypatch, budget, count):
    # (N, S) amplitudes share every geometric pass; each column is the one-state field, at the
    # default blocks (a lone last point at 2 EDGE + 1) and at one point or one block per call
    ring = build_ring(8, D, "radial")
    points = sample_points(ring, count, seed=count)
    states = np.column_stack([random_state(8, seed) for seed in range(3)])
    if budget is not None:
        monkeypatch.setattr(emfield, "_BLOCK_PAIRS", BUDGETS[budget][0])
        monkeypatch.setattr(emfield, "_MIN_BLOCK_POINTS", BUDGETS[budget][1])
    with _one_blas_thread():
        field, nearest = radiated_field(points, ring.positions, ring.dipoles, states)
        alone = [radiated_field(points, ring.positions, ring.dipoles, c) for c in states.T]
    assert field.shape == (count, 3, 3)
    for k, (column, column_nearest) in enumerate(alone):
        assert column.shape == (count, 3)
        assert np.array_equal(field[:, :, k], column) and np.array_equal(nearest, column_nearest)
