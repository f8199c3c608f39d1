import numpy as np
import pytest

from dipolerings.emfield import SingularityError, green_tensor
from dipolerings.fieldmap import GridSpec, intensity_map
from dipolerings.geometry import EmitterArray, build_ring
from dipolerings.spectrum import spin_wave_state
from oracles import field_amplitude


@pytest.fixture(scope="module")
def ring():
    return build_ring(10, 0.4, "tangential")


def test_zero_state_zero_field(ring):
    field = field_amplitude(ring, np.zeros(10), (0.3, 0.2, 0.1))
    assert np.allclose(field, 0.0)


def test_single_emitter_field_is_green_tensor():
    arr = EmitterArray([[0, 0, 0]], [[0, 0, 1]])
    c = 0.3 - 0.4j
    point = np.array([0.7, 0, 0])
    field = field_amplitude(arr, [c], point)
    assert np.allclose(field, c * green_tensor(point) @ [0, 0, 1], atol=1e-14)


def test_linearity(ring):
    psi1 = spin_wave_state(ring, 2)
    psi2 = spin_wave_state(ring, -1)
    a, b = 0.6 + 0.1j, -0.3 + 0.8j
    pt = (0.2, -0.5, 0.3)
    combined = field_amplitude(ring, a * psi1 + b * psi2, pt)
    parts = a * field_amplitude(ring, psi1, pt) + b * field_amplitude(ring, psi2, pt)
    assert np.allclose(combined, parts, atol=1e-13)


def test_point_on_emitter_raises(ring):
    with pytest.raises(SingularityError):
        field_amplitude(ring, spin_wave_state(ring, 0), ring.positions[0])


def test_rotational_covariance(ring):
    psi = spin_wave_state(ring, 3)
    phi = 2 * np.pi / 10
    rot = np.array([[np.cos(phi), -np.sin(phi), 0],
                    [np.sin(phi), np.cos(phi), 0],
                    [0, 0, 1]])
    for pt in ([0.3, 0.1, 0.2], [0.9, -0.4, 0.0]):
        i0 = np.sum(np.abs(field_amplitude(ring, psi, pt)) ** 2)
        i1 = np.sum(np.abs(field_amplitude(ring, psi, rot @ np.asarray(pt))) ** 2)
        assert abs(i1 - i0) < 1e-10 * abs(i0)


def test_opposite_m_maps_are_mirror_images(ring):
    grid = GridSpec.xy(0.0, ((-1.0, 1.0), (-1.0, 1.0)), 41)
    plus = intensity_map(ring, spin_wave_state(ring, 3), grid)
    minus = intensity_map(ring, spin_wave_state(ring, -3), grid)
    # reflection through the xz-plane flips the v (y) axis
    assert np.allclose(minus.values, plus.values[:, ::-1], rtol=1e-9, atol=1e-12)


def test_far_field_scaling(ring):
    psi = spin_wave_state(ring, 1)
    direction = np.array([0.3, 0.2, 0.93])
    direction /= np.linalg.norm(direction)
    i50 = np.sum(np.abs(field_amplitude(ring, psi, 50.0 * direction)) ** 2) * 50.0**2
    i100 = np.sum(np.abs(field_amplitude(ring, psi, 100.0 * direction)) ** 2) * 100.0**2
    assert abs(i100 - i50) / i50 < 0.05


def test_grid_spec_shapes_and_validation():
    grid = GridSpec.xz(0.25, ((-1, 1), (-2, 2)), 11)
    pts = grid.points()
    assert pts.shape == (121, 3)
    assert np.allclose(pts[:, 1], 0.25)
    with pytest.raises(ValueError):
        GridSpec.xy(0.0, ((-1, 1), (-1, 1)), 1)
    with pytest.raises(ValueError):
        GridSpec.xy(0.0, ((1, 1), (-1, 1)), 5)


def test_mask_flags_near_emitter_points(ring):
    grid = GridSpec.xy(0.0, ((-0.8, 0.8), (-0.8, 0.8)), 81)
    fmap = intensity_map(ring, spin_wave_state(ring, 5), grid)
    assert fmap.mask.any()
    unmasked = fmap.values[~fmap.mask]
    assert np.all(np.isfinite(unmasked)) and np.all(unmasked >= 0.0)
    # masked points sit within d/4 of some emitter
    pts = grid.points().reshape(81, 81, 3)
    flagged = pts[fmap.mask]
    for p in flagged[:10]:
        dmin = np.min(np.linalg.norm(ring.positions - p, axis=1))
        assert dmin <= 0.1 + 1e-12


def test_subradiant_center_null(ring):
    grid = GridSpec.xy(0.0, ((-1.0, 1.0), (-1.0, 1.0)), 81)
    fmap = intensity_map(ring, spin_wave_state(ring, 5), grid)
    center = fmap.values[40, 40]
    peak = np.max(np.where(fmap.mask, 0.0, fmap.values))
    assert center < 1e-2 * peak


def test_radiant_m1_center_maximum(ring):
    # the in-plane-polarized modes with |m| = 1 radiate onto the ring axis and
    # produce the central interference maximum
    grid = GridSpec.xy(0.0, ((-1.0, 1.0), (-1.0, 1.0)), 81)
    fmap = intensity_map(ring, spin_wave_state(ring, 1), grid)
    center = fmap.values[40, 40]
    assert center >= np.max(fmap.values[38:43, 38:43]) - 1e-12


def test_subradiant_mode_evanescent_out_of_plane(ring):
    radius = ring.ring_meta[0].radius
    z = 1.5 * radius
    pt_sub = (radius, 0.0, z)
    i_sub = np.sum(np.abs(field_amplitude(ring, spin_wave_state(ring, 5), pt_sub)) ** 2)
    i_rad = np.sum(np.abs(field_amplitude(ring, spin_wave_state(ring, 1), pt_sub)) ** 2)
    assert i_sub < i_rad


def test_intensity_map_matches_green_tensor_sum(ring):
    # complex amplitudes on every site, summed one scalar Green's tensor at a time
    rng = np.random.default_rng(3)
    state = rng.normal(size=10) + 1j * rng.normal(size=10)
    grid = GridSpec.xz(0.07, ((-1.0, 1.0), (-0.5, 0.5)), 9)
    fmap = intensity_map(ring, state, grid)
    for k, point in enumerate(grid.points()):
        field = sum(c * green_tensor(point - r) @ p
                    for c, r, p in zip(state, ring.positions, ring.dipoles))
        expected = np.sum(np.abs(field) ** 2)
        assert abs(fmap.values.reshape(-1)[k] - expected) <= 1e-12 * expected


def test_intensity_map_raises_on_grid_point_at_emitter():
    pair = build_ring(2, 1.0)   # site 0 at (0.5, 0, 0), a point of the grid below
    grid = GridSpec.xy(0.0, ((-1.0, 1.0), (-1.0, 1.0)), 101)
    with pytest.raises(SingularityError):
        intensity_map(pair, spin_wave_state(pair, 0), grid)
