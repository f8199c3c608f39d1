import numpy as np
import pytest

from dipolerings import fieldmap
from dipolerings.emfield import SingularityError, green_tensor, radiated_field
from dipolerings.fieldmap import GridSpec, intensity_map
from dipolerings.geometry import EmitterArray, build_ring
from dipolerings.spectrum import spin_wave_state
from oracles import field_amplitude, green_tensor_field


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
        expected = np.sum(np.abs(green_tensor_field(ring, state, point)) ** 2)
        assert abs(fmap.values.reshape(-1)[k] - expected) <= 1e-12 * expected


def test_intensity_map_raises_on_grid_point_at_emitter():
    pair = build_ring(2, 1.0)   # site 0 at (0.5, 0, 0), a point of the grids below
    for plane in ("xy", "xz"):
        grid = getattr(GridSpec, plane)(0.0, ((-1.0, 1.0), (-1.0, 1.0)), 101)
        # the point is only an image of its orbit's representative (-0.5, 0, 0), which lies
        # 6e-17 off site 1 (sin(pi) != 0), so the kernel alone never sees a zero distance
        hits = [np.flatnonzero(np.all(grid.points() == r, axis=1)).tolist() for r in pair.positions]
        assert hits == [[75 * 101 + 50], []]
        with pytest.raises(SingularityError):
            intensity_map(pair, spin_wave_state(pair, 0), grid)


def _random_state(n):
    rng = np.random.default_rng(n)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


# (build_ring arguments, spin wave m or None for random amplitudes, grid, (points, states) of the
# one field-kernel call).  Before the mirror y -> -y was declared the kernel took every point of
# the odd-ring, random-state and mirror-only maps, half of the even-ring xy and off-centre xz
# maps and the same quarter of the centre xz and yz maps, one state each.
ORBIT_CASES = {
    "xy-even-half-turn": ((50, 0.4, "tangential"), 5, GridSpec.xy(0.13, ((-2.0, 2.0),) * 2, 201),
                          (101 ** 2, 2)),
    "xy-even-plane-of-the-ring": ((8, 0.3, "radial"), 2, GridSpec.xy(0.0, ((-1.0, 1.0),) * 2, 41),
                                  (21 ** 2, 2)),
    "xz-centre": ((12, 0.3, "transverse"), 3, GridSpec.xz(0.0, ((-1.0, 1.0),) * 2, 73),
                  (37 ** 2, 1)),
    "yz-centre": ((12, 0.3, "radial"), 2, GridSpec.yz(0.0, ((-1.0, 1.0),) * 2, 41), (21 ** 2, 1)),
    "xz-off-centre-mirror": ((12, 0.3, "tangential"), -4,
                             GridSpec.xz(0.1, ((-1.0, 1.0), (-0.5, 0.5)), 41), (21 * 21, 2)),
    "yz-off-centre-mirror": ((12, 0.3, "transverse"), 4,
                             GridSpec.yz(0.1, ((-1.0, 1.0), (-0.5, 0.5)), 41), (21 * 21, 2)),
    "xy-odd-ring": ((11, 0.3, "tangential"), 3, GridSpec.xy(0.1, ((-1.0, 1.0),) * 2, 41),
                    (41 * 21, 2)),
    "xy-odd-plane-of-the-ring": ((11, 0.3, "transverse"), -2,
                                 GridSpec.xy(0.0, ((-1.0, 1.0),) * 2, 41), (41 * 21, 2)),
    # turned by pi/(2n), site 0 is off the mirror y -> -y: the half-turn alone, as before
    "xy-turned-off-the-mirror": ((12, 0.3, "tangential", (0.0, 0.0, 0.0), np.pi / 24), 3,
                                 GridSpec.xy(0.1, ((-1.0, 1.0),) * 2, 41), ((41 ** 2 + 1) // 2, 1)),
    # m = 0 and m = n/2 are their own mirror images
    "xy-m-0": ((12, 0.3, "tangential"), 0, GridSpec.xy(0.1, ((-1.0, 1.0),) * 2, 41), (21 ** 2, 1)),
    "xy-m-half": ((12, 0.3, "radial"), 6, GridSpec.xy(0.1, ((-1.0, 1.0),) * 2, 41), (21 ** 2, 1)),
    "xy-random-state": ((12, 0.3, "tangential"), None, GridSpec.xy(0.1, ((-1.0, 1.0),) * 2, 41),
                        (21 ** 2, 4)),
    "xy-odd-random-state": ((9, 0.3, "radial"), None, GridSpec.xy(0.1, ((-1.0, 1.0),) * 2, 41),
                            (41 * 21, 2)),
    "xy-off-centre-ring": ((12, 0.3, "tangential", (0.2, 0.0, 0.0)), 3,
                           GridSpec.xy(0.1, ((-1.0, 1.0),) * 2, 41), (41 ** 2, 1)),
    # x from -1 to 1.2: no flip of x maps the grid onto itself, and y -> -y alone folds it
    "xy-lopsided-grid": ((12, 0.3, "tangential"), 3,
                         GridSpec.xy(0.1, ((-1.0, 1.2), (-1.0, 1.0)), 41), (41 * 21, 2)),
    # a vertical plane at 53 degrees to x: the half-turn and z -> -z map it onto itself, and
    # y -> -y, which also reverses its first axis, maps it onto another plane
    "tilted-vertical-plane": ((12, 0.3, "tangential"), 3,
                              GridSpec((0, 0, 0), (0.6, 0.8, 0), (0, 0, 1), (-1.0, 1.0),
                                       (-1.0, 1.0), 41, 41), (21 ** 2, 1)),
}


@pytest.fixture
def kernel_calls(monkeypatch):
    """(points, states) of each radiated_field call that intensity_map makes."""
    received = []

    def spy(points, positions, dipoles, amplitudes):
        received.append((len(points), 1 if np.ndim(amplitudes) == 1 else np.shape(amplitudes)[1]))
        return radiated_field(points, positions, dipoles, amplitudes)

    monkeypatch.setattr(fieldmap, "radiated_field", spy)
    return received


def _every_point(array, state, grid):
    field, nearest = radiated_field(grid.points(), array.positions, array.dipoles, state)
    shape = (grid.res1, grid.res2)
    return np.sum(np.abs(field) ** 2, axis=1).reshape(shape), nearest.reshape(shape)


@pytest.mark.parametrize("case", ORBIT_CASES)
def test_intensity_map_on_symmetry_orbits_matches_every_point(case, kernel_calls):
    args, m, grid, evaluated = ORBIT_CASES[case]
    ring = build_ring(*args)
    state = _random_state(ring.n) if m is None else spin_wave_state(ring, m)
    expected, nearest = _every_point(ring, state, grid)
    fmap = intensity_map(ring, state, grid)
    assert kernel_calls == [evaluated]
    assert np.max(np.abs(fmap.values - expected)) <= 1e-12 * np.max(expected)
    assert np.array_equal(fmap.mask, nearest <= fieldmap._mask_radius(ring))


def test_intensity_map_without_ring_metadata_evaluates_every_point(kernel_calls):
    ring = build_ring(12, 0.3, "tangential")
    plain = EmitterArray(ring.positions, ring.dipoles)
    state = spin_wave_state(ring, 3)
    grid = GridSpec.xy(0.1, ((-1.0, 1.0),) * 2, 21)
    assert np.array_equal(intensity_map(plain, state, grid).values, _every_point(ring, state, grid)[0])
    assert kernel_calls == [(21 ** 2, 1)]


@pytest.mark.parametrize("case", ORBIT_CASES)
def test_intensity_map_folds_a_hand_built_ring_as_it_folds_the_ring(case, kernel_calls):
    # the fold reads the declarations alone: ring metadata plays no part
    args, m, grid, evaluated = ORBIT_CASES[case]
    ring = build_ring(*args)
    plain = EmitterArray(ring.positions, ring.dipoles, symmetries=ring.symmetries)
    assert plain.ring_meta == [None] and len(plain.symmetries) == len(ring.symmetries)
    state = _random_state(ring.n) if m is None else spin_wave_state(ring, m)
    expected = intensity_map(ring, state, grid).values
    values = intensity_map(plain, state, grid).values
    assert kernel_calls == [evaluated, evaluated]
    assert np.max(np.abs(values - expected)) <= 1e-12 * np.max(expected)


def test_intensity_map_folds_flips_that_turn_some_dipoles_over(kernel_calls):
    # dipoles z, z, z, -z on a square: y -> -y and the half-turn map site 1 onto site 3 with
    # its dipole turned over and the others as they are, so each image state takes a sign per
    # site (c'_pi(i) = s_i c_i), which no phase of the whole state makes up for
    ring = build_ring(4, 0.3, "transverse")
    array = EmitterArray(ring.positions, ring.dipoles * np.array([1, 1, 1, -1])[:, None],
                         symmetries=ring.symmetries)
    state = _random_state(4)
    grid = GridSpec.xy(0.1, ((-1.0, 1.0),) * 2, 21)
    expected, nearest = _every_point(array, state, grid)
    fmap = intensity_map(array, state, grid)
    assert kernel_calls == [(11 ** 2, 4)]
    assert np.max(np.abs(fmap.values - expected)) <= 1e-12 * np.max(expected)
    assert np.array_equal(fmap.mask, nearest <= fieldmap._mask_radius(array))


def test_intensity_map_raises_on_an_emitter_that_only_a_mirror_image_hits():
    # site 1 of a triangle is the grid point (0, 4); its image under y -> -y, the point (0, 0),
    # is the orbit's representative and lies off site 2 by the round-off of cos and sin, so the
    # kernel at the representatives alone sees no zero distance
    ring = build_ring(3, 1.0, "tangential")
    (x1, y1, _), site2 = ring.positions[1], ring.positions[2]
    grid = GridSpec((0.0, 0.0, 0.0), (1, 0, 0), (0, 1, 0), (x1, -x1), (-y1, y1), 5, 5)
    points = grid.points().reshape(5, 5, 3)
    assert np.array_equal(points[0, 4], ring.positions[1])
    assert not np.array_equal(points[0, 0], site2) and np.allclose(points[0, 0], site2)
    with pytest.raises(SingularityError):
        intensity_map(ring, spin_wave_state(ring, 1), grid)
