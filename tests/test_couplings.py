"""Blocks of h from the one coupling builder, spectrum._couplings, against the full matrix."""

import tracemalloc

import numpy as np
import pytest

from dipolerings import spectrum
from dipolerings.emfield import SingularityError, projected_green
from dipolerings.geometry import EmitterArray, build_chain, build_ring, build_two_rings
from dipolerings.spectrum import _couplings, _orbit_rows, assemble_heff
from dipolerings.transfer import ring_ring_coupling
from oracles import random_geometry


def two_rings(arrangement, n):
    return build_two_rings(arrangement, n, 0.1, 0.15, "tangential")


GEOMETRIES = {
    "ring-transverse": lambda: build_ring(11, 0.2, "transverse"),
    "ring-tangential": lambda: build_ring(12, 0.1, "tangential"),
    "ring-radial": lambda: build_ring(9, 0.3, "radial"),
    "ring-fixed-dipole": lambda: build_ring(10, 0.2, np.array([1.0, 0.0, 0.0])),
    "chain": lambda: build_chain(13, 1.0 / 3.0),
    "site-site": lambda: two_rings("site-site", 10),
    "site-edge": lambda: two_rings("site-edge", 12),
    # full h of 128^2 entries: past the size where numpy reuses temporaries in place
    "site-edge-64": lambda: two_rings("site-edge", 64),
    "random": lambda: EmitterArray(*random_geometry(np.random.default_rng(7), 14)),
}


def blocks(array):
    """(rows, cols) pairs: blocks holding self pairs, single rows, and for two rings
    the inter-ring block."""
    n = array.n
    every = np.arange(n)
    found = [(every, every), (every[:1], every), (every[n // 2:n // 2 + 1], every),
             (every[1:n:2], every[::3]), (every[::-1][:5], every[2:7])]
    if len(array.groups) == 2:
        idx1, idx2 = (np.asarray(g) for g in array.groups)
        found += [(idx1, idx2), (idx2, idx1), (idx1[:1], idx2)]
    return found


@pytest.mark.parametrize("name", GEOMETRIES)
def test_block_equals_the_slice_of_the_full_matrix(name):
    array = GEOMETRIES[name]()
    h = assemble_heff(array)
    for rows, cols in blocks(array):
        block = _couplings(array, rows, cols)
        assert np.array_equal(block, h[np.ix_(rows, cols)])


@pytest.mark.parametrize("arrangement, n", [("site-site", 10), ("site-edge", 12),
                                            ("site-edge", 64)])
def test_ring_ring_coupling_from_the_block_equals_the_one_from_h(arrangement, n):
    pair = two_rings(arrangement, n)
    assert np.array_equal(ring_ring_coupling(pair).lambda_mm,
                          ring_ring_coupling(pair, assemble_heff(pair)).lambda_mm)


def test_projected_green_does_not_depend_on_the_batch_size():
    rng = np.random.default_rng(11)
    sep = rng.normal(size=(200, 200, 3))
    p_left = np.exp(1j * rng.normal(size=(200, 1, 3))) / np.sqrt(3.0)
    p_right = np.exp(1j * rng.normal(size=(1, 200, 3))) / np.sqrt(3.0)
    whole = projected_green(sep, p_left, p_right)
    for rows in (slice(0, 1), slice(0, 20), slice(50, 51)):
        assert np.array_equal(projected_green(sep[rows], p_left[rows], p_right), whole[rows])


def test_ring_ring_coupling_builds_only_the_inter_ring_block():
    pair = build_two_rings("site-edge", 400, 0.1, 0.15, "tangential")
    tracemalloc.start()
    try:
        ring_ring_coupling(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6


def test_blocked_h_is_h_built_one_row_at_a_time():
    pair = build_two_rings("site-site", 400, 0.1, 0.15, "tangential")     # 800 emitters
    h = assemble_heff(pair)
    assert h.size > 8 * spectrum._BLOCK_ENTRIES
    by_row = np.vstack([_couplings(pair, [i]) for i in range(pair.n)])
    assert h.tobytes() == by_row.tobytes()


def test_assembly_peak_memory_per_entry_is_bounded():
    pair = build_two_rings("site-site", 400, 0.1, 0.15, "tangential")
    tracemalloc.start()
    try:
        h = assemble_heff(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # h is 16 B per entry; one block of kernel temporaries adds ~11 MB, 17 B per entry here
    # (the whole h's temporaries at once took 168 B per entry)
    assert peak / h.size < 48


def test_the_first_non_finite_coupling_is_named_across_blocks(monkeypatch):
    monkeypatch.setattr(spectrum, "_BLOCK_ENTRIES", 8)            # one row of 12 per block
    positions = np.arange(12.0)[:, None] * [0.1, 0.0, 0.0]
    positions[9] = positions[6]
    array = EmitterArray(positions, [[0, 0, 1]] * 12)
    with pytest.raises(SingularityError, match="emitters 6 and 9 are coincident"):
        _couplings(array)
    with pytest.raises(SingularityError, match="emitters 9 and 6 are coincident"):
        _couplings(array, np.arange(7, 12))
    # sites 9 and 10 are 1e-200 apart, a separation whose norm underflows: row 9 is the first
    # with a non-finite entry
    positions[9:11] = [[1e-200, 0, 0], [2e-200, 0, 0]]
    positions[0] = [5.0, 0, 0]
    with pytest.raises(ArithmeticError, match="separation of 1e-200 wavelengths"):
        _couplings(EmitterArray(positions, [[0, 0, 1]] * 12))


CIRCULAR = (1 / np.sqrt(2), 1j / np.sqrt(2), 0)


@pytest.mark.parametrize("dipole", [(0, 0, 1), (1, 0, 0), (0.3, 0.4, 0.5), CIRCULAR],
                         ids=["z", "x", "tilted", "circular"])
@pytest.mark.parametrize("n", [1, 2, 3, 9, 40, 101])
def test_uniform_chain_rows_are_the_rows_of_the_full_h(n, dipole):
    # built from row 0 alone: off the full h by its position round-off, about 3 n eps max|h|
    line = EmitterArray(np.arange(n)[:, None] * [0.1, 0.2, -0.05], [dipole] * n)
    for array in (build_chain(n, 0.1, dipole), build_chain(n, 1.0 / 3.0, dipole), line):
        assert spectrum._is_uniform_chain(array)
        h = assemble_heff(array)
        # the chain's representatives, and (no declaration) every site
        for rows_of in (array, EmitterArray(array.positions, array.dipoles)):
            _, sites, rows = _orbit_rows(rows_of)
            assert np.max(np.abs(rows - h[sites])) <= 1e-13 * np.abs(h).max()
        assert len(sites) == n


@pytest.mark.parametrize("array", [
    build_ring(2, 0.1, "transverse"),
    build_two_rings("site-site", 1, 0.1, 0.15, "transverse"),
    build_two_rings("site-edge", 1, 0.1, 0.15, "transverse"),
], ids=["ring-2", "site-site-1", "site-edge-1"])
def test_two_site_uniform_arrays_keep_the_bits_of_h(array):
    # h_10 = h_01 bit for bit (the separation flips sign exactly), so their view is exact
    assert spectrum._is_uniform_chain(array)
    _, sites, rows = _orbit_rows(EmitterArray(array.positions, array.dipoles))   # both rows
    assert sites.tolist() == [0, 1]
    assert rows.tobytes() == assemble_heff(array).tobytes()


# A 40-site line of z-dipoles at spacing 0.1 whose steps from site 20 on are 0.9e-9 of a step
# too long, far above the positions' round-off: its h is not Toeplitz to 3e-9 max|h|.
STRETCHED = EmitterArray(0.1 * np.column_stack([np.arange(40) + 0.9e-9 * np.maximum(
    np.arange(40) - 20, 0), np.zeros(40), np.zeros(40)]), [[0, 0, 1]] * 40)


def test_a_non_uniform_array_is_no_uniform_chain():
    uneven = EmitterArray([[0, 0, 0], [1, 0, 0], [2.5, 0, 0]], [[0, 0, 1]] * 3)
    mixed = EmitterArray([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 0, 1]] * 2 + [[1, 0, 0]])
    bent = EmitterArray([[0, 0, 0], [1, 0, 0], [2, 1e-6, 0]], [[0, 0, 1]] * 3)
    for array in (uneven, mixed, bent, STRETCHED, build_ring(3, 0.1, "transverse"),
                  build_ring(2, 0.1, "tangential")):
        assert not spectrum._is_uniform_chain(array)
        with pytest.raises(ValueError):
            spectrum.chain_spectrum(array)
        h = assemble_heff(array)
        _, sites, rows = _orbit_rows(array)            # the rows of _couplings
        assert rows.tobytes() == h[sites].tobytes()
