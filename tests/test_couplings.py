"""Blocks of h from the one coupling builder, spectrum._couplings, against the full matrix."""

import tracemalloc

import numpy as np
import pytest

from dipolerings.emfield import projected_green
from dipolerings.geometry import EmitterArray, TwoRingConfig, build_chain, build_ring, build_two_rings
from dipolerings.spectrum import _couplings, assemble_heff
from dipolerings.transfer import ring_ring_coupling
from oracles import random_geometry


def two_rings(arrangement, n):
    return build_two_rings(TwoRingConfig(arrangement, n, 0.1, 0.15, "tangential"))


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
    pair = build_two_rings(TwoRingConfig("site-edge", 400, 0.1, 0.15, "tangential"))
    tracemalloc.start()
    try:
        ring_ring_coupling(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6
