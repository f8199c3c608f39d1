import concurrent.futures.process
import multiprocessing

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from dipolerings import spectrum
from dipolerings.emfield import SingularityError, pair_coupling
from dipolerings.geometry import EmitterArray, build_ring
from dipolerings.spectrum import (assemble_heff, canonical_m_range, eigenmodes,
                                  light_line_threshold, min_decay_scan, ring_spectrum,
                                  spin_wave_state, wrap_m)
from dipolerings.geometry import build_chain
from dipolerings.spectrum import chain_spectrum
from oracles import chain_eigenvalues, chain_parity_eigenvalues
from oracles import circulant_ring_eigenvalues, random_geometry
from oracles import classify_modes, decay_matrix, ring_eigenvalue


def test_canonical_m_range():
    assert list(canonical_m_range(5)) == [-2, -1, 0, 1, 2]
    assert list(canonical_m_range(8)) == [-3, -2, -1, 0, 1, 2, 3, 4]
    assert wrap_m(-4, 8) == 4
    assert wrap_m(7, 5) == 2


def test_single_emitter_matrix():
    arr = EmitterArray([[0, 0, 0]], [[0, 0, 1]])
    h = assemble_heff(arr)
    assert h.shape == (1, 1)
    assert h[0, 0] == -0.5j
    spec = eigenmodes(h)
    assert abs(spec.eigenvalues[0] + 0.5j) < 1e-15
    assert abs(spec.rates[0] - 1.0) < 1e-15


def test_two_atom_entry_matches_pair_coupling():
    arr = EmitterArray([[0, 0, 0], [0.5, 0, 0]], [[0, 0, 1], [0, 0, 1]])
    h = assemble_heff(arr)
    pc = pair_coupling([0, 0, 0], [0, 0, 1], [0.5, 0, 0], [0, 0, 1])
    assert abs(h[0, 1] - pc.h) < 1e-14
    assert abs(np.imag(h[0, 1]) - (-0.5) * (-3.0 / (2 * np.pi**2))) < 1e-14


def test_coincident_emitters_rejected():
    arr = EmitterArray([[0, 0, 0], [0, 0, 0]], [[0, 0, 1], [0, 0, 1]])
    with pytest.raises(SingularityError):
        assemble_heff(arr)


def test_circulant_structure():
    ring = build_ring(7, 0.2, "tangential")
    h = assemble_heff(ring)
    for shift in range(1, 7):
        for j in range(7):
            assert abs(h[j, (j + shift) % 7] - h[0, shift]) < 1e-12


def test_complex_symmetric_for_real_dipoles():
    ring = build_ring(6, 0.3, "radial")
    h = assemble_heff(ring)
    assert np.max(np.abs(h - h.T)) < 1e-12


def test_trace_identity_random_geometries():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 15))
        pos, dip = random_geometry(rng, n)
        spec = eigenmodes(assemble_heff(EmitterArray(pos, dip)))
        assert abs(np.sum(spec.eigenvalues) + 0.5j * n) < 1e-10
        assert abs(np.sum(spec.rates) - n) < 1e-10
        assert abs(np.sum(spec.shifts)) < 1e-10


def test_decay_matrix_positive_semidefinite():
    rng = np.random.default_rng(5)
    pos, dip = random_geometry(rng, 12)
    h = assemble_heff(EmitterArray(pos, dip))
    w = np.linalg.eigvalsh(decay_matrix(h))
    assert w.min() >= -1e-10 * 12


def test_eigenvalue_sorting_and_phase():
    ring = build_ring(9, 0.15, "transverse")
    spec = eigenmodes(assemble_heff(ring))
    re = np.real(spec.eigenvalues)
    assert np.all(np.diff(re) >= -1e-14)
    for k in range(spec.n):
        v = spec.eigenvectors[:, k]
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        lead = v[np.argmax(np.abs(v))]
        assert abs(np.imag(lead)) < 1e-10 and np.real(lead) > 0


def test_eigenvector_signs_survive_a_last_bit_change_of_h():
    # a chain's parity modes have |v_j| = |v_{n-1-j}|, so round-off must not pick the lead
    h = assemble_heff(build_chain(130, 0.1))
    noise = np.random.default_rng(0).standard_normal(h.shape)
    perturbed = h * (1.0 + 1e-16 * (noise + noise.T) / 2)
    assert np.count_nonzero(perturbed != h) > 0
    a, b = eigenmodes(h), eigenmodes(perturbed)
    assert np.max(np.abs(a.eigenvalues - b.eigenvalues)) < 1e-12
    assert np.max(np.abs(a.eigenvectors - b.eigenvectors)) < 1e-9


@pytest.mark.parametrize("pol", ["transverse", "tangential", "radial"])
@pytest.mark.parametrize("n", [8, 11])
def test_spin_waves_are_exact_eigenvectors(n, pol):
    ring = build_ring(n, 0.12, pol)
    h = assemble_heff(ring)
    for m in canonical_m_range(n):
        psi = spin_wave_state(ring, m)
        lam = ring_eigenvalue(ring, m)
        assert np.linalg.norm(h @ psi - lam * psi) < 1e-10


def test_spin_wave_orthonormality():
    ring = build_ring(10, 0.1, "tangential")
    waves = np.column_stack([spin_wave_state(ring, m) for m in canonical_m_range(10)])
    gram = waves.conj().T @ waves
    assert np.max(np.abs(gram - np.eye(10))) < 1e-12


def test_spin_wave_m0_uniform():
    ring = build_ring(6, 0.2, "transverse")
    psi = spin_wave_state(ring, 0)
    assert np.allclose(psi, 1.0 / np.sqrt(6.0))


def test_out_of_range_m_wrapped_with_warning():
    ring = build_ring(6, 0.2, "transverse")
    with pytest.warns(UserWarning):
        psi = spin_wave_state(ring, 9)
    assert np.allclose(psi, spin_wave_state(ring, 3))


def test_eigenvalue_m_symmetry_and_odd_degeneracy():
    ring = build_ring(11, 0.2, "tangential")
    for m in range(1, 6):
        assert abs(ring_eigenvalue(ring, m) - ring_eigenvalue(ring, -m)) < 1e-12
    # maximal |m| pair is doubly degenerate for odd N by m <-> -m symmetry
    spec = eigenmodes(assemble_heff(ring))
    lam5 = ring_eigenvalue(ring, 5)
    close = np.sum(np.abs(spec.eigenvalues - lam5) < 1e-9)
    assert close == 2


def test_analytic_path_unsupported_for_fixed_dipoles():
    ring = build_ring(6, 0.2, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        ring_eigenvalue(ring, 1)


def test_dicke_limit_transverse():
    ring = build_ring(8, 0.01, "transverse")
    spec = classify_modes(eigenmodes(assemble_heff(ring)), ring)
    rates = dict(zip(spec.labels.tolist(), spec.rates.tolist()))
    assert abs(rates[0] - 8.0) / 8.0 < 0.05
    assert all(rates[m] < 0.05 for m in rates if m != 0)


def test_dicke_limit_tangential():
    ring = build_ring(8, 0.01, "tangential")
    spec = classify_modes(eigenmodes(assemble_heff(ring)), ring)
    rates = dict(zip(spec.labels.tolist(), spec.rates.tolist()))
    assert abs(rates[1] - 4.0) / 4.0 < 0.05
    assert abs(rates[-1] - 4.0) / 4.0 < 0.05
    assert rates[0] < 0.05


def test_classification_bijection_and_offset_invariance():
    for offset in (0.0, 0.31):
        ring = build_ring(10, 0.15, "tangential", angular_offset=offset)
        spec = classify_modes(eigenmodes(assemble_heff(ring)), ring)
        assert sorted(spec.labels.tolist()) == sorted(canonical_m_range(10).tolist())
        assert spec.label_ok.all()
        # labels agree with the analytic eigenvalues
        for k in range(10):
            lam = ring_eigenvalue(ring, int(spec.labels[k]))
            assert abs(spec.eigenvalues[k] - lam) < 1e-9


def test_bright_mode_scaling_fixed_radius():
    # fixed radius, increasing density: brightest rate ~ N Gamma0
    radius = 0.2
    for n in (12, 20, 28):
        d = 2.0 * radius * np.sin(np.pi / n)
        ring = build_ring(n, d, "transverse")
        spec = eigenmodes(assemble_heff(ring))
        assert 0.5 < np.max(spec.rates) / n < 1.5


def test_spectrum_invariant_under_rotation_translation():
    ring = build_ring(8, 0.2, "tangential")
    spec0 = eigenmodes(assemble_heff(ring))
    phi = 0.7
    rot = np.array([[np.cos(phi), -np.sin(phi), 0],
                    [np.sin(phi), np.cos(phi), 0],
                    [0, 0, 1]])
    moved = EmitterArray(ring.positions @ rot.T + np.array([1.0, -2.0, 0.5]),
                         ring.dipoles @ rot.T)
    spec1 = eigenmodes(assemble_heff(moved))
    assert np.max(np.abs(spec0.eigenvalues - spec1.eigenvalues)) < 1e-10


def test_light_line_threshold():
    assert abs(light_line_threshold(10, 0.1) - 1.0) < 1e-15
    assert abs(light_line_threshold(8, 0.125) - 1.0) < 1e-15
    assert light_line_threshold(10, 1e-6) < 1e-4


def test_min_decay_scan_basics():
    table = min_decay_scan("ring", [1], 3.0)
    assert abs(table[0, 1] - 1.0) < 1e-12
    table = min_decay_scan("chain", [10, 20, 40], 3.0)
    slope = np.polyfit(np.log(table[:, 0]), np.log(table[:, 1]), 1)[0]
    assert -3.5 < slope < -2.5
    with pytest.raises(ValueError):
        min_decay_scan("ring", [], 3.0)
    with pytest.raises(ValueError):
        min_decay_scan("lattice", [5], 3.0)


def test_min_decay_scan_threaded_matches_serial():
    # FFT rings, fixed-dipole rings and even and odd chains; shuffled sizes with a repeat
    cases = [("ring", [8, 12, 16], "transverse"), ("ring", [9, 6, 12, 6], (1.0, 0.0, 0.0)),
             ("chain", [41, 10, 40, 10, 25], "transverse")]
    for kind, sizes, pol in cases:
        serial = min_decay_scan(kind, sizes, 3.0, pol)
        assert multiprocessing.active_children() == []
        threaded = min_decay_scan(kind, sizes, 3.0, pol, threads=3)
        assert multiprocessing.active_children() == []
        assert np.array_equal(serial, threaded)
        # rows in input order, each the scan of its size alone
        assert serial[:, 0].tolist() == sizes
        assert np.array_equal(serial[:, 1], [min_decay_scan(kind, [n], 3.0, pol)[0, 1]
                                             for n in sizes])


def test_no_pool_for_ring_ffts_or_without_the_blas_setter(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was constructed")

    expected = min_decay_scan("chain", [10, 21], 3.0)
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", refuse)
    for pol in ("transverse", "Tangential", "radial"):
        assert np.array_equal(min_decay_scan("ring", [8, 12, 16], 3.0, pol, threads=2),
                              min_decay_scan("ring", [8, 12, 16], 3.0, pol))
    monkeypatch.setattr(spectrum, "_blas_threads", lambda: None)
    assert np.array_equal(min_decay_scan("chain", [10, 21], 3.0, threads=2), expected)


def _task_blas_threads(_):
    """The BLAS thread count a _pool_map task sees (module level, so that it pickles)."""
    return spectrum._blas_threads()[0]()


@pytest.mark.parametrize("threads", [1, 2])
def test_tasks_pin_blas_to_one_thread_and_restore_it(threads):
    # threads = 2 runs on two forked workers where there are two CPUs, else in-process
    if spectrum._blas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread setter")
    get_threads, set_threads = spectrum._blas_threads()
    previous = get_threads()
    set_threads(2)
    try:
        assert spectrum._pool_map(_task_blas_threads, [0, 1], threads) == [1, 1]
        assert get_threads() == 2
    finally:
        set_threads(previous)


@pytest.mark.parametrize("offset", [0.0, 0.37])
@pytest.mark.parametrize("pol", ["transverse", "tangential", "radial"])
@pytest.mark.parametrize("n", [1, 2, 7, 10, 64])
def test_ring_spectrum_matches_circulant_sum(n, pol, offset):
    ring = build_ring(n, 0.15, pol, angular_offset=offset)
    ms, lambdas = ring_spectrum(ring)
    assert ms.tolist() == canonical_m_range(n).tolist()
    assert np.max(np.abs(lambdas - circulant_ring_eigenvalues(ring, ms))) < 1e-12


CHAIN_DIPOLES = [(0, 0, 1), (1, 0, 0), (1 / np.sqrt(2), 1j / np.sqrt(2), 0)]


@pytest.mark.parametrize("dipole", CHAIN_DIPOLES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 40, 41])
def test_chain_spectrum_matches_dense_pair_sum(n, dipole):
    got = chain_spectrum(build_chain(n, 1.0 / 3.0, dipole))
    expected = chain_eigenvalues(n, 1.0 / 3.0, dipole)
    assert got.shape == (n,)
    gap = np.abs(expected[:, None] - got[None, :])
    rows, cols = linear_sum_assignment(gap)
    assert np.all(gap[rows, cols] <= 1e-10 * (1.0 + np.abs(expected[rows])))


@pytest.mark.parametrize("dipole", [(0, 0, 1), (1, 0, 0), (0.3, 0.4, 0.5)])
def test_chain_spectrum_is_the_parity_block_formula_bit_for_bit(dipole):
    # every eigenvalue equal, so the decay-scan artifacts stay byte-identical
    for n in range(1, 41):
        chain = build_chain(n, 1.0 / 3.0, dipole)
        expected = chain_parity_eigenvalues(assemble_heff(chain)[0])
        assert np.array_equal(chain_spectrum(chain), expected), n


def test_chain_spectrum_rejects_a_non_uniform_chain():
    uneven = EmitterArray([[0, 0, 0], [1, 0, 0], [2.5, 0, 0]], [[0, 0, 1]] * 3)
    mixed = EmitterArray([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 0, 1]] * 2 + [[1, 0, 0]])
    for array in (uneven, mixed):
        with pytest.raises(ValueError):
            chain_spectrum(array)


def test_chain_decay_scan_matches_dense_pair_sum():
    sizes = range(10, 61, 5)
    expected = [np.min(-2.0 * np.imag(chain_eigenvalues(n, 1.0 / 3.0, (0, 0, 1))))
                for n in sizes]
    for threads in (1, 2):
        table = min_decay_scan("chain", sizes, 3.0, threads=threads)
        assert table[:, 0].tolist() == list(sizes)
        assert np.all(np.abs(table[:, 1] - expected) <= 1e-9 * np.abs(expected))


def _count_solvers(monkeypatch):
    """Count np.linalg.eig and assemble_heff calls, and record each np.linalg.eigvals
    input shape, from any thread."""
    calls = {"eig": [], "eigvals": [], "assemble_heff": []}
    eig, eigvals, heff = np.linalg.eig, np.linalg.eigvals, spectrum.assemble_heff
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls["eig"].append(1) or eig(a))
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: calls["eigvals"].append(np.shape(a)) or eigvals(a))
    monkeypatch.setattr(spectrum, "assemble_heff",
                        lambda array: calls["assemble_heff"].append(1) or heff(array))
    return calls


def test_chain_decay_scan_takes_two_parity_blocks_per_size(monkeypatch):
    calls = _count_solvers(monkeypatch)
    min_decay_scan("chain", [40, 41], 3.0)
    assert calls["eig"] == [] and calls["assemble_heff"] == []
    assert sorted(calls["eigvals"]) == [(20, 20), (20, 20), (20, 20), (21, 21)]


def test_fixed_dipole_ring_decay_scan_takes_eigenvalues_only(monkeypatch):
    ring = build_ring(12, 1.0 / 3.0, (1, 0, 0))
    expected = np.min(eigenmodes(assemble_heff(ring)).rates)
    calls = _count_solvers(monkeypatch)
    table = min_decay_scan("ring", [12], 3.0, polarization=(1, 0, 0))
    assert calls["eig"] == [] and calls["eigvals"] == [(12, 12)]
    assert abs(table[0, 1] - expected) <= 1e-10 * expected


def test_chain_decay_scan_takes_a_dipole_vector():
    dipole = np.array([1.0, 0.0, 0.0])
    expected = [np.min(-2.0 * np.imag(chain_eigenvalues(n, 1.0 / 3.0, dipole))) for n in (10, 11)]
    table = min_decay_scan("chain", [10, 11], 3.0, polarization=dipole)
    assert np.all(np.abs(table[:, 1] - expected) <= 1e-9 * np.abs(expected))


@pytest.mark.parametrize("name", ["tangential", "radial", "z"])
def test_chain_decay_scan_rejects_other_scheme_names(name):
    with pytest.raises(ValueError, match="chains take 'transverse' or a dipole 3-vector"):
        min_decay_scan("chain", [10], 3.0, polarization=name)
