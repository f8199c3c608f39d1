"""Effective non-Hermitian Hamiltonian, collective eigenmodes and scans."""

import functools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .emfield import GAMMA0, SingularityError, projected_green, K0
from .geometry import SYMMETRIC_SCHEMES, EmitterArray, build_chain, build_ring


def canonical_m_range(n: int) -> np.ndarray:
    """Canonical angular momentum labels for an n-site ring.

    Odd n: -(n-1)/2 .. (n-1)/2.  Even n: -n/2+1 .. n/2 (the -n/2 and n/2
    spin waves coincide on the lattice, so only one is kept).
    """
    if n % 2 == 1:
        return np.arange(-(n - 1) // 2, (n - 1) // 2 + 1)
    return np.arange(-n // 2 + 1, n // 2 + 1)


def wrap_m(m: int, n: int) -> int:
    """Map an arbitrary integer m to its canonical mod-n equivalent."""
    lo = canonical_m_range(n)[0]
    return (m - lo) % n + lo


def _couplings(array: EmitterArray, rows=None, cols=None) -> np.ndarray:
    """Block h[rows][:, cols] of the effective Hamiltonian (all sites by default).

    h_ij = -(3 pi Gamma0 / k0) conj(p_i) . G(r_i - r_j) . p_j, and -i/2 on self
    pairs (Omega_ii = 0, Gamma_ii = Gamma0).  The first non-finite coupling raises
    SingularityError if its emitters coincide, else ArithmeticError (a separation
    whose norm underflows or overflows).
    """
    pos, dip = array.positions, array.dipoles
    rows = np.arange(array.n) if rows is None else np.asarray(rows)
    cols = np.arange(array.n) if cols is None else np.asarray(cols)
    sep = pos[rows, None, :] - pos[None, cols, :]
    h = projected_green(sep, dip[rows, None, :], dip[None, cols, :])
    del sep   # 24 bytes per pair, not needed past the kernel
    h *= -(3.0 * np.pi * GAMMA0 / K0)
    h[rows[:, None] == cols] = -0.5j * GAMMA0
    bad = np.argwhere(~np.isfinite(h))
    if len(bad):
        i, j = rows[bad[0, 0]], cols[bad[0, 1]]
        step = math.hypot(*(pos[i] - pos[j]))    # a norm that does not underflow
        if step == 0.0:
            raise SingularityError(f"emitters {i} and {j} are coincident")
        raise ArithmeticError(f"h has non-finite couplings; an emitter separation "
                              f"of {step:.3g} wavelengths is out of range")
    return h


def assemble_heff(array: EmitterArray) -> np.ndarray:
    """Effective Hamiltonian h_ij = Omega_ij - i Gamma_ij / 2 in units of Gamma0; see _couplings."""
    return _couplings(array)


@dataclass
class ModeSpectrum:
    """Eigendecomposition of the effective Hamiltonian.

    eigenvalues are sorted by (Re, Im); eigenvectors are unit-norm columns
    with the largest-magnitude component (the lowest-index one among ties
    within 1e-8 relative) rotated to the positive real axis.
    """

    eigenvalues: np.ndarray      # (n,) complex
    eigenvectors: np.ndarray     # (n, n) complex, mode k in column k

    @property
    def shifts(self) -> np.ndarray:
        """Collective frequency shifts J_k = Re{lambda_k}."""
        return np.real(self.eigenvalues)

    @property
    def rates(self) -> np.ndarray:
        """Collective decay rates Gamma_k = -2 Im{lambda_k}."""
        return -2.0 * np.imag(self.eigenvalues)

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Unit-norm columns, each rotated so that its leading component is real positive.

    The leading component is the lowest-index one within 1e-8 relative of the
    column's largest magnitude, so that ties (components j and n-1-j of a
    chain's parity modes) are not decided by round-off.
    """
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    mags = np.abs(vecs)
    idx = np.argmax(mags >= (1.0 - 1e-8) * mags.max(axis=0), axis=0)
    lead = vecs[idx, np.arange(vecs.shape[1])]
    phase = lead / np.abs(lead)
    return vecs / phase[None, :]


def eigenmodes(h: np.ndarray) -> ModeSpectrum:
    """Full complex eigendecomposition of the coupling matrix."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("coupling matrix must be square")
    try:
        vals, vecs = np.linalg.eig(h)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigensolver failed for n = {h.shape[0]}: {exc}") from exc
    order = np.lexsort((np.imag(vals), np.real(vals)))
    return ModeSpectrum(eigenvalues=vals[order], eigenvectors=_fix_phases(vecs[:, order]))


def spin_wave_state(array: EmitterArray, m: int, group: int = 0) -> np.ndarray:
    """Perfect spin wave with angular momentum m on one ring group.

    Amplitudes N^{-1/2} e^{i m theta_j} on the group's sites, zero elsewhere.
    m outside the canonical range is wrapped mod N with a warning.
    """
    meta = array.ring_meta[group]
    if meta is None:
        raise ValueError("group has no ring metadata")
    idx = np.asarray(array.groups[group])
    n = len(idx)
    mc = wrap_m(m, n)
    if mc != m:
        warnings.warn(f"m = {m} outside canonical range, wrapped to {mc}")
    state = np.zeros(array.n, dtype=complex)
    state[idx] = np.exp(1j * mc * meta.angles) / np.sqrt(n)
    return state


def ring_spectrum(array: EmitterArray, group: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues of a symmetric ring from one row of its Hamiltonian.

    The ring's h is circulant, so lambda_m = -i/2 + sum_l h_{0l} e^{i m (theta_l
    - theta_0)} = N ifft(h_0)[m mod N]: O(N) couplings and one FFT.  Returns
    (ms, lambdas) over the canonical m range; the spin waves of spin_wave_state
    are the exact eigenvectors.  Requires one of the rotationally symmetric
    dipole schemes.
    """
    meta = array.ring_meta[group]
    if meta is None or meta.scheme not in SYMMETRIC_SCHEMES:
        raise ValueError("analytic ring eigenvalues need a symmetric polarization scheme")
    idx = np.asarray(array.groups[group])
    n = len(idx)
    row = _couplings(array, idx[:1], idx)[0]
    ms = canonical_m_range(n)
    return ms, n * np.fft.ifft(row)[ms % n]


def _sectors(perms: np.ndarray, signs: np.ndarray) -> list[tuple]:
    """Sectors of a group G = Z2^k of signed site permutations, as signed orbit gathers.

    Element g maps site i to perms[g, i] with sign signs[g, i], both (|G|, n); element k
    holds generator j iff bit j of k.  Per character chi of G, (reps, idx, coef, sizes): the
    lowest site i_a of each orbit a, idx = g(i_a) and coef = chi(g) sign_g(i_a), each (|G|,
    orbits), and the orbit sizes.  Q_s has the columns sqrt(|O_a|)/|G| sum_g coef e_idx; an
    orbit whose stabilizer chi does not fix has none, and a sector without orbits is dropped.
    """
    order, n = perms.shape
    reps = np.flatnonzero(np.all(perms >= np.arange(n), axis=0))
    idx, fixed = perms[:, reps], perms[:, reps] == reps
    sizes = order // np.count_nonzero(fixed, axis=0)
    # coefs[chi, g, a] = chi(g) sign_g(i_a), chi(g_k) = -1 per generator in both k and chi
    chars = [[(-1.0) ** (k & chi).bit_count() for k in range(order)] for chi in range(order)]
    coefs = np.array(chars)[:, :, None] * signs[:, reps]
    kept = np.all(~fixed | (coefs > 0), axis=1)
    return [(reps[k], idx[:, k], c[:, k], sizes[k]) for c, k in zip(coefs, kept) if np.any(k)]


def _block(sector, rows: np.ndarray) -> np.ndarray:
    """Q_s^T h Q_s of a sector of _sectors from rows = h[reps] alone, exact if S_g h S_g^T = h:
    sqrt(|O_a| |O_b|)/|G| sum_g chi(g) sign_g(i_b) h[i_a, g(i_b)]."""
    _, idx, coef, sizes = sector
    block = sum(c * rows[:, i] for i, c in zip(idx, coef))   # one (orbits, orbits) term at a time
    block *= np.sqrt(np.outer(sizes, sizes)) / len(idx)
    return block


def _project(sector, x: np.ndarray) -> np.ndarray:
    """Q_s^T x (x 2-D) from the signed orbit gathers of a sector of _sectors."""
    _, idx, coef, sizes = sector
    return (np.sqrt(sizes) / len(idx))[:, None] * sum(c[:, None] * x[i] for i, c in zip(idx, coef))


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy bundles, or None."""
    import ctypes
    libdir = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(np.__file__))),
                          "numpy.libs")
    for name in sorted(os.listdir(libdir)) if os.path.isdir(libdir) else ():
        if "openblas" not in name:
            continue
        try:
            lib = ctypes.CDLL(os.path.join(libdir, name))
        except OSError:
            continue
        for symbol in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                       "openblas_{}_num_threads"):
            get, set_ = (getattr(lib, symbol.format(op), None) for op in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


class WorkerError(RuntimeError):
    """A worker process of _pool_map ended without a result (killed by the OS, say)."""


def _pool_map(fn, items, threads: int) -> list:
    """[fn(item) for item in items] on min(threads, len(items), usable CPUs) worker processes,
    with BLAS on one thread per task, so that the results do not depend on `threads`.

    numpy's eigvals holds the GIL below side ~500, so threads would not overlap; workers are
    forked (a spawned one re-imports numpy) and each pins its BLAS to one thread, since an
    unpinned BLAS in every worker oversubscribes the CPUs.  fn and the items must pickle.
    At one worker, or without fork, the tasks run in this process with its BLAS pinned
    for their duration; without the BLAS setter they run here unpinned.  Exceptions raised
    by fn come back with their type; a worker that dies raises WorkerError.  Call it from
    a single-threaded process, as the CLI is: fork copies only the calling thread.
    """
    blas = _blas_threads()
    if blas is None:
        return [fn(item) for item in items]
    get_threads, set_threads = blas
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, len(items), cpus or 1)
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
            try:
                with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                         initializer=set_threads, initargs=(1,)) as pool:
                    return list(pool.map(fn, items))
            except BrokenProcessPool as exc:
                raise WorkerError(f"a worker process ended without a result: {exc}") from exc
    previous = get_threads()
    set_threads(1)
    try:
        return [fn(item) for item in items]
    finally:
        set_threads(previous)


def chain_spectrum(array: EmitterArray) -> np.ndarray:
    """All eigenvalues of a uniform open chain from one row of its Hamiltonian.

    Equal spacing and one common dipole make h symmetric Toeplitz, h_ij = r_|i-j| with r
    row 0 of h (G(r) = G(-r)), so h commutes with the site reversal j -> n-1-j.  Returns the
    eigenvalues of its even sector (side ceil(n/2), with the middle site for odd n), then of
    its odd one (side floor(n/2)), each block built from the rows r_|i-j| of the sector's
    representatives (see _sectors and _block), unsorted; no eigenvectors are computed.
    """
    pos, dip = array.positions, array.dipoles
    steps = np.diff(pos, axis=0)
    if np.any(dip != dip[0]) or np.any(np.abs(steps - steps[:1])
                                       > 1e-9 * np.abs(steps[:1]).max(initial=0.0)):
        raise ValueError("chain eigenvalues need equal spacing and one common dipole")
    sites = np.arange(array.n)
    row = _couplings(array, [0], sites)[0]
    # the rows h[i] = r_|i-j| as a view, no copy; each sector's reps are the sites 0, 1, ...
    rows = np.lib.stride_tricks.sliding_window_view(np.r_[row[:0:-1], row], array.n)[::-1]
    sectors = _sectors(np.array([sites, sites[::-1]]), np.ones((2, array.n)))
    return np.concatenate([np.linalg.eigvals(_block(s, rows[:len(s[0])])) for s in sectors])


def light_line_threshold(n: int, d: float) -> float:
    """Mode-index light line m* = n*d (d in wavelength units).

    Ring modes with |m| > m* have wavevector k_m = 2 pi m / (n d) beyond the
    free-space wavenumber and are guided / subradiant.
    """
    if n < 1 or d <= 0:
        raise ValueError("need n >= 1 and d > 0")
    return n * d


def _min_rate(kind: str, d: float, polarization, n: int) -> float:
    """min_k Gamma_k of one size of min_decay_scan (module level, so that it pickles)."""
    if kind == "chain":
        lambdas = chain_spectrum(build_chain(n, d, polarization))
    else:
        array = build_ring(n, d, polarization)
        if array.ring_meta[0].scheme in SYMMETRIC_SCHEMES:
            lambdas = ring_spectrum(array)[1]
        else:
            lambdas = np.linalg.eigvals(assemble_heff(array))
    return float(np.min(-2.0 * np.imag(lambdas)))


def min_decay_scan(kind: str, n_list, wavelength_over_d: float,
                   polarization="transverse", threads: int = 1) -> np.ndarray:
    """Minimum collective decay rate versus emitter number at fixed lambda/d.

    kind is 'ring' or 'chain'.  Returns an array of rows (n, min_k Gamma_k) in n_list
    order, computed largest n first on at most `threads` worker processes (_pool_map).
    Rings with a symmetric polarization scheme take their rates from ring_spectrum, one
    FFT per size, in this process; rings with a fixed dipole vector from the eigenvalues
    of the full h.  Chains take `polarization`, 'transverse' (z) or a dipole 3-vector, as
    their common dipole and their rates from chain_spectrum; any other string raises
    ValueError.  No eigenvectors are computed.
    """
    if kind not in ("ring", "chain"):
        raise ValueError(f"unknown geometry kind {kind!r}")
    n_list = list(n_list)
    if not n_list:
        raise ValueError("n_list must be nonempty")
    d = 1.0 / wavelength_over_d
    if kind == "chain" and isinstance(polarization, str):
        if polarization != "transverse":
            raise ValueError(f"chains take 'transverse' or a dipole 3-vector, got {polarization!r}")
        polarization = (0.0, 0.0, 1.0)
    if kind == "ring" and isinstance(polarization, str) and polarization.lower() in SYMMETRIC_SCHEMES:
        threads = 1   # one FFT per size costs less than forking a worker
    order = sorted(range(len(n_list)), key=n_list.__getitem__, reverse=True)
    rates = np.empty(len(n_list))
    rates[order] = _pool_map(functools.partial(_min_rate, kind, d, polarization),
                             [n_list[i] for i in order], threads)
    return np.column_stack([np.array(n_list, dtype=float), rates])
