"""Effective non-Hermitian Hamiltonian, collective eigenmodes and scans."""

import contextlib
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


_BLOCK_ENTRIES = 1 << 16   # entries of h per block of _couplings, ~170 B of temporaries each


def _couplings(array: EmitterArray, rows=None, cols=None) -> np.ndarray:
    """Block h[rows][:, cols] of the effective Hamiltonian (all sites by default).

    h_ij = -(3 pi Gamma0 / k0) conj(p_i) . G(r_i - r_j) . p_j, and -i/2 on self pairs
    (Omega_ii = 0, Gamma_ii = Gamma0), in blocks of whole rows of about _BLOCK_ENTRIES entries,
    so that only h grows with its size.  The first non-finite coupling raises SingularityError
    if its emitters coincide, else ArithmeticError (a separation out of float range).
    """
    pos, dip = array.positions, array.dipoles
    rows = np.arange(array.n) if rows is None else np.asarray(rows)
    cols = np.arange(array.n) if cols is None else np.asarray(cols)
    h = np.empty((len(rows), len(cols)), dtype=complex)
    step = max(1, _BLOCK_ENTRIES // max(1, len(cols)))
    for start in range(0, len(rows), step):
        part, block = rows[start:start + step], h[start:start + step]
        with np.errstate(over="ignore"):        # a separation out of range: reported below
            sep = pos[part, None, :] - pos[None, cols, :]
        block[...] = projected_green(sep, dip[part, None, :], dip[None, cols, :])
        block *= -(3.0 * np.pi * GAMMA0 / K0)
        block[part[:, None] == cols] = -0.5j * GAMMA0
        bad = np.argwhere(~np.isfinite(block))
        if len(bad):
            i, j = part[bad[0, 0]], cols[bad[0, 1]]
            dist = math.hypot(*(pos[i] - pos[j]))    # a norm that does not underflow
            if dist == 0.0:
                raise SingularityError(f"emitters {i} and {j} are coincident")
            raise ArithmeticError(f"h has non-finite couplings; an emitter separation "
                                  f"of {dist:.3g} wavelengths is out of range")
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
    """Full eigendecomposition of a coupling matrix: _modes of its one sector, Q = I (dense)."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("coupling matrix must be square")
    return ModeSpectrum(*_modes(h))


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


def _block(sector, rows: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Q_s^T h Q_s of a sector of _sectors from h[reps] = rows[pos] alone, gathered term by term,
    exact if S_g h S_g^T = h: sqrt(|O_a| |O_b|)/|G| sum_g chi(g) sign_g(i_b) h[i_a, g(i_b)]."""
    _, idx, coef, sizes = sector
    block = sum(c * rows[pos[:, None], i] for i, c in zip(idx, coef))
    block *= np.sqrt(np.outer(sizes, sizes)) / len(idx)
    return block


def _project(sector, x: np.ndarray) -> np.ndarray:
    """Q_s^T x (x 2-D) from the signed orbit gathers of a sector of _sectors."""
    _, idx, coef, sizes = sector
    return (np.sqrt(sizes) / len(idx))[:, None] * sum(c[:, None] * x[i] for i, c in zip(idx, coef))


def _symmetry_group(array: EmitterArray) -> tuple[np.ndarray, np.ndarray]:
    """The site symmetries of the h of array as the group G = (perms, signs) of _sectors, each
    (|G|, n), from the array's declarations alone; h is never read.

    The generators are the declarations (flip F, site map perm; see EmitterArray), each with
    the sign per site of F p_i against p_perm[i], kept where F p_i = sign_i p_perm[i] to 1e-12
    of the largest dipole component, O(n): then S h S^T = h, since G(F r) = F G(r) F.  A
    missing generator gives the smaller group; without a kept generator G is the identity
    and its one sector is Q = I.  _symmetry_elements adds each element's flip.
    """
    return _symmetry_elements(array)[1:]


def _symmetry_elements(array: EmitterArray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flips, perms, signs) of the group of _symmetry_group, flips[g] the (3,) coordinate flip
    of element g about the centroid: the product of its generators' flips."""
    dip = array.dipoles
    flips, perms, signs = np.ones((1, 3)), np.arange(array.n)[None], np.ones((1, array.n))
    for flip, perm in array.symmetries:
        turned, image = flip * dip, dip[perm]
        sign = np.where(np.real(np.sum(np.conj(image) * turned, axis=1)) < 0, -1.0, 1.0)
        kept = (np.abs(turned - sign[:, None] * image).max(initial=0.0)
                <= 1e-12 * np.abs(dip).max(initial=0.0))
        if kept:                                                  # gen after each element of G
            flips = np.vstack([flips, flip * flips])
            perms, signs = np.vstack([perms, perm[perms]]), np.vstack([signs, signs * sign[perms]])
    return flips, perms, signs


def _is_uniform_chain(array: EmitterArray) -> bool:
    """Equal steps and one dipole: h is symmetric Toeplitz, h_ij = h_0|i-j| (G even).  Steps are
    equal to 4 eps of the largest |coordinate|, the positions' round-off (as in EmitterArray)."""
    pos, dip = array.positions, array.dipoles
    steps = np.diff(pos, axis=0)
    tol = 4 * np.finfo(float).eps * np.abs(pos).max(initial=0.0)
    return not (np.any(dip != dip[0]) or np.any(np.abs(steps - steps[:1]) > tol))


def _orbit_rows(source: EmitterArray | np.ndarray) -> tuple:
    """(sectors, sites, rows), rows[k] = h[sites[k]] at ascending sites, of one source: an ndarray
    h is one sector, Q = I, with every site and rows = h; an EmitterArray has the sectors of its
    declared symmetries (_symmetry_group) and each orbit representative's rows from _couplings,
    but a uniform chain (_is_uniform_chain) every site with rows a view of h_0|i-j| built from
    its row 0, off the full h by about 3 n eps max|h|."""
    if isinstance(source, np.ndarray):
        n = len(source)
        return _sectors(np.arange(n)[None], np.ones((1, n))), np.arange(n), source
    sectors = _sectors(*_symmetry_group(source))
    if not _is_uniform_chain(source):
        sites = np.unique(np.concatenate([s[0] for s in sectors]))
        return sectors, sites, _couplings(source, sites)
    row = _couplings(source, [0])[0]
    h = np.lib.stride_tricks.sliding_window_view(np.r_[row[:0:-1], row], source.n)[::-1]
    return sectors, np.arange(source.n), h


def _factor(source: EmitterArray | np.ndarray, vectors: bool) -> tuple:
    """(sectors, sites, rows, factors) of one source of _orbit_rows: its orbit rows, and
    np.linalg.eig (vectors) or eigvals of each sector's block Q_s^T h Q_s (_block); a failed
    solve raises ArithmeticError."""
    sectors, sites, rows = _orbit_rows(source)
    solve = np.linalg.eig if vectors else np.linalg.eigvals
    try:
        factors = [solve(_block(s, rows, np.searchsorted(sites, s[0]))) for s in sectors]
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigensolver failed for n = {rows.shape[1]}: {exc}") from exc
    return sectors, sites, rows, factors


def _modes(source: EmitterArray | np.ndarray, vectors: bool = True):
    """(eigenvalues, eigenvectors or None) of one source of _orbit_rows, an array or a given h,
    from one _factor: the eigenvalues sorted by (Re, Im), and the columns Q_s W_s in that
    order in the convention of _fix_phases, each Q_s the transpose of _project."""
    sectors, _, _, factors = _factor(source, vectors)
    vals = np.concatenate([f[0] for f in factors] if vectors else factors)
    order = np.lexsort((np.imag(vals), np.real(vals)))
    if not vectors:
        return vals[order], None
    eye = np.eye(len(vals))
    vecs = np.hstack([_project(s, eye).T @ w for s, (_, w) in zip(sectors, factors)])
    return vals[order], _fix_phases(vecs[:, order])


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


@contextlib.contextmanager
def _one_blas_thread():
    """Pin numpy's OpenBLAS to one thread for the duration and restore its count after, so
    that no result depends on it; a no-op without the setter (see _blas_threads)."""
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get_threads, set_threads = blas
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


class WorkerError(RuntimeError):
    """A worker process of _pool_map ended without a result (killed by the OS, say)."""


# _pool_map forks at this much work, the sum over its tasks of eigvals side^3: per decay-scan
# size 0 for an FFT ring, a chain's two inversion sectors and n^3 for a fixed-dipole ring (an
# upper bound where its half-turn splits h); per fidelity-scan separation (2 n)^3 plus its
# overlaps (transfer.fidelity_scan).  On a 2-vCPU Xeon a two-worker pool costs 20-25 ms and
# eigvals runs 1.2e8 side^3/s at side 100: forking pays off above about 2 * 1.2e8 * 0.02 = 5e6.
# Default chains 10-30 are 5.4e4 (11 ms here, 25-50 ms forked), fixed-dipole rings 10-30 2.1e5,
# chains 100-400 step 20 8.8e7; fidelity scans over three separations (two widths, 100 steps)
# 6.5e3, 4.0e5 and 2.4e7 at n = 6, 25 and 100 (13, 19 and 110 ms here; 29, 31 and 80-93 forked).
_FORK_WORK = 5e6


def _pool_map(fn, items, threads: int, work) -> list:
    """[fn(item) for item in items], in item order, on min(threads, len(items), usable CPUs)
    forked worker processes, which take the tasks largest work[i] first, if sum(work) >=
    _FORK_WORK (work[i]: item i's cost, in eigvals side^3), else in this process.

    Both paths run in one _one_blas_thread, whose pin forked workers inherit: every task sees
    BLAS on one thread, so the results do not depend on `threads` and k workers use k CPUs.
    Workers, not threads: numpy's eigvals holds the GIL below side ~500; forked: a spawned one
    re-imports numpy.  fn and the items must pickle.  Without fork or the BLAS setter the tasks
    run here (unpinned without the setter).  fn's exceptions come back with their type; a dead
    worker raises WorkerError.  Call it single-threaded, as the CLI does: fork copies one thread.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, len(items), cpus or 1) if sum(work) >= _FORK_WORK else 1
    with _one_blas_thread():
        if workers > 1 and _blas_threads() is not None:
            import multiprocessing
            if "fork" in multiprocessing.get_all_start_methods():
                from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
                order = sorted(range(len(items)), key=work.__getitem__, reverse=True)
                fork = multiprocessing.get_context("fork")
                try:
                    with ProcessPoolExecutor(workers, mp_context=fork) as pool:
                        done = dict(zip(order, pool.map(fn, [items[i] for i in order])))
                except BrokenProcessPool as exc:
                    raise WorkerError(f"a worker process ended without a result: {exc}") from exc
                return [done[i] for i in range(len(items))]
        return [fn(item) for item in items]


def chain_spectrum(array: EmitterArray) -> np.ndarray:
    """All eigenvalues of a uniform open chain (_is_uniform_chain, else ValueError), sorted by
    (Re, Im), from row 0 of h: _modes without eigenvectors, one eigvals per sector of its
    inversion (build_chain), of sides ceil(n/2) (with an odd chain's middle site) and n//2."""
    if not _is_uniform_chain(array):
        raise ValueError("chain eigenvalues need equal spacing and one common dipole")
    return _modes(array, vectors=False)[0]


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
    array = (build_chain if kind == "chain" else build_ring)(n, d, polarization)
    symmetric = kind == "ring" and array.ring_meta[0].scheme in SYMMETRIC_SCHEMES
    lambdas = ring_spectrum(array)[1] if symmetric else _modes(array, vectors=False)[0]
    return float(np.min(-2.0 * np.imag(lambdas)))


def min_decay_scan(kind: str, n_list, wavelength_over_d: float,
                   polarization="transverse", threads: int = 1) -> np.ndarray:
    """Minimum collective decay rate versus emitter number at fixed lambda/d.

    kind is 'ring' or 'chain'.  Returns rows (n, min_k Gamma_k) in n_list order, computed on at
    most `threads` worker processes (_pool_map): from ring_spectrum, one FFT per size, for rings
    with a symmetric polarization scheme, else from the eigenvalues of the symmetry sectors
    (_modes), no eigenvectors.  Chains take `polarization`, 'transverse' (z) or a dipole
    3-vector, as their common dipole; any other string raises ValueError.
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
    work = [((n + 1) // 2) ** 3 + (n // 2) ** 3 if kind == "chain" else n**3 for n in n_list]
    if kind == "ring" and isinstance(polarization, str) and polarization.lower() in SYMMETRIC_SCHEMES:
        work = [0] * len(n_list)   # ring_spectrum: one FFT per size
    rates = _pool_map(functools.partial(_min_rate, kind, d, polarization), n_list, threads, work)
    return np.column_stack([np.array(n_list, dtype=float), rates])
