"""Effective non-Hermitian Hamiltonian, collective eigenmodes and scans."""

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

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


def decay_matrix(h: np.ndarray) -> np.ndarray:
    """Collective decay matrix Gamma_ij = -2 Im{h_ij} (diagonal Gamma0)."""
    return -2.0 * np.imag(h)


@dataclass
class ModeSpectrum:
    """Eigendecomposition of the effective Hamiltonian.

    eigenvalues are sorted by (Re, Im); eigenvectors are unit-norm columns
    with the largest-magnitude component rotated to the positive real axis.
    labels holds the angular momentum per mode once classified (None before).
    """

    eigenvalues: np.ndarray      # (n,) complex
    eigenvectors: np.ndarray     # (n, n) complex, mode k in column k
    labels: np.ndarray | None = None       # (n,) int
    label_ok: np.ndarray | None = None     # (n,) bool, False if ambiguous

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
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    idx = np.argmax(np.abs(vecs), axis=0)
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


def ring_eigenvalue(array: EmitterArray, m: int, group: int = 0) -> complex:
    """Eigenvalue of a symmetric ring for the spin wave of momentum m (m taken mod N)."""
    ms, lambdas = ring_spectrum(array, group)
    return complex(lambdas[wrap_m(m, len(ms)) - ms[0]])


def chain_spectrum(array: EmitterArray) -> np.ndarray:
    """All eigenvalues of a uniform open chain from one row of its Hamiltonian.

    Equal spacing and one common dipole make h symmetric Toeplitz, h_ij =
    r_|i-j| with r row 0 of h (G(r) = G(-r)), so h commutes with the site
    reversal j -> n-1-j.  On the basis (e_i +- e_{n-1-i})/sqrt(2), i < n//2, h
    splits into the even block T + H and the odd block T - H, with T_ij = r_|i-j|
    and H_ij = r_{n-1-i-j}; for odd n the even block also holds the middle site,
    coupled by sqrt(2) r_{n//2-i}.  Returns the eigenvalues of the even block
    (side ceil(n/2)) then of the odd block (side floor(n/2)), unsorted; no
    eigenvectors are computed.
    """
    pos, dip = array.positions, array.dipoles
    steps = np.diff(pos, axis=0)
    if np.any(dip != dip[0]) or np.any(np.abs(steps - steps[:1])
                                       > 1e-9 * np.abs(steps[:1]).max(initial=0.0)):
        raise ValueError("chain eigenvalues need equal spacing and one common dipole")
    n = array.n
    row = _couplings(array, [0], np.arange(n))[0]
    half = n // 2
    i = np.arange(half)
    toeplitz = row[np.abs(i[:, None] - i)]
    hankel = row[n - 1 - i[:, None] - i]
    even = np.empty((n - half, n - half), dtype=complex)
    even[:half, :half] = toeplitz + hankel
    if n % 2:
        even[:half, half] = even[half, :half] = np.sqrt(2.0) * row[half - i]
        even[half, half] = row[0]
    return np.concatenate([np.linalg.eigvals(even), np.linalg.eigvals(toeplitz - hankel)])


def classify_modes(spec: ModeSpectrum, array: EmitterArray, group: int = 0,
                   overlap_threshold: float = 0.9) -> ModeSpectrum:
    """Label numerically obtained ring eigenvectors with angular momenta.

    Within degenerate clusters the eigenvectors are replaced by the projections
    of the spin waves onto the cluster subspace, so each labeled mode aligns
    with e^{i m theta}.  The assignment is a bijection onto the canonical m
    range; modes whose best overlap stays below overlap_threshold are flagged.
    """
    idx = np.asarray(array.groups[group])
    n = len(idx)
    if spec.n != n or len(array.groups) != 1:
        raise ValueError("mode classification expects a single-ring spectrum")
    ms = canonical_m_range(n)
    waves = np.column_stack([spin_wave_state(array, m, group)[idx] for m in ms])

    vals = spec.eigenvalues
    vecs = spec.eigenvectors.copy()
    # cluster (near-)degenerate eigenvalues, then rotate eigenvectors inside
    # each cluster onto the spin-wave basis
    unassigned = list(range(n))
    clusters = []
    while unassigned:
        k = unassigned.pop(0)
        cluster = [k]
        for other in list(unassigned):
            if abs(vals[other] - vals[k]) < 1e-8:
                cluster.append(other)
                unassigned.remove(other)
        clusters.append(cluster)
    for cluster in clusters:
        if len(cluster) < 2:
            continue
        basis = vecs[:, cluster]
        q, _ = np.linalg.qr(basis)
        proj = q @ (q.conj().T @ waves)
        norms = np.linalg.norm(proj, axis=0)
        best = np.argsort(norms)[::-1][: len(cluster)]
        repl = proj[:, best]
        repl, _ = np.linalg.qr(repl)
        vecs[:, cluster] = _fix_phases(repl)

    overlap = np.abs(waves.conj().T @ vecs)     # (m, k)
    row, col = linear_sum_assignment(-overlap)
    labels = np.empty(n, dtype=int)
    ok = np.empty(n, dtype=bool)
    for m_i, k in zip(row, col):
        labels[k] = ms[m_i]
        ok[k] = overlap[m_i, k] >= overlap_threshold
    return ModeSpectrum(eigenvalues=vals, eigenvectors=vecs, labels=labels, label_ok=ok)


def light_line_threshold(n: int, d: float) -> float:
    """Mode-index light line m* = n*d (d in wavelength units).

    Ring modes with |m| > m* have wavevector k_m = 2 pi m / (n d) beyond the
    free-space wavenumber and are guided / subradiant.
    """
    if n < 1 or d <= 0:
        raise ValueError("need n >= 1 and d > 0")
    return n * d


def min_decay_scan(kind: str, n_list, wavelength_over_d: float,
                   polarization="transverse", threads: int = 1) -> np.ndarray:
    """Minimum collective decay rate versus emitter number at fixed lambda/d.

    kind is 'ring' or 'chain'.  Returns an array of rows (n, min_k Gamma_k),
    computed in a pool of `threads` worker threads.  Rings with a symmetric
    polarization scheme take their rates from ring_spectrum; rings with a
    fixed dipole vector from the eigenvalues of the full h.  Chains take
    `polarization`, 'transverse' (z) or a dipole 3-vector, as their common
    dipole and their rates from chain_spectrum; any other string raises
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

    def one(n):
        if kind == "chain":
            lambdas = chain_spectrum(build_chain(n, d, polarization))
        else:
            array = build_ring(n, d, polarization)
            if array.ring_meta[0].scheme in SYMMETRIC_SCHEMES:
                lambdas = ring_spectrum(array)[1]
            else:
                lambdas = np.linalg.eigvals(assemble_heff(array))
        return float(np.min(-2.0 * np.imag(lambdas)))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        minima = list(pool.map(one, n_list))
    return np.array([[float(n), g] for n, g in zip(n_list, minima)])
