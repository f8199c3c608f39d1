"""Independent oracles: closed-form two-atom couplings, a fixed-step RK4
propagator, a direct circulant ring sum, a dense chain matrix and a chain's
parity blocks written out by hand.  These
deliberately avoid the library's vectorized Green's kernels, its FFT and its
eigendecomposition code paths; the ring sum and the chain matrix take their
couplings one pair at a time from pair_coupling.
The fidelity-scan reference `fidelity_scan_from_states` steps the full state through the
time grid by one exact propagator scipy.linalg.expm(-1j h dt), one matrix-vector product a
step, and projects each state onto the targets: no eigendecomposition, no time block and
no phase table of `transfer`.  Both scan oracles take a default horizon from the package
(`transfer.default_horizon`), so that their time grids are those of the code under test.
The label oracle `classify_modes` names the modes of a dense `eig` of a ring's h
by angular momentum: the best spin-wave overlap assignment, with degenerate
clusters rotated onto the spin waves first.
`geometric_symmetry_group` finds the sigma_y and C2 symmetries of a site set by flipping
its coordinates about the centroid, matching each image to its nearest site and taking
each dipole's sign itself: it uses neither the (flip, perm) declarations of a builder nor
EmitterArray's check of them.
`dense_eigenmodes` is the textbook `eigenmodes`: one dense `eig` of the whole h, its columns
sorted by (Re, Im) of the eigenvalues and phased by `_fix_phases`, with no symmetry sector.
`reference_cell` is the text of one artifact cell by the CSV rules, one value at a
time, apart from the column writer of `output.write_csv`.
`chain_toeplitz_h` is a chain's dense h from one row of pair_coupling calls, and
`green_tensor_field` sums a state's field one emitter's green_tensor at a time, apart from
the blocked kernel `radiated_field`.
`ring_eigenvalue`, `decay_matrix` and `field_amplitude` are not oracles: they are
thin wrappers over the code under test, kept here for the tests that call them."""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from dipolerings.emfield import green_tensor, pair_coupling, radiated_field
from dipolerings.geometry import EmitterArray, build_two_rings
from dipolerings.spectrum import (ModeSpectrum, _fix_phases, assemble_heff, canonical_m_range,
                                  ring_spectrum, spin_wave_state, wrap_m)
from dipolerings.transfer import default_horizon, farthest_site, gaussian_packet

K0 = 2.0 * np.pi
# Largest |S h S^T - h| / max|h| at which geometric_symmetry_group keeps a site involution S.
SYMMETRY_RTOL = 1e-10


def two_atom_perpendicular(r):
    """(omega, gamma) for two parallel dipoles perpendicular to the separation.

    Textbook closed forms in units of Gamma0, x = k0 r:
        omega = (3/4) [-cos x / x + sin x / x^2 + cos x / x^3]
        gamma = (3/2) [ sin x / x + cos x / x^2 - sin x / x^3]
    """
    x = K0 * r
    omega = 0.75 * (-np.cos(x) / x + np.sin(x) / x**2 + np.cos(x) / x**3)
    gamma = 1.5 * (np.sin(x) / x + np.cos(x) / x**2 - np.sin(x) / x**3)
    return omega, gamma


def two_atom_parallel(r):
    """(omega, gamma) for two dipoles aligned with the separation axis.

        omega = -(3/2) [sin x / x^2 + cos x / x^3]
        gamma =   3    [sin x / x^3 - cos x / x^2]
    """
    x = K0 * r
    omega = -1.5 * (np.sin(x) / x**2 + np.cos(x) / x**3)
    gamma = 3.0 * (np.sin(x) / x**3 - np.cos(x) / x**2)
    return omega, gamma


def rk4_propagate(h, psi0, t_end, dt=1e-3):
    """Classical fixed-step 4th-order integration of dpsi/dt = -i h psi."""
    def f(y):
        return -1j * (h @ y)

    y = np.asarray(psi0, dtype=complex).copy()
    steps = int(round(t_end / dt))
    for _ in range(steps):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def random_geometry(rng, n, box=1.5, min_sep=0.05):
    """Random emitter positions with a minimum separation, fixed z dipoles."""
    pts = []
    while len(pts) < n:
        cand = rng.uniform(-box, box, 3)
        if all(np.linalg.norm(cand - p) >= min_sep for p in pts):
            pts.append(cand)
    positions = np.array(pts)
    dipoles = np.tile([0.0, 0.0, 1.0], (n, 1))
    return positions, dipoles


def circulant_ring_eigenvalues(ring, ms):
    """lambda_m = -i/2 + sum_l h_0l e^{i m (theta_l - theta_0)} of a one-group
    symmetric ring, summed directly with each h_0l from pair_coupling."""
    pos, dip, angles = ring.positions, ring.dipoles, ring.ring_meta[0].angles
    terms = [(pair_coupling(pos[0], dip[0], pos[l], dip[l]).h, angles[l] - angles[0])
             for l in range(1, len(pos))]
    return np.array([-0.5j + sum(h * np.exp(1j * m * dtheta) for h, dtheta in terms)
                     for m in ms])


def chain_eigenvalues(n, d, dipole):
    """All eigenvalues of an open chain of n emitters at x = 0, d, .., (n-1) d with one
    common dipole: every entry h_ij of the dense matrix from pair_coupling, then eigvals."""
    p = np.asarray(dipole, dtype=complex)
    p = p / np.sqrt(np.vdot(p, p).real)
    sites = [np.array([j * d, 0.0, 0.0]) for j in range(n)]
    h = np.array([[-0.5j if i == j else pair_coupling(sites[i], p, sites[j], p).h
                   for j in range(n)] for i in range(n)])
    return np.linalg.eigvals(h)


def chain_toeplitz_h(n, d):
    """Dense h of an open chain of n z dipoles at spacing d along x: row 0 from n - 1
    pair_coupling calls, and h_ij = row[|i-j|]."""
    z = np.array([0.0, 0.0, 1.0])
    row = np.array([-0.5j] + [pair_coupling(np.zeros(3), z, np.array([k * d, 0.0, 0.0]), z).h
                              for k in range(1, n)])
    return row[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]


def chain_parity_eigenvalues(row):
    """Eigenvalues of the symmetric Toeplitz h_ij = row[|i-j|] of a uniform open chain (row:
    row 0 of h) from its reflection-parity blocks, sorted by (Re, Im) as chain_spectrum's.

    On the basis (e_i +- e_{n-1-i})/sqrt(2), i < n//2, h splits into the even block T + H and
    the odd block T - H, with T_ij = row[|i-j|] and H_ij = row[n-1-i-j]; for odd n the even
    block also holds the middle site, coupled by sqrt(2) row[n//2-i].  Written out by hand,
    apart from the sector construction, so chain_spectrum can be held to it bit for bit.
    """
    n = len(row)
    half = n // 2
    i = np.arange(half)
    toeplitz = row[np.abs(i[:, None] - i)]
    hankel = row[n - 1 - i[:, None] - i]
    even = np.empty((n - half, n - half), dtype=complex)
    even[:half, :half] = toeplitz + hankel
    if n % 2:
        even[:half, half] = even[half, :half] = np.sqrt(2.0) * row[half - i]
        even[half, half] = row[0]
    vals = np.concatenate([np.linalg.eigvals(even), np.linalg.eigvals(toeplitz - hankel)])
    return vals[np.lexsort((np.imag(vals), np.real(vals)))]


def dense_eigenmodes(h):
    """(eigenvalues, eigenvectors) of h from one dense np.linalg.eig, sorted by (Re, Im), the
    columns in the _fix_phases convention."""
    vals, vecs = np.linalg.eig(h)
    order = np.lexsort((np.imag(vals), np.real(vals)))
    return vals[order], _fix_phases(vecs[:, order])


def exact_steps(h, psi0, times):
    """(t, n) states e^{-i h t} psi0 on the uniform grid `times` from t = 0: psi0, then one
    step of the exact propagator expm(-1j h dt) per time."""
    states = np.empty((len(times), len(psi0)), dtype=complex)
    states[0] = psi0
    if len(times) > 1:
        step = expm(-1j * h * (times[1] - times[0]))
        for k in range(1, len(times)):
            states[k] = step @ states[k - 1]
    return states


def fidelity_scan_from_states(n, d, polarization, m, x_values, delta_theta_values,
                              t_max, t_steps, arrangement):
    """(max_fidelity, t_at_max) over (x, dtheta) from the full (t, n) states of
    exact_steps, projected onto the ring-2 target packets afterwards."""
    maxf = np.zeros((len(x_values), len(delta_theta_values)))
    tat = np.zeros_like(maxf)
    for i, x in enumerate(x_values):
        system = build_two_rings(arrangement, n, d, float(x), polarization)
        h = assemble_heff(system)
        horizon = t_max if t_max is not None else default_horizon(system, m)
        times = np.linspace(0.0, horizon, t_steps)
        for j, dt in enumerate(delta_theta_values):
            psi0 = gaussian_packet(system, 0, farthest_site(system, 0), m, dt)
            targets = np.column_stack([gaussian_packet(system, 1, k, -m, dt) for k in range(n)])
            fid = np.abs(exact_steps(h, psi0, times) @ np.conj(targets)).max(axis=1)
            maxf[i, j], tat[i, j] = fid.max(), times[np.argmax(fid)]
    return maxf, tat


def fidelity_scan_from_dense_eig(n, d, polarization, m, x_values, delta_theta_values,
                                 t_max, t_steps, arrangement):
    """(max_fidelity, t_at_max) over (x, dtheta) from the textbook time axis: one dense
    np.linalg.eig of the full h and the (t, n) table np.exp(np.outer(times, -1j * vals)),
    with no symmetry sector, running product or zeroed tail of the code under test."""
    maxf = np.zeros((len(x_values), len(delta_theta_values)))
    tat = np.zeros_like(maxf)
    for i, x in enumerate(x_values):
        system = build_two_rings(arrangement, n, d, float(x), polarization)
        h = assemble_heff(system)
        horizon = t_max if t_max is not None else default_horizon(system, m)
        times = np.linspace(0.0, horizon, t_steps)
        vals, vecs = np.linalg.eig(h)
        phases = np.exp(np.outer(times, -1j * vals))
        for j, dt in enumerate(delta_theta_values):
            psi0 = gaussian_packet(system, 0, farthest_site(system, 0), m, dt)
            targets = np.column_stack([gaussian_packet(system, 1, k, -m, dt) for k in range(n)])
            states = (phases * np.linalg.solve(vecs, psi0)) @ vecs.T
            fid = np.abs(states @ np.conj(targets)).max(axis=1)
            maxf[i, j], tat[i, j] = fid.max(), times[np.argmax(fid)]
    return maxf, tat


def _geometric_involution(array: EmitterArray, h: np.ndarray, flip) -> tuple | None:
    """The map r -> c + flip * (r - c) about the centroid c (flip a diagonal of +-1) as a
    signed site permutation (perm, sign) with p[perm[i]] = sign[i] * flip * p[i], or None
    unless it maps the sites onto themselves and S h S^T = h to SYMMETRY_RTOL."""
    pos, dip = array.positions, array.dipoles
    center = pos.mean(axis=0)
    image = center + flip * (pos - center)
    dist2 = sum((image[:, None, a] - pos[None, :, a]) ** 2 for a in range(3))
    perm = np.argmin(dist2, axis=1)
    tol = 1e-9 * (np.max(np.abs(pos - center)) or 1.0)
    turned = flip * dip
    sign = np.where(np.real(np.sum(np.conj(dip[perm]) * turned, axis=1)) < 0, -1.0, 1.0)
    if (np.any(dist2[np.arange(len(pos)), perm] > tol**2)
            or not np.array_equal(perm[perm], np.arange(len(pos)))
            or np.any(np.abs(turned - sign[:, None] * dip[perm])
                      > 1e-9 * np.abs(dip).max(axis=1, keepdims=True))):
        return None
    # (S h S^T)[perm[i], perm[j]] = sign[i] sign[j] h[i, j], and sign[perm] = sign
    residual = np.abs(np.outer(sign, sign) * h[np.ix_(perm, perm)] - h)
    return (perm, sign) if residual.max() <= SYMMETRY_RTOL * np.abs(h).max() else None


def geometric_symmetry_group(array: EmitterArray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(perms, signs), each (|G|, n), of the group that the mirror sigma_y and the C2 rotation
    about z through the centroid generate, each kept where it maps the sites, their dipoles
    and h onto themselves; element k holds generator j iff bit j of k."""
    perms, signs = np.arange(len(h))[None], np.ones((1, len(h)))
    for flip in ((1.0, -1.0, 1.0), (-1.0, -1.0, 1.0)):
        gen = _geometric_involution(array, h, np.array(flip))
        if gen is not None:
            perms, signs = np.r_[perms, gen[0][perms]], np.r_[signs, signs * gen[1][perms]]
    return perms, signs


def reference_cell(v, digits):
    """Cell text of a Python value at `digits` significant figures, by the rules the
    artifacts have always had: a bool as 1 or 0, a float as "0" for +-0, scientific
    below 1e-4 and %g otherwise, anything else as str()."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if not isinstance(v, float):
        return str(v)
    v = float(v)
    if v == 0.0:
        return "0"
    if abs(v) < 1e-4:
        return f"{v:.{digits - 1}e}"
    return f"{v:.{digits}g}"


def green_tensor_field(array: EmitterArray, state, point) -> np.ndarray:
    """E+(point) = sum_i c_i G(point - r_i) . p_i, one green_tensor call per emitter."""
    return sum(c * green_tensor(point - r) @ p
               for c, r, p in zip(state, array.positions, array.dipoles))


def ring_eigenvalue(array: EmitterArray, m: int, group: int = 0) -> complex:
    """Eigenvalue of a symmetric ring for the spin wave of momentum m (m taken mod N)."""
    ms, lambdas = ring_spectrum(array, group)
    return complex(lambdas[wrap_m(m, len(ms)) - ms[0]])


def decay_matrix(h: np.ndarray) -> np.ndarray:
    """Collective decay matrix Gamma_ij = -2 Im{h_ij} (diagonal Gamma0)."""
    return -2.0 * np.imag(h)


def field_amplitude(array: EmitterArray, state: np.ndarray, point) -> np.ndarray:
    """Positive-frequency field E+(r) = sum_i G(r - r_i) . p_i c_i.

    The overall prefactor is 1 in internal units; raises SingularityError if
    the point coincides with an emitter.
    """
    point = np.asarray(point, dtype=float)[None, :]
    return radiated_field(point, array.positions, array.dipoles, state)[0][0]


@dataclass
class LabelledSpectrum(ModeSpectrum):
    """A ModeSpectrum with the angular momentum of each mode from classify_modes."""

    labels: np.ndarray       # (n,) int
    label_ok: np.ndarray     # (n,) bool, False if ambiguous


def classify_modes(spec: ModeSpectrum, array: EmitterArray, group: int = 0,
                   overlap_threshold: float = 0.9) -> LabelledSpectrum:
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
    return LabelledSpectrum(eigenvalues=vals, eigenvectors=vecs, labels=labels, label_ok=ok)
