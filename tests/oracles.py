"""Independent oracles: closed-form two-atom couplings, a fixed-step RK4
propagator, a direct circulant ring sum, a dense chain matrix and a chain's
parity blocks written out by hand.  These
deliberately avoid the library's vectorized Green's kernels, its FFT and its
eigendecomposition code paths; the ring sum and the chain matrix take their
couplings one pair at a time from pair_coupling.
The fidelity-scan reference is the exception: it projects the full states of
`propagate` (itself checked against RK4) point by point, the direct form that
`fidelity_scan` factors and projects before the time expansion."""

import numpy as np

from dipolerings.emfield import pair_coupling
from dipolerings.geometry import TwoRingConfig, build_two_rings
from dipolerings.spectrum import assemble_heff
from dipolerings.transfer import (default_horizon, farthest_site, gaussian_packet, propagate,
                                  ring_ring_coupling)

K0 = 2.0 * np.pi


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


def chain_parity_eigenvalues(row):
    """Eigenvalues of the symmetric Toeplitz h_ij = row[|i-j|] of a uniform open chain (row:
    row 0 of h) from its reflection-parity blocks, in chain_spectrum's order.

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
    return np.concatenate([np.linalg.eigvals(even), np.linalg.eigvals(toeplitz - hankel)])


def fidelity_scan_from_states(n, d, polarization, m, x_values, delta_theta_values,
                              t_max, t_steps, arrangement):
    """(max_fidelity, t_at_max) over (x, dtheta), one propagate per grid point: the
    full (t, n) states, projected onto the ring-2 target packets afterwards."""
    maxf = np.zeros((len(x_values), len(delta_theta_values)))
    tat = np.zeros_like(maxf)
    for i, x in enumerate(x_values):
        system = build_two_rings(TwoRingConfig(arrangement, n, d, float(x), polarization))
        h = assemble_heff(system)
        horizon = t_max if t_max is not None else default_horizon(ring_ring_coupling(system, h), m)
        times = np.linspace(0.0, horizon, t_steps)
        for j, dt in enumerate(delta_theta_values):
            psi0 = gaussian_packet(system, 0, farthest_site(system, 0), m, dt)
            targets = np.column_stack([gaussian_packet(system, 1, k, -m, dt) for k in range(n)])
            fid = np.abs(propagate(h, psi0, times).states @ np.conj(targets)).max(axis=1)
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
        system = build_two_rings(TwoRingConfig(arrangement, n, d, float(x), polarization))
        h = assemble_heff(system)
        horizon = t_max if t_max is not None else default_horizon(ring_ring_coupling(system, h), m)
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
