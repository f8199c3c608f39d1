"""Ring-to-ring couplings, wave packets, propagation and transfer fidelity."""

from dataclasses import dataclass

import numpy as np

from .geometry import EmitterArray, build_two_rings
from .spectrum import (_block, _couplings, _pool_map, _project, _sectors, assemble_heff,
                       canonical_m_range, wrap_m)


@dataclass
class RingRingCoupling:
    """Inter-ring coupling lambda_{m1,m2} in the angular momentum basis."""

    m_values: np.ndarray         # canonical m labels, the same on both rings
    lambda_mm: np.ndarray        # (N, N) complex, units Gamma0

    @property
    def shifts(self) -> np.ndarray:
        """Dispersive coupling J_{m1,m2} = Re{lambda}."""
        return np.real(self.lambda_mm)

    @property
    def rates(self) -> np.ndarray:
        """Dissipative coupling Gamma_{m1,m2} = -2 Im{lambda}."""
        return -2.0 * np.imag(self.lambda_mm)

    def at(self, m1: int, m2: int) -> complex:
        """lambda at (m1, m2), with mod-N wrapping of out-of-range labels."""
        n, m0 = len(self.m_values), self.m_values[0]
        return complex(self.lambda_mm[wrap_m(m1, n) - m0, wrap_m(m2, n) - m0])


def ring_ring_coupling(array: EmitterArray, h: np.ndarray | None = None) -> RingRingCoupling:
    """Angular-momentum-basis coupling between the two rings of a pair system.

    lambda_{m1,m2} = (1/N) sum_{i in R1, j in R2} h_ij e^{i(m1 theta_i - m2 theta_j)}
    with each ring's local site angles.  Without h only the N x N inter-ring
    block of h is built.
    """
    if len(array.groups) != 2 or len(array.groups[0]) != len(array.groups[1]):
        raise ValueError("need exactly two equal-size ring groups")
    idx1, idx2 = (np.asarray(g) for g in array.groups)
    block = _couplings(array, idx1, idx2) if h is None else h[np.ix_(idx1, idx2)]
    n = len(idx1)
    th1 = array.ring_meta[0].angles
    th2 = array.ring_meta[1].angles
    ms = canonical_m_range(n)
    e1 = np.exp(1j * np.outer(ms, th1))          # (m1, i)
    e2 = np.exp(-1j * np.outer(th2, ms))         # (j, m2)
    lam = e1 @ block @ e2 / n
    return RingRingCoupling(m_values=ms, lambda_mm=lam)


def eta_map(coupling: RingRingCoupling, ring_lambdas: np.ndarray) -> np.ndarray:
    """Coupling figure of merit eta over (m1, m2).

    eta = J_{m1,m2}^2 / (4 Delta^2 + max{Gamma_m1^2, Gamma_m2^2}) with
    Delta = |J_m1 - J_m2| taken from the isolated-ring spectrum ring_lambdas,
    which the two mirror-image rings of a pair share.  A zero denominator
    (Delta = 0 and both rates 0, below the float64 floor) raises
    ArithmeticError naming (m1, m2).
    """
    j = np.real(ring_lambdas)
    g2 = (-2.0 * np.imag(ring_lambdas)) ** 2
    denominator = 4.0 * np.subtract.outer(j, j) ** 2 + np.maximum.outer(g2, g2)
    if not np.all(denominator > 0.0):
        i, k = np.argwhere(~(denominator > 0.0))[0]
        raise ArithmeticError(
            f"eta is undefined at (m1, m2) = ({coupling.m_values[i]}, {coupling.m_values[k]}): "
            "the detuning is 0 and the isolated-ring rate Gamma_m is below the float64 floor")
    return coupling.shifts**2 / denominator


def _packets(array: EmitterArray, ring: int, centers: np.ndarray, m: int,
             delta_theta: float) -> np.ndarray:
    """Gaussian packets on one ring centred on each local site in centers, one (n,) column
    per centre, from one (centres, sites) table of chord distances; see gaussian_packet."""
    if delta_theta <= 0:
        raise ValueError("angular spread must be positive")
    meta = array.ring_meta[ring]
    if meta is None:
        raise ValueError("chosen group has no ring metadata")
    idx = np.asarray(array.groups[ring])
    pos = array.positions[idx]
    chord = np.linalg.norm(pos[None, :, :] - pos[centers, None, :], axis=2)   # (centre, site)
    if meta.radius > 0:
        envelope = np.exp(-(chord**2) / (2.0 * meta.radius**2 * delta_theta**2))
    else:                                   # a one-site ring: the packet is that site
        envelope = np.ones_like(chord)
    amps = np.exp(1j * m * meta.angles) * envelope
    states = np.zeros((array.n, len(centers)), dtype=complex)
    states[idx] = (amps / np.linalg.norm(amps, axis=1, keepdims=True)).T
    return states


def gaussian_packet(array: EmitterArray, ring: int, center_site: int, m: int,
                    delta_theta: float) -> np.ndarray:
    """Gaussian wave packet with central momentum m on one ring.

    c_j proportional to e^{i m theta_j} exp(-|r_j - r_k|^2 / (2 R^2 dtheta^2))
    on the chosen ring's sites (chord distances), zero on the other ring;
    center_site is the local site index k within the ring.  Unit norm.
    """
    n_sites = len(array.groups[ring])
    if not 0 <= center_site < n_sites:
        raise ValueError(f"center site {center_site} outside ring of {n_sites} sites")
    return _packets(array, ring, np.array([center_site]), m, delta_theta)[:, 0]


@dataclass
class Propagation:
    """Propagated single-excitation amplitudes on a time grid."""

    times: np.ndarray
    states: np.ndarray            # (len(times), n) complex
    method: str = "eig"           # 'eig' or 'ode' (ill-conditioned fallback)


# Largest |S h S^T - h| / max|h| at which a site involution S counts as a symmetry of h.
SYMMETRY_RTOL = 1e-10


def _involution(array: EmitterArray, h: np.ndarray, flip) -> tuple | None:
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


def _symmetry_group(array: EmitterArray | None, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The site symmetries of h as the group G = (perms, signs) of _sectors, each (|G|, n).

    The candidates are the mirror sigma_y and the C2 rotation about z through the centroid of
    the sites (both symmetries of a site-site ring pair, sigma_y of a site-edge pair), each
    kept where it maps the sites and h onto themselves (see _involution).  Without an array,
    or without a kept symmetry, G is the identity and its one sector is Q = I.
    """
    perms, signs = np.arange(len(h))[None], np.ones((1, len(h)))
    flips = ((1.0, -1.0, 1.0), (-1.0, -1.0, 1.0)) if array is not None else ()
    for flip in flips:
        gen = _involution(array, h, np.array(flip))
        if gen is not None:       # gen after each element; diagonal flips commute: G is Z2^k
            perms, signs = np.r_[perms, gen[0][perms]], np.r_[signs, signs * gen[1][perms]]
    return perms, signs


# Row spacing of the exact np.exp anchors of the phase table (see _phases).
_ANCHOR_ROWS = 64
# ln sqrt(tiny) = ln 2^-511: phases of smaller analytic magnitude are set to exactly 0.
_LOG_PHASE_FLOOR = 0.5 * np.log(np.finfo(float).tiny)


def _phases(times: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The (t, n) table e^{-i vals t} over ascending times, allocating nothing else of its size.

    Every _ANCHOR_ROWS-th row is an exact np.exp; each row between is the row before times
    e^{-i vals dt}, one factor per distinct step dt of the grid, so a linspace of T points
    costs about T/_ANCHOR_ROWS + 13 rows of exp, and re-anchoring keeps the product's error
    from growing with the number of steps.  Where the analytic magnitude e^{Im(vals) t} is
    below 2^-511 (sqrt tiny, far below the n eps cond(V) round-off floor of a fidelity) the
    entry is exactly 0, so no product with it is subnormal; columns with Im(vals) >= 0 keep
    every row.
    """
    table = np.empty((len(times), len(vals)), dtype=complex)
    steps, step_of = np.unique(np.diff(times), return_inverse=True)
    factors = np.exp(np.outer(steps, -1j * vals))
    table[::_ANCHOR_ROWS] = np.exp(np.outer(times[::_ANCHOR_ROWS], -1j * vals))
    for row in range(1, len(times)):
        if row % _ANCHOR_ROWS:
            np.multiply(table[row - 1], factors[step_of[row - 1]], out=table[row])
    decaying = np.flatnonzero(np.imag(vals) < 0)
    tails = np.searchsorted(times, _LOG_PHASE_FLOOR / np.imag(vals[decaying]), side="right")
    for col, start in zip(decaying, tails):
        table[start:, col] = 0.0
    return table


def _evolve(array: EmitterArray | None, h: np.ndarray, psi0s: np.ndarray, times: np.ndarray,
            targets: list[np.ndarray]):
    """Factor h once per symmetry sector of array (see _symmetry_group) for all initial states
    psi_j = psi0s[:, j]: the method ('eig' or 'ode'), cond(V), and lazily per j the (t, k)
    overlaps <T_jk|psi_j(t)> with T_j = targets[j].

    Each block Q_s^T h Q_s comes from the rows h[reps] of the orbit representatives alone and
    is factored by eig into W_s; V = [Q_s W_s] is never formed (see _block and _project).
    Q is orthogonal, so cond(V) is the largest singular value over all W_s over the smallest.
    The overlaps are phases @ (a_j W^T Q^T conj(T_j)) with W_s a_s = Q_s^T psi_j solved per
    sector (W_s^{-1} is not W_s^T/norms on degenerate +-m pairs), so the (t, n) states are
    never built; the (t, n) table e^{-i lambda t} is exact exp anchors joined by running
    products, with tails below sqrt(tiny) zeroed (see _phases).  When cond(V) > 1e8 each
    psi_j is integrated under the full h (DOP853).
    """
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be non-negative and ascending")
    h = np.asarray(h, dtype=complex)
    psi0s = np.asarray(psi0s, dtype=complex)
    sectors = _sectors(*_symmetry_group(array, h))
    blocks = [np.linalg.eig(_block(s, h[s[0]])) for s in sectors]   # s[0]: the orbit reps
    sv = np.concatenate([np.linalg.svd(w, compute_uv=False) for _, w in blocks])
    cond = float(sv.max() / sv.min()) if sv.min() > 0 else np.inf   # singular W_s
    if cond > 1e8:
        from scipy.integrate import solve_ivp   # ~0.5 s to import; only this fallback runs it

        def integrate(psi0):
            sol = solve_ivp(
                lambda t, y: -1j * (h @ y), (0.0, times[-1] if len(times) else 0.0),
                psi0, t_eval=times, method="DOP853", rtol=1e-10, atol=1e-12)
            if not sol.success:
                raise ArithmeticError(f"direct integration failed: {sol.message}")
            return sol.y.T
        return "ode", cond, (integrate(psi0) @ np.conj(target)
                             for psi0, target in zip(psi0s.T, targets))
    a = np.vstack([np.linalg.solve(w, _project(s, psi0s)) for s, (_, w) in zip(sectors, blocks)])
    phases = _phases(times, np.concatenate([vals for vals, _ in blocks]))
    return "eig", cond, (phases @ (a_j[:, None] * np.vstack([
        w.T @ _project(s, conj) for s, (_, w) in zip(sectors, blocks)]))
        for a_j, conj in zip(a.T, map(np.conj, targets)))


def propagate(h: np.ndarray, psi0: np.ndarray, times) -> Propagation:
    """Evolve psi under dpsi/dt = -i h psi.

    Uses the eigendecomposition psi(t) = V exp(-i Lambda t) V^{-1} psi0 with h factored
    once per symmetry sector; without an array no site symmetry is known, so the one
    sector is Q = I.  Falls back to adaptive direct integration when the eigenvector
    matrix is ill-conditioned (condition number above 1e8).
    """
    times = np.asarray(times, dtype=float)
    method, _, states = _evolve(None, h, np.reshape(psi0, (-1, 1)), times,
                                [np.eye(len(psi0))])
    return Propagation(times=times, states=next(states), method=method)


@dataclass(frozen=True)
class FidelityTrace:
    """Fidelity versus time of a propagated packet.  argmax_site is the lowest site within the
    floor n eps cond(V) ('eig') or n eps ('ode') of F, or -1 where F is at or below it (t = 0)."""

    times: np.ndarray
    fidelity: np.ndarray          # max_k |<target_k|psi(t)>|
    argmax_site: np.ndarray       # local site index in ring 2 achieving the max, or -1
    method: str = "eig"           # 'eig' or 'ode' (ill-conditioned fallback)
    cond: float | None = None     # cond(V), V = [Q_s W_s], from the singular values of each W_s


def _targets(array: EmitterArray, m: int, delta_thetas) -> list[np.ndarray]:
    """Momentum-reversed packets centred on each ring-2 site, one (n, n2) set per width."""
    centers = np.arange(len(array.groups[1]))
    return [_packets(array, 1, centers, -m, float(dt)) for dt in delta_thetas]


def fidelity_trace(array: EmitterArray, psi0: np.ndarray, m: int, delta_theta: float,
                   times, h: np.ndarray | None = None) -> FidelityTrace:
    """Fidelity of transfer into a momentum-reversed packet on ring 2.

    F(t) = max_k |<Psi_{2,k}^{-m} | Psi(t)>| with the target packets built with
    the same angular spread as the initial state and the overlap taken against
    the unnormalized evolved state (photon loss lowers F).
    """
    if h is None:
        h = assemble_heff(array)
    times = np.asarray(times, dtype=float)
    method, cond, overlaps = _evolve(array, h, np.reshape(psi0, (-1, 1)), times,
                                     _targets(array, m, [delta_theta]))
    overlaps = np.abs(next(overlaps))                        # (t, k)
    fid = np.max(overlaps, axis=1)
    floor = len(h) * np.finfo(float).eps * (cond if method == "eig" else 1.0)
    best = np.argmax(overlaps >= (fid - floor)[:, None], axis=1)   # ties within floor: lowest
    return FidelityTrace(times=times, fidelity=fid, argmax_site=np.where(fid > floor, best, -1),
                         method=method, cond=cond)


def farthest_site(array: EmitterArray, ring: int = 0) -> int:
    """Local index of the ring's site farthest from the other ring's center.

    Sites within 1e-12 relative of the largest distance count as tied, and the lowest index
    wins: for odd n the two mirror-image sites (n-1)/2 and (n+1)/2 differ only by round-off.
    """
    other = array.ring_meta[1 - ring].center
    idx = np.asarray(array.groups[ring])
    dist = np.linalg.norm(array.positions[idx] - other, axis=1)
    return int(np.argmax(dist >= (1.0 - 1e-12) * dist.max()))


def default_horizon(coupling: RingRingCoupling, m: int) -> float:
    """Default evolution horizon: 20 pi over the |J_{m,-m}| coupling rate."""
    j = abs(np.real(coupling.at(m, -m)))
    if j == 0.0:
        raise ValueError("zero inter-ring coupling; specify the horizon explicitly")
    return 20.0 * np.pi / j


@dataclass
class FidelityScan:
    """Peak transfer fidelity over a (separation, packet width) grid."""

    x_values: np.ndarray
    delta_theta_values: np.ndarray
    widths: np.ndarray            # R * delta_theta per (x, dtheta), (nx, nw)
    max_fidelity: np.ndarray      # (nx, nw)
    t_at_max: np.ndarray          # (nx, nw)
    methods: np.ndarray           # (nx,) 'eig' or 'ode' (ill-conditioned fallback) per x
    conds: np.ndarray             # (nx,) cond(V), from the singular values of each W_s


def fidelity_scan(n: int, d: float, polarization, m: int, x_values, delta_theta_values,
                  t_max: float | None = None, t_steps: int = 2000,
                  arrangement: str = "site-site", threads: int = 1) -> FidelityScan:
    """Scan max_t F over ring separation and initial packet width.

    The packet starts on ring 1 at the site farthest from ring 2.  For each
    separation the system is built and h factored once per symmetry sector; all widths are
    propagated together on a uniform time grid of t_steps points up to t_max
    (default 20 pi / |J_{m,-m}|).  methods and conds record each separation's
    solver path and cond(V), as FidelityTrace does for one trace.
    """
    x_values = np.asarray(x_values, dtype=float)
    dts = np.asarray(delta_theta_values, dtype=float)
    if x_values.size == 0 or dts.size == 0:
        raise ValueError("scan ranges must be nonempty")

    def one_separation(x):
        system = build_two_rings(arrangement, n, d, float(x), polarization)
        h = assemble_heff(system)
        horizon = t_max if t_max is not None else default_horizon(ring_ring_coupling(system, h), m)
        times = np.linspace(0.0, horizon, t_steps)
        k0_site = farthest_site(system, ring=0)
        psi0s = np.column_stack([gaussian_packet(system, ring=0, center_site=k0_site, m=m,
                                                 delta_theta=float(dt)) for dt in dts])
        method, cond, overlaps = _evolve(system, h, psi0s, times, _targets(system, m, dts))
        fid = np.column_stack([np.max(np.abs(o), axis=1) for o in overlaps])   # (t, width)
        peak = np.argmax(fid, axis=0)
        return (fid[peak, np.arange(len(dts))], times[peak], system.ring_meta[0].radius * dts,
                method, cond)

    rows = _pool_map(one_separation, x_values, threads)
    maxf, tat, widths, methods, conds = (np.array(column) for column in zip(*rows))
    return FidelityScan(x_values=x_values, delta_theta_values=dts, widths=widths,
                        max_fidelity=maxf, t_at_max=tat, methods=methods, conds=conds)
