"""Ring-to-ring couplings, wave packets, propagation and transfer fidelity."""

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .geometry import EmitterArray, TwoRingConfig, build_ring, build_two_rings
from .spectrum import _couplings, assemble_heff, canonical_m_range, ring_spectrum, wrap_m


def __getattr__(name):
    """Module attributes loaded on first use (PEP 562).

    solve_ivp is scipy.integrate's, which takes ~0.5 s to import and only the
    ill-conditioned fallback of _evolve runs; it is read as a module attribute
    at call time, so it can be replaced on the module.
    """
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class RingRingCoupling:
    """Inter-ring coupling lambda_{m1,m2} in the angular momentum basis."""

    m1_values: np.ndarray        # canonical m labels of ring 1
    m2_values: np.ndarray        # canonical m labels of ring 2
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
        i = wrap_m(m1, len(self.m1_values)) - self.m1_values[0]
        j = wrap_m(m2, len(self.m2_values)) - self.m2_values[0]
        return complex(self.lambda_mm[i, j])


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
    return RingRingCoupling(m1_values=ms, m2_values=ms.copy(), lambda_mm=lam)


def single_ring_eigenvalues(n: int, d: float, polarization="tangential") -> np.ndarray:
    """Isolated-ring eigenvalues lambda_m over the canonical m range."""
    return ring_spectrum(build_ring(n, d, polarization))[1]


def eta_map(coupling: RingRingCoupling, ring1_lambdas: np.ndarray,
            ring2_lambdas: np.ndarray | None = None) -> np.ndarray:
    """Coupling figure of merit eta over (m1, m2).

    eta = J_{m1,m2}^2 / (4 Delta^2 + max{Gamma_m1^2, Gamma_m2^2}) with
    Delta = |J_m1 - J_m2| taken from the isolated single-ring spectra.
    """
    if ring2_lambdas is None:
        ring2_lambdas = ring1_lambdas
    j1 = np.real(ring1_lambdas)
    j2 = np.real(ring2_lambdas)
    g1 = -2.0 * np.imag(ring1_lambdas)
    g2 = -2.0 * np.imag(ring2_lambdas)
    delta = np.abs(j1[:, None] - j2[None, :])
    gmax2 = np.maximum(g1[:, None] ** 2, g2[None, :] ** 2)
    return coupling.shifts**2 / (4.0 * delta**2 + gmax2)


def gaussian_packet(array: EmitterArray, ring: int, center_site: int, m: int,
                    delta_theta: float) -> np.ndarray:
    """Gaussian wave packet with central momentum m on one ring.

    c_j proportional to e^{i m theta_j} exp(-|r_j - r_k|^2 / (2 R^2 dtheta^2))
    on the chosen ring's sites (chord distances), zero on the other ring;
    center_site is the local site index k within the ring.  Unit norm.
    """
    if delta_theta <= 0:
        raise ValueError("angular spread must be positive")
    meta = array.ring_meta[ring]
    if meta is None:
        raise ValueError("chosen group has no ring metadata")
    idx = np.asarray(array.groups[ring])
    n_sites = len(idx)
    if not 0 <= center_site < n_sites:
        raise ValueError(f"center site {center_site} outside ring of {n_sites} sites")
    pos = array.positions[idx]
    chord = np.linalg.norm(pos - pos[center_site], axis=1)
    if meta.radius > 0:
        envelope = np.exp(-(chord**2) / (2.0 * meta.radius**2 * delta_theta**2))
    else:                                   # a one-site ring: the packet is that site
        envelope = np.ones(n_sites)
    amps = np.exp(1j * m * meta.angles) * envelope
    state = np.zeros(array.n, dtype=complex)
    state[idx] = amps / np.linalg.norm(amps)
    return state


@dataclass
class Propagation:
    """Propagated single-excitation amplitudes on a time grid."""

    times: np.ndarray
    states: np.ndarray            # (len(times), n) complex
    method: str = "eig"           # 'eig' or 'ode' (ill-conditioned fallback)


def _evolve(h: np.ndarray, psi0s: np.ndarray, times: np.ndarray, targets: list[np.ndarray]):
    """Factor h once for all initial states psi_j = psi0s[:, j]: the method ('eig' or
    'ode'), cond(V), and lazily per j the (t, k) overlaps <T_jk|psi_j(t)> with T_j = targets[j].

    The overlaps are phases @ (a_j V^T conj(T_j)) with V a_j = psi_j solved (V^{-1} is not
    V^T/norms on degenerate +-m pairs), so the (t, n) states are never built.  When
    cond(V) > 1e8 each psi_j is integrated directly (DOP853), then projected.
    """
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be non-negative and ascending")
    h = np.asarray(h, dtype=complex)
    psi0s = np.asarray(psi0s, dtype=complex)
    vals, vecs = np.linalg.eig(h)
    cond = float(np.linalg.cond(vecs))
    if cond > 1e8:
        def integrate(psi0):
            sol = sys.modules[__name__].solve_ivp(
                lambda t, y: -1j * (h @ y), (0.0, times[-1] if len(times) else 0.0),
                psi0, t_eval=times, method="DOP853", rtol=1e-10, atol=1e-12)
            if not sol.success:
                raise ArithmeticError(f"direct integration failed: {sol.message}")
            return sol.y.T
        return "ode", cond, (integrate(psi0) @ np.conj(target)
                             for psi0, target in zip(psi0s.T, targets))
    a = np.linalg.solve(vecs, psi0s)                              # (n, j)
    phases = np.outer(times, -1j * vals)                          # (t, n)
    np.exp(phases, out=phases)
    return "eig", cond, (phases @ (a_j[:, None] * (vecs.T @ np.conj(target)))
                         for a_j, target in zip(a.T, targets))


def propagate(h: np.ndarray, psi0: np.ndarray, times) -> Propagation:
    """Evolve psi under dpsi/dt = -i h psi.

    Uses the eigendecomposition psi(t) = V exp(-i Lambda t) V^{-1} psi0; falls
    back to adaptive direct integration when the eigenvector matrix is
    ill-conditioned (condition number above 1e8).
    """
    times = np.asarray(times, dtype=float)
    method, _, states = _evolve(h, np.reshape(psi0, (-1, 1)), times, [np.eye(len(psi0))])
    return Propagation(times=times, states=next(states), method=method)


@dataclass(frozen=True)
class FidelityTrace:
    """Transfer fidelity versus time for a propagated wave packet."""

    times: np.ndarray
    fidelity: np.ndarray          # max_k |<target_k|psi(t)>|
    argmax_site: np.ndarray       # local site index in ring 2 achieving the max
    squared: np.ndarray = field(default=None)   # |overlap|^2 variant
    method: str = "eig"           # 'eig' or 'ode' (ill-conditioned fallback)
    cond: float | None = None     # condition number of the eigenvector matrix of h


def _targets(array: EmitterArray, m: int, delta_thetas) -> list[np.ndarray]:
    """Momentum-reversed packets centred on each ring-2 site, one (n, n2) set per width."""
    return [np.column_stack([gaussian_packet(array, ring=1, center_site=k, m=-m,
                                             delta_theta=float(dt))
                             for k in range(len(array.groups[1]))]) for dt in delta_thetas]


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
    method, cond, overlaps = _evolve(h, np.reshape(psi0, (-1, 1)), times,
                                     _targets(array, m, [delta_theta]))
    overlaps = np.abs(next(overlaps))                        # (t, k)
    best = np.argmax(overlaps, axis=1)
    fid = overlaps[np.arange(len(times)), best]
    return FidelityTrace(times=times, fidelity=fid, argmax_site=best, squared=fid**2,
                         method=method, cond=cond)


def farthest_site(array: EmitterArray, ring: int = 0) -> int:
    """Local index of the ring's site farthest from the other ring's center."""
    other = array.ring_meta[1 - ring].center
    idx = np.asarray(array.groups[ring])
    dist = np.linalg.norm(array.positions[idx] - other, axis=1)
    return int(np.argmax(dist))


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
    conds: np.ndarray             # (nx,) condition number of the eigenvector matrix of h


def fidelity_scan(n: int, d: float, polarization, m: int, x_values, delta_theta_values,
                  t_max: float | None = None, t_steps: int = 2000,
                  arrangement: str = "site-site", threads: int = 1) -> FidelityScan:
    """Scan max_t F over ring separation and initial packet width.

    The packet starts on ring 1 at the site farthest from ring 2.  For each
    separation the system is built and h factored once; all widths are
    propagated together on a uniform time grid of t_steps points up to t_max
    (default 20 pi / |J_{m,-m}|).  methods and conds record each separation's
    solver path and cond(V), as FidelityTrace does for one trace.
    """
    x_values = np.asarray(x_values, dtype=float)
    dts = np.asarray(delta_theta_values, dtype=float)
    if x_values.size == 0 or dts.size == 0:
        raise ValueError("scan ranges must be nonempty")

    def one_separation(x):
        system = build_two_rings(TwoRingConfig(arrangement=arrangement, n=n, d=d,
                                               gap=float(x), polarization=polarization))
        h = assemble_heff(system)
        horizon = t_max if t_max is not None else default_horizon(ring_ring_coupling(system, h), m)
        times = np.linspace(0.0, horizon, t_steps)
        k0_site = farthest_site(system, ring=0)
        psi0s = np.column_stack([gaussian_packet(system, ring=0, center_site=k0_site, m=m,
                                                 delta_theta=float(dt)) for dt in dts])
        method, cond, overlaps = _evolve(h, psi0s, times, _targets(system, m, dts))
        fid = np.column_stack([np.max(np.abs(o), axis=1) for o in overlaps])   # (t, width)
        peak = np.argmax(fid, axis=0)
        return (fid[peak, np.arange(len(dts))], times[peak], system.ring_meta[0].radius * dts,
                method, cond)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        rows = list(pool.map(one_separation, x_values))
    maxf, tat, widths, methods, conds = (np.array(column) for column in zip(*rows))
    return FidelityScan(x_values=x_values, delta_theta_values=dts, widths=widths,
                        max_fidelity=maxf, t_at_max=tat, methods=methods, conds=conds)
