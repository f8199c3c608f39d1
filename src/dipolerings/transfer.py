"""Ring-to-ring couplings, wave packets, propagation and transfer fidelity."""

import functools
from dataclasses import dataclass

import numpy as np

from .emfield import K0
from .geometry import EmitterArray, build_two_rings
from .spectrum import (_BLOCK_ENTRIES, _couplings, _factor, _orbit_rows, _pool_map, _project,
                       _ring, _symmetry_elements, assemble_heff, canonical_m_range, wrap_m)


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


def ring_ring_coupling(array: EmitterArray) -> RingRingCoupling:
    """Angular-momentum-basis coupling between the two rings of a pair system.

    lambda_{m1,m2} = (1/N) sum_{i in R1, j in R2} h_ij e^{i(m1 theta_i - m2 theta_j)}
    with each ring's local site angles, from the N x N inter-ring block of h alone.
    Groups without ring metadata raise ValueError.
    """
    idx1, idx2 = _ring_groups(array)
    th1, th2 = (_ring(array, group).angles for group in (0, 1))
    n = len(idx1)
    ms = canonical_m_range(n)
    e1 = np.exp(1j * np.outer(ms, th1))          # (m1, i)
    e2 = np.exp(-1j * np.outer(th2, ms))         # (j, m2)
    lam = e1 @ _couplings(array, idx1, idx2) @ e2 / n
    return RingRingCoupling(m_values=ms, lambda_mm=lam)


def _ring_groups(array: EmitterArray) -> tuple[np.ndarray, np.ndarray]:
    """The site indices of a pair's two rings; ValueError unless there are two of equal size."""
    if len(array.groups) != 2 or len(array.groups[0]) != len(array.groups[1]):
        raise ValueError("need exactly two equal-size ring groups")
    return np.asarray(array.groups[0]), np.asarray(array.groups[1])


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
    meta = _ring(array, ring)
    idx = np.asarray(array.groups[ring])
    pos = array.positions[idx]
    chord = np.linalg.norm(pos[None, :, :] - pos[centers, None, :], axis=2)   # (centre, site)
    # a width out of range gives inf or nan amplitudes, which the callers report; the
    # exponent is formed in float64, so a width past sqrt(float max) gives envelope 1
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if meta.radius > 0:
            envelope = np.exp(-(chord**2) / (2.0 * meta.radius**2 * np.float64(delta_theta)**2))
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
    method: str = "eig"           # 'eig', or 'ode': direct propagation, no eigenvectors


# Row spacing of the exact np.exp anchors of the phase table (see _phases).
_ANCHOR_ROWS = 64
# ln sqrt(tiny) = ln 2^-511: phases of smaller analytic magnitude are set to exactly 0.
_LOG_PHASE_FLOOR = 0.5 * np.log(np.finfo(float).tiny)


@np.errstate(over="ignore", invalid="ignore")   # t out of range: nan, which callers report
def _phases(times: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The (t, n) table e^{-i vals t} over ascending times, allocating nothing else of its size.

    Every _ANCHOR_ROWS-th row is an exact np.exp; each row between is the row before times
    e^{-i vals dt}, one factor per distinct step dt of the grid, so a linspace of T points
    costs about T/_ANCHOR_ROWS + 13 rows of exp, and re-anchoring keeps the product's error
    from growing with the number of steps.  The products run as one strided multiply per
    offset within a block of rows.  Where the analytic magnitude e^{Im(vals) t} is below
    2^-511 (sqrt tiny, far below the n eps cond(V) round-off floor of a fidelity) the entry
    is exactly 0, so no product with it is subnormal; columns with Im(vals) >= 0 keep every
    row.  Every entry depends only on the times from its row's anchor on, so the rows
    times[s:e] of a grid, s a multiple of _ANCHOR_ROWS, are bit for bit _phases(times)[s:e]
    (see _time_blocks).
    """
    table = np.empty((len(times), len(vals)), dtype=complex)
    steps, step_of = np.unique(np.diff(times), return_inverse=True)
    factors = np.exp(np.outer(steps, -1j * vals))
    table[::_ANCHOR_ROWS] = np.exp(np.outer(times[::_ANCHOR_ROWS], -1j * vals))
    for offset in range(1, min(_ANCHOR_ROWS, len(times))):
        rows = table[offset::_ANCHOR_ROWS]                   # each from the row before it
        before = slice(offset - 1, offset - 1 + _ANCHOR_ROWS * len(rows), _ANCHOR_ROWS)
        np.multiply(table[before], factors[step_of[before]], out=rows)
    decaying = np.flatnonzero(np.imag(vals) < 0)
    tails = np.searchsorted(times, _LOG_PHASE_FLOOR / np.imag(vals[decaying]), side="right")
    inside = tails < len(times)
    if np.any(inside):
        # one mask over the rows from the first tail on, True from the first row of each
        # tail: that row set, then carried down (a broadcast comparison adds ufunc buffers)
        first = tails[inside].min()
        mask = np.zeros((len(times) - first, len(vals)), dtype=bool)
        mask[tails[inside] - first, decaying[inside]] = True
        np.logical_or.accumulate(mask, axis=0, out=mask)
        np.copyto(table[first:], 0.0, where=mask)
    return table


def _time_blocks(steps: int, modes: int) -> list:
    """Row slices over a grid of `steps` times, each of about spectrum._BLOCK_ENTRIES phase
    entries of `modes` columns and starting on an exp anchor of _phases."""
    size = _ANCHOR_ROWS * max(1, _BLOCK_ENTRIES // modes // _ANCHOR_ROWS)
    return [slice(start, min(start + size, steps)) for start in range(0, steps, size)]


def _evolve(source: EmitterArray | np.ndarray, psi0s: np.ndarray, basis: np.ndarray,
            cols: list) -> tuple:
    """Factor one source once for all initial states psi_j = psi0s[:, j], an array in the
    sectors of its declared symmetries or a given h as one sector, Q = I (spectrum._orbit_rows):
    (method, cond, sites, rows, blocks), the method ('eig' or 'ode'), cond(V), the rows h[sites]
    that were factored, and blocks(times), which checks a time grid (finite, non-negative,
    ascending) and returns a generator of (span, [overlaps_j]) over its _time_blocks, overlaps_j
    the (span, k_j) overlaps psi_j(t)^T basis[:, cols[j]].  psi0s and basis must have one row
    per site of the source, else ValueError.

    Everything but the time axis is done before the grid is given, so that a default horizon
    can be read from the rows (_orbit_horizon): h is factored, and the widths' coefficients are
    formed.  Each block Q_s^T h Q_s comes from the rows of the orbit representatives alone and
    is factored into W_s by spectrum._factor; V = [Q_s W_s] is never formed (see _project).  An
    array's rows come from _couplings, and its full h is assembled only for the 'ode' fallback.
    Q is orthogonal, so cond(V) is the largest singular value over all W_s over the smallest.
    Z = V^T basis = [W_s^T Q_s^T basis] is formed once, and the Y_j = a_j Z[:, cols_j], with
    W_s a_s = Q_s^T psi_j solved per sector (W_s^{-1} is not W_s^T/norms on degenerate +-m
    pairs), are stacked side by side into one (n, sum_j k_j) matrix Y.  Each block of times
    then takes its own phase table e^{-i lambda t} (exact exp anchors joined by running
    products, tails below sqrt(tiny) zeroed; see _phases), whose rows are those of the whole
    grid's table, and one product phases @ Y, of which each psi_j reads its own columns, so
    neither the (t, n) states nor a table of all t rows is built: memory is O(B (n + sum_j k_j))
    for the B rows of a block, whatever the number of times.  When cond(V) > 1e8 all psi_j are
    propagated together under the full h in exact exponential steps, one e^{-i h dt}
    (scipy.linalg.expm) per distinct step dt of the grid from t = 0, the state carried
    through the same blocks, and each psi_j(t) is multiplied by the same basis[:, cols_j].
    """
    psi0s = np.asarray(psi0s, dtype=complex)
    sectors, sites, rows, factors = _factor(source, vectors=True)
    for name, x in (("initial state", psi0s), ("target basis", basis)):
        if len(x) != rows.shape[1]:
            raise ValueError(f"{name} has {len(x)} entries for {rows.shape[1]} sites")
    sv = np.concatenate([np.linalg.svd(w, compute_uv=False) for _, w in factors])
    cond = float(sv.max() / sv.min()) if sv.min() > 0 else np.inf   # singular W_s
    if cond > 1e8:
        from scipy.linalg import expm   # only this fallback loads scipy
        method, h = "ode", source if isinstance(source, np.ndarray) else assemble_heff(source)

        def run(times, spans):
            steps, step_of = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
            props = [expm(-1j * dt * h) for dt in steps]
            state = psi0s
            for span in spans:
                states = np.empty((span.stop - span.start, *psi0s.shape), dtype=complex)
                for k, step in enumerate(step_of[span]):
                    state = states[k] = props[step] @ state
                yield span, [states[:, :, j] @ basis[:, c] for j, c in enumerate(cols)]
    else:
        method = "eig"
        a = np.vstack([np.linalg.solve(w, _project(s, psi0s))
                       for s, (_, w) in zip(sectors, factors)])
        vals = np.concatenate([v for v, _ in factors])
        z = np.vstack([w.T @ _project(s, basis) for s, (_, w) in zip(sectors, factors)])
        edges = np.cumsum([0] + [z[:1, c].shape[1] for c in cols])
        y = np.empty((len(z), edges[-1]), dtype=complex)
        for a_j, c, start, stop in zip(a.T, cols, edges, edges[1:]):
            np.multiply(a_j[:, None], z[:, c], out=y[:, start:stop])

        def run(times, spans):
            for span in spans:
                overlaps = _phases(times[span], vals) @ y
                yield span, [overlaps[:, start:stop] for start, stop in zip(edges, edges[1:])]

    def blocks(times):
        if not np.all(np.isfinite(times)) or np.any(times < 0) or np.any(np.diff(times) < 0):
            raise ValueError("times must be finite, non-negative and ascending")
        return run(times, _time_blocks(len(times), len(psi0s)))
    return method, cond, sites, rows, blocks


def propagate(h: np.ndarray, psi0: np.ndarray, times) -> Propagation:
    """Evolve psi under dpsi/dt = -i h psi.

    Uses the eigendecomposition psi(t) = V exp(-i Lambda t) V^{-1} psi0 with h factored
    once as one sector, Q = I, filling the (t, n) states one block of times at a time
    (_evolve).  Falls back to exact exponential steps when the eigenvector matrix is
    ill-conditioned (condition number above 1e8).  A non-square h or a psi0 of another length
    raises ValueError.
    """
    times = np.asarray(times, dtype=float)
    psi0s = np.reshape(psi0, (-1, 1))
    method, _, _, _, blocks = _evolve(np.asarray(h, dtype=complex), psi0s, np.eye(len(psi0s)),
                                      [slice(None)])
    states = np.empty((len(times), len(psi0s)), dtype=complex)
    for span, (part,) in blocks(times):
        states[span] = part
    return Propagation(times=times, states=states, method=method)


@dataclass(frozen=True)
class FidelityTrace:
    """Fidelity versus time of a propagated packet.  argmax_site is the lowest site within the
    floor n eps cond(V) ('eig') or n eps ('ode') of F, or -1 where F is at or below it (t = 0).
    The floor is the round-off of rebuilding the state alone: F(t) also carries the phase error
    eps |lambda| t of each eigenvalue, measured at up to 60 n eps cond(V) at t = 30 (site-edge,
    tangential, n = 7)."""

    times: np.ndarray
    fidelity: np.ndarray          # max_k |<target_k|psi(t)>|
    argmax_site: np.ndarray       # local site index in ring 2 achieving the max, or -1
    method: str = "eig"           # 'eig', or 'ode': direct propagation, no eigenvectors
    cond: float | None = None     # cond(V), V = [Q_s W_s], from the singular values of each W_s


def _targets(array: EmitterArray, m: int, delta_theta: float) -> np.ndarray:
    """Conjugated momentum-reversed packets of one width on each ring-2 site, one (n, n2) set."""
    return np.conj(_packets(array, 1, np.arange(len(array.groups[1])), -m, float(delta_theta)))


def _target_factors(array: EmitterArray, m: int, delta_thetas) -> tuple[np.ndarray, list, list]:
    """conj(T_j) = basis[:, cols_j] @ R_j for the _targets conj(T_j) of each width j as (basis,
    cols, factors), R_j = factors[j], through the ring-2 momenta where that is cheaper; n = 2N is
    the number of emitters.

    The N packets of one width share one envelope c_{(l-k) mod N} (chord distances from ring-2
    site 0, normalized), so conj(T_jk)[l] = e^{i m theta_l} c_{l-k} on ring-2 site l, and with
    c^ = DFT(c): conj(T_j) = L R_j, L[l, q] = e^{i m theta_l} e^{2 pi i q l / N} and
    R_j[q, k] = c^_q e^{-2 pi i q k / N} / N.  A momentum with |c^_q| <= log2(N) eps c^_0, the
    envelope FFT's own round-off, is dropped; S_j are the momenta kept.  A width with
    |S_j| (n + N) >= n N, for which the (t, n)(n, |S_j|) and (t, |S_j|)(|S_j|, N) products cost
    at least the explicit (t, n)(n, N) one, keeps conj(T_j) as its own basis columns and
    R_j = None.  The basis holds L at the union of the kept momenta, then those targets.
    """
    idx = np.asarray(array.groups[1])
    n_ring, sites = len(idx), np.arange(len(idx))
    spectra = [np.fft.fft(_packets(array, 1, sites[:1], 0, float(dt))[idx, 0])
               for dt in delta_thetas]
    # a NaN momentum (an envelope out of range) is kept, so the NaN reaches the overlaps
    kept = [~(np.abs(c) <= np.log2(n_ring) * np.finfo(float).eps * np.abs(c[0])) for c in spectra]
    cheaper = [np.count_nonzero(k) * (array.n + n_ring) < array.n * n_ring for k in kept]
    qs = np.flatnonzero(np.any([k & c for k, c in zip(kept, cheaper)], axis=0))
    fourier = np.zeros((array.n, len(qs)), dtype=complex)
    fourier[idx] = (np.exp(1j * m * array.ring_meta[1].angles)[:, None]
                    * np.exp(2j * np.pi * (np.outer(sites, qs) % n_ring) / n_ring))
    columns, cols, factors = [fourier], [], []
    for dt, c, k, momentum in zip(delta_thetas, spectra, kept, cheaper):
        if momentum:
            q = np.flatnonzero(k)
            cols.append(np.flatnonzero(k[qs]))                  # where qs holds q
            factors.append(c[q, None] / n_ring
                           * np.exp(-2j * np.pi * (np.outer(q, sites) % n_ring) / n_ring))
        else:
            start = sum(part.shape[1] for part in columns)
            columns.append(_targets(array, m, dt))
            cols.append(slice(start, start + n_ring))
            factors.append(None)
    return np.hstack(columns), cols, factors


def fidelity_trace(array: EmitterArray, psi0: np.ndarray, m: int, delta_theta: float,
                   times, h: np.ndarray | None = None) -> FidelityTrace:
    """Fidelity of transfer into a momentum-reversed packet on ring 2.

    F(t) = max_k |<Psi_{2,k}^{-m} | Psi(t)>| with the target packets built with
    the same angular spread as the initial state and the overlap taken against
    the unnormalized evolved state (photon loss lowers F).  Without h only the rows of h
    at one site per orbit of the array's declared and realised symmetries are built
    (spectrum._orbit_rows), and the full h only if the eigenvectors are ill-conditioned; a
    given h is factored as it is, as one sector (Q = I), and must be square with one row per
    emitter of the array and of psi0 (else ValueError).  The one width keeps its explicit
    targets rather than _target_factors: the trace reports F at every step, down to the
    round-off of F(0), whose digits follow the order of the sums.
    """
    times = np.asarray(times, dtype=float)
    return _trace(array, psi0, m, delta_theta, lambda sites, rows: times, h)


def _trace(array: EmitterArray, psi0: np.ndarray, m: int, delta_theta: float, grid,
           h: np.ndarray | None = None) -> FidelityTrace:
    """fidelity_trace on the time grid grid(sites, rows), a function of the rows h[sites] that
    _evolve factors, so that a default horizon is read from them (_orbit_horizon)."""
    targets = _targets(array, m, delta_theta)
    method, cond, sites, rows, blocks = _evolve(
        array if h is None else np.asarray(h, dtype=complex), np.reshape(psi0, (-1, 1)),
        targets, [slice(None)])
    times = grid(sites, rows)
    # ties within the state's round-off floor go to the lowest site; the phase error that F
    # also carries (see FidelityTrace) is left out, since a wider floor changes argmax_site
    floor = array.n * np.finfo(float).eps * (cond if method == "eig" else 1.0)
    fid, best = np.empty(len(times)), np.empty(len(times), dtype=np.intp)
    for span, (overlaps,) in blocks(times):
        overlaps = np.abs(overlaps)                          # (span, k)
        fid[span] = np.max(overlaps, axis=1)
        best[span] = np.argmax(overlaps >= (fid[span] - floor)[:, None], axis=1)
    return FidelityTrace(times=times, fidelity=fid, argmax_site=np.where(fid > floor, best, -1),
                         method=method, cond=cond)


def farthest_site(array: EmitterArray, ring: int = 0) -> int:
    """Local index of the ring's site farthest from the other ring's center.

    Sites within 1e-12 relative of the largest distance count as tied, and the lowest index
    wins: for odd n the two mirror-image sites (n-1)/2 and (n+1)/2 differ only by round-off.
    The other ring without ring metadata raises ValueError.
    """
    other = _ring(array, 1 - ring).center
    idx = np.asarray(array.groups[ring])
    with np.errstate(over="ignore"):      # inf past float range, where h is out of range too
        dist = np.linalg.norm(array.positions[idx] - other, axis=1)
    return int(np.argmax(dist >= (1.0 - 1e-12) * dist.max()))


def default_horizon(array: EmitterArray, m: int) -> float:
    """20 pi / |J_{m,-m}| of a ring pair, bit for bit the end of the default time grid of
    `fidelity` and `fidelity-scan` (_orbit_horizon, which raises where J_{m,-m} is round-off)."""
    return _orbit_horizon(array, m, *_orbit_rows(array)[1:])


def _pair_lambda(array: EmitterArray, m: int, sites: np.ndarray,
                 rows: np.ndarray) -> tuple[complex, float]:
    """(lambda, scale): ring_ring_coupling(array).at(m, -m) from the rows h[sites] of
    spectrum._orbit_rows alone, with no inter-ring block, (1/N) sum_{i in R1, j in R2} h_ij
    e^{i(m1 theta_i - m2 theta_j)}, m1 and m2 the wrapped m and -m, and the same gather of the
    magnitudes, (1/N) sum_{i in R1, j in R2} |h_ij|, the sum's round-off scale, in O(n |sites| |G|).

    A ring-1 site that is no representative is the image g(i) of one under an element g of the
    declared group (spectrum._symmetry_elements), and h[g(i), g(k)] = s_g(i) s_g(k) h[i, k] with
    g an involution, so its row against u_j = e^{-i m2 theta_j} on ring 2 is s_g(i) times
    rows[i] . (s_g u[g]).  Each ring-1 site is taken once, from the first (g, i) in group order;
    the rows of ring-2 representatives (about half of a site-edge pair's) weigh 0.
    """
    idx1, idx2 = _ring_groups(array)
    _, perms, signs = _symmetry_elements(array)
    n_ring = len(idx1)
    u, phase = np.zeros(array.n, dtype=complex), np.zeros(array.n, dtype=complex)
    u[idx2] = np.exp(-1j * wrap_m(-m, n_ring) * _ring(array, 1).angles)
    phase[idx1] = np.exp(1j * wrap_m(m, n_ring) * _ring(array, 0).angles)
    weights = signs * u[perms]
    sums, magnitudes = rows @ weights.T, np.abs(rows) @ np.abs(weights).T   # (sites, |G|)
    images, first = np.unique(perms[:, sites], return_index=True)
    g, k = np.divmod(first, len(sites))
    return (complex(np.sum(phase[images] * signs[g, sites[k]] * sums[k, g]) / n_ring),
            float(np.sum(np.abs(phase[images]) * magnitudes[k, g]) / n_ring))


def _orbit_horizon(array: EmitterArray, m: int, sites: np.ndarray, rows: np.ndarray) -> float:
    """default_horizon from the rows h[sites] of spectrum._orbit_rows (_pair_lambda): every
    default time grid of `fidelity` and `fidelity-scan` comes from here.

    |Re lambda_{m,-m}| at or below its round-off floor counts as zero (ValueError), as where
    symmetry cancels it (site-edge, even N, m = N/2): 4 eps (1 + k0 max|r_i|) (1/N) sum |h_ij|,
    the sum's own round-off and the phase error k0 eps |r_i| of the positions' round-off,
    which a far ring's cancelling terms carry (up to 1.4 of 4 at N = 2, 1 <= x <= 100).
    """
    lam, scale = _pair_lambda(array, m, sites, rows)
    j = abs(np.real(lam))
    if j <= 4.0 * np.finfo(float).eps * (1.0 + K0 * np.abs(array.positions).max()) * scale:
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
    methods: np.ndarray           # (nx,) 'eig' or 'ode' (direct, no eigenvectors) per x
    conds: np.ndarray             # (nx,) cond(V), from the singular values of each W_s


def _separation_peaks(arrangement: str, n: int, d: float, polarization, m: int,
                      dts: np.ndarray, t_max: float | None, t_steps: int, x: float) -> tuple:
    """(max_t F, t at max, widths, method, cond(V)) of one fidelity_scan separation x,
    module level so that it pickles.  The couplings are the rows of h at the orbit
    representatives, one _couplings call, which _evolve factors and the default horizon reads
    (_orbit_horizon)."""
    system = build_two_rings(arrangement, n, d, float(x), polarization)
    k0_site = farthest_site(system, ring=0)
    psi0s = np.column_stack([gaussian_packet(system, ring=0, center_site=k0_site, m=m,
                                             delta_theta=float(dt)) for dt in dts])
    basis, cols, factors = _target_factors(system, m, dts)
    method, cond, sites, rows, blocks = _evolve(system, psi0s, basis, cols)
    horizon = _orbit_horizon(system, m, sites, rows) if t_max is None else t_max
    times = np.linspace(0.0, horizon, t_steps)
    fid = np.empty((len(times), len(dts)))                   # (t, width)
    for span, overlaps in blocks(times):
        for j, (o, r) in enumerate(zip(overlaps, factors)):
            fid[span, j] = np.max(np.abs(o if r is None else o @ r), axis=1)
    peak = np.argmax(fid, axis=0)
    return (fid[peak, np.arange(len(dts))], times[peak], system.ring_meta[0].radius * dts,
            method, cond)


def fidelity_scan(n: int, d: float, polarization, m: int, x_values, delta_theta_values,
                  t_max: float | None = None, t_steps: int = 2000,
                  arrangement: str = "site-site", threads: int = 1) -> FidelityScan:
    """Scan max_t F over ring separation and initial packet width.

    The packet starts on ring 1 at the site farthest from ring 2.  For each
    separation the system is built, the rows of h at its orbit representatives are computed
    once and h is factored once per symmetry sector; all widths are propagated together on a
    uniform time grid of t_steps points up to t_max (default 20 pi / |J_{m,-m}|, with
    J_{m,-m} summed from the same rows, _orbit_horizon), one phase product per block of times
    for all widths, their overlaps with the ring-2 targets taken in ring-2 momentum space
    where that is cheaper (_target_factors) and reduced to F one block of times at a time
    (_evolve).  A t_steps below 1 or a non-finite t_max raises ValueError.  methods and conds
    record each separation's solver path and cond(V), as FidelityTrace does for one trace.
    The separations run on at most `threads` worker processes (spectrum._pool_map).
    """
    x_values = np.asarray(x_values, dtype=float)
    dts = np.asarray(delta_theta_values, dtype=float)
    if x_values.size == 0 or dts.size == 0:
        raise ValueError("scan ranges must be nonempty")
    if t_steps < 1:
        raise ValueError(f"t_steps must be at least 1, got {t_steps}")
    if t_max is not None and not np.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    peaks = functools.partial(_separation_peaks, arrangement, n, d, polarization, m, dts, t_max,
                              t_steps)
    # per separation in eigvals side^3 (spectrum._FORK_WORK): (2 n)^3, over its largest eig, and
    # t_steps widths 2 n n overlap multiply-adds, about 32 times faster (4e9/s, 2-vCPU Xeon)
    work = (2 * n) ** 3 + t_steps * dts.size * 2 * n * n / 32
    rows = _pool_map(peaks, x_values, threads, [work] * x_values.size)
    maxf, tat, widths, methods, conds = (np.array(column) for column in zip(*rows))
    return FidelityScan(x_values=x_values, delta_theta_values=dts, widths=widths,
                        max_fidelity=maxf, t_at_max=tat, methods=methods, conds=conds)
