"""Free-space dyadic Green's tensor and pairwise dipole-dipole couplings.

Internal units: lengths in units of the transition wavelength (so k0 = 2*pi),
rates and energy shifts in units of the single-emitter decay rate Gamma0 = 1.

There is one Green's kernel.  For `green_tensor`, the 3x3 tensor of one
separation, and `projected_green`, its projections conj(p_left).G.p_right
over a batch of pairs, the radial factors pref = e^{ix}/(4 pi r) and
near = 1/x^2 - i/x (x = k0 r) come from `_radial`.  `radiated_field`, its
summed form sum_j c_j G(r - r_j).p_j of a whole array at many points, expands
the same factors in u = 1/x and folds c into p, so that a map takes few
passes over its blocks; tests hold it to the per-tensor sum.  A map
(`fieldmap.intensity_map`) passes it one point per symmetry orbit of the grid and the state's
distinct mirror images, which share its geometric passes.
"""

from dataclasses import dataclass

import numpy as np

K0 = 2.0 * np.pi
GAMMA0 = 1.0
# Emitter-point pairs per block of radiated_field, whose work arrays take 96 B a pair (800 KB,
# inside a core's L2), and the fewest points per block, so that a large N pays little per-block
# overhead.
_BLOCK_PAIRS = 8192
_MIN_BLOCK_POINTS = 32


def _block_points(n: int) -> int:
    """Points (or, in fieldmap._mask_radius, emitters) per block against n emitters."""
    return max(_MIN_BLOCK_POINTS, _BLOCK_PAIRS // n)


class SingularityError(ValueError):
    """Raised when a field or coupling is requested at zero separation."""


def unit_dipole(v) -> np.ndarray:
    """Return v normalized so that conj(v).v = 1.

    Accepts real or complex 3-vectors; complex orientations (circular
    polarizations) are allowed.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (3,):
        raise ValueError(f"dipole orientation must be a 3-vector, got shape {v.shape}")
    n = np.sqrt(np.real(np.vdot(v, v)))
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("dipole orientation must be a finite non-zero vector")
    return v / n


def _check_dipole(p) -> np.ndarray:
    p = np.asarray(p, dtype=complex)
    if p.shape != (3,):
        raise ValueError(f"dipole orientation must be a 3-vector, got shape {p.shape}")
    if abs(np.real(np.vdot(p, p)) - 1.0) > 1e-12:
        raise ValueError("dipole orientation must be normalized (conj(p).p = 1)")
    return p


@dataclass(frozen=True)
class PairCoupling:
    """Dispersive (omega) and dissipative (gamma) coupling of one emitter pair.

    Both in units of Gamma0.  The complex coupling entering the effective
    Hamiltonian is h = omega - 1j*gamma/2.
    """

    omega: float
    gamma: float

    @property
    def h(self) -> complex:
        return self.omega - 0.5j * self.gamma


def _radial(dist):
    """Radial factors of G at distance dist: e^{ix}/(4 pi r) and 1/x^2 - i/x, x = k0 r."""
    x = K0 * dist
    return np.exp(1j * x) / (4.0 * np.pi * dist), 1.0 / x**2 - 1j / x


def green_tensor(r) -> np.ndarray:
    """Free-space dyadic Green's tensor G(r) at the transition frequency.

    Acting on a unit dipole p it gives
        G.p = e^{i k0 r}/(4 pi r) [ (I - rr) + (1/(k0 r)^2 - i/(k0 r)) (3 rr - I) ] . p
    with rr the outer product of the unit separation vector.

    Raises SingularityError for r = 0.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"separation must be a 3-vector, got shape {r.shape}")
    dist = float(np.linalg.norm(r))
    if dist == 0.0:
        raise SingularityError("Green's tensor diverges at zero separation")
    rhat = r / dist
    rr = np.outer(rhat, rhat)
    eye = np.eye(3)
    pref, near = _radial(dist)
    return pref * ((eye - rr) + near * (3.0 * rr - eye))


def pair_coupling(r_i, p_i, r_j, p_j) -> PairCoupling:
    """Coherent and dissipative coupling between emitters i and j.

        omega = -(3 pi Gamma0 / k0) Re{ conj(p_i) . G(r_i - r_j) . p_j }
        gamma =  (6 pi Gamma0 / k0) Im{ conj(p_i) . G(r_i - r_j) . p_j }

    Raises SingularityError for coincident positions.
    """
    p_i = _check_dipole(p_i)
    p_j = _check_dipole(p_j)
    sep = np.asarray(r_i, dtype=float) - np.asarray(r_j, dtype=float)
    if np.linalg.norm(sep) == 0.0:
        raise SingularityError("pair coupling is singular for coincident emitters")
    g = np.conj(p_i) @ green_tensor(sep) @ p_j
    omega = -(3.0 * np.pi * GAMMA0 / K0) * float(np.real(g))
    gamma = (6.0 * np.pi * GAMMA0 / K0) * float(np.imag(g))
    return PairCoupling(omega=omega, gamma=gamma)


def projected_green(separations: np.ndarray, p_left: np.ndarray, p_right: np.ndarray) -> np.ndarray:
    """Vectorized conj(p_left) . G(sep) . p_right over a batch of pairs.

    separations: (..., 3) real, p_left/p_right: (..., 3) complex.  Entries with
    zero separation yield nan (callers mask or treat them separately).  With
    p_left = np.eye(3) and separations of shape (..., 1, 3) the last axis holds
    the field vector G(sep) . p_right; the identity is kept real, because a
    complex one makes every product complex-by-complex.
    """
    sep = np.asarray(separations, dtype=float)
    # out-of-range separations give inf or nan, which the callers report: no numpy warning
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dist = np.linalg.norm(sep, axis=-1)
        rhat = sep / dist[..., None]
        pl = np.conj(p_left)
        dot_ll = np.einsum("...i,...i->...", pl, rhat)
        dot_rr = np.einsum("...i,...i->...", rhat, p_right)
        dot_lr = np.einsum("...i,...i->...", pl, p_right)
        pref, near = _radial(dist)
        # One operand order at every batch size: above 256 KiB numpy reuses a temporary
        # in place as `temp * near`, which moves the last bit of a fused complex multiply.
        # The last product goes to the dead `far`, not in place into g: an in-place complex
        # multiply rounds a one-element batch apart from the same pair in a larger one.
        g = np.asarray(dot_lr - dot_ll * dot_rr, dtype=complex)
        far = np.asarray(3.0 * dot_ll * dot_rr - dot_lr, dtype=complex)
        g += np.multiply(near, far, out=far)
        return np.multiply(pref, g, out=far)


@np.errstate(over="ignore", invalid="ignore")   # out of range: inf or nan, which callers report
def radiated_field(points, positions, dipoles, amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """Field sum_j c_j G(r - r_j) . p_j at each of the (P, 3) points, of one or S states.

    positions (N, 3), dipoles (N, 3) and amplitudes c, (N,) or one state per column (N, S),
    describe the emitters.  Returns the complex field, (P, 3) or (P, 3, S), and the (P,)
    distance from each point to its nearest emitter (0 and inf with no emitters).  Raises
    SingularityError if a point coincides with an emitter.

    With w = c p, u = 1/x and pref = e^{ix} u / 2 (= e^{ix}/(4 pi r), x = k0 r),
        c G . p = pref [(1 - u^2 + i u) w + (3 u^2 - 1 - 3 i u) sep (sep . w) / r^2],
    so the field is one matrix product f @ w plus the sums sum_j g_j sep_j.
    The phase comes from one tan, not a cos and a sin: with t = tan(x/2),
    e^{ix} = (1 + i t)^2 / (1 + t^2), and 1/(1 + t^2) goes into the real factor
    s = u / (2 (1 + t^2)).  On an AVX-512 CPU numpy vectorizes float64 tan but
    not cos or sin, and the phase table costs a third of np.exp(1j * x); without
    it, one tan still replaces two calls.  The two tables agree to a few ulp.

    The points are taken B = _block_points(N) at a time, about _BLOCK_PAIRS
    emitter-point pairs, into (N, B) work arrays (emitters by points, so every
    elementwise pass runs along the points) that are allocated once per call
    and stay in cache.  Per block: the separations, r^2 and r (in
    np.linalg.norm's order, so `nearest` has its bits), one tan, a dozen real
    passes for s and its u-polynomials, and two complex products with the phase
    for f and g, all shared by the S states; then per state the matrix product
    f @ w, sep . w as one real matrix product over (re, im) pairs, its product
    with g and the three sums over emitters of g (sep . w) sep_a.  A block
    of one point is evaluated as two equal columns, since numpy gives a
    one-row product to gemv and a one-column sum to pairwise summation.  So on
    one BLAS thread the result is the same to the bit at any block size (with
    more, OpenBLAS can round a row of f @ w by the number of rows), and each
    state's column is, to the bit, the field of a call with that state alone.
    """
    points = np.asarray(points, dtype=float)
    pos = np.asarray(positions, dtype=float)
    amps = np.asarray(amplitudes, dtype=complex)
    n = len(pos)
    if n == 0:
        field = np.zeros((len(points), 3, *amps.shape[1:]), dtype=complex)
        return field, np.full(len(points), np.inf)
    # w_k = c_k p of each state k, a contiguous (N, 3) block as a one-state call forms it
    w = amps.reshape(n, -1).T[:, :, None] * np.asarray(dipoles, dtype=complex)
    w_pairs = w.view(float).reshape(len(w), n, 3, 2)
    coords = np.ascontiguousarray(points.T)[:, None, :]         # (3, 1, P) against (3, N, 1)
    sites = pos.T[:, :, None]
    field, nearest = np.empty((len(w), len(points), 3), dtype=complex), np.empty(len(points))
    step = _block_points(n)
    size = max(min(step, len(points)), 2)                       # points of the widest block
    real = np.empty((8, n * size))                              # each row: one block's (N, b)
    cplx = np.empty((2, n * size), dtype=complex)
    block, near = np.empty((len(w), size, 3), dtype=complex), np.empty(size)
    b = 0
    for start in range(0, len(points), step):
        stop = min(start + step, len(points))
        cols = coords[..., start:stop] if stop - start > 1 else coords[..., [start, start]]
        if cols.shape[2] != b:
            b = cols.shape[2]
            sep = real[:3, :n * b].reshape(3, n, b)
            s0, s1, s2 = sep
            dist2, dist, t, su, su2 = real[3:, :n * b].reshape(5, n, b)
            # the last two real rows, free once g is formed: each product g (sep . w) sep_a
            term = real[6:].reshape(-1)[:2 * n * b].view(complex).reshape(n, b)
            phase, coef = cplx[:, :n * b].reshape(2, n, b)
            out, near_b = block[:, :b], near[:b]
        np.subtract(cols, sites, out=sep)                       # (3, N, b)
        np.add(np.multiply(s0, s0, out=dist2), np.multiply(s1, s1, out=dist), out=dist2)
        dist2 += np.multiply(s2, s2, out=dist)
        np.minimum.reduce(np.sqrt(dist2, out=dist), axis=0, out=near_b)
        if not near_b.all():
            raise SingularityError("field requested on top of an emitter")
        np.tan(np.multiply(np.pi, dist, out=t), out=t)          # tan(x/2), exactly half of K0 r
        u = np.divide(1.0, np.multiply(K0, dist, out=dist), out=dist)
        np.add(t, t, out=phase.imag)                            # (1 + i t)^2 = e^{ix} (1 + t^2)
        t *= t
        np.subtract(1.0, t, out=phase.real)
        t += 1.0
        s = np.divide(np.multiply(0.5, u, out=su), t, out=t)
        np.multiply(s, u, out=su)
        np.multiply(su, u, out=su2)
        np.subtract(s, su2, out=coef.real)                      # f = phase s (1 - u^2 + i u)
        coef.imag[...] = su
        coef *= phase
        for w_k, out_k in zip(w, out):
            np.matmul(coef.T, w_k, out=out_k)
        inv_r2 = np.divide(1.0, dist2, out=dist2)               # g = phase s (3u^2 - 1 - 3iu) / r^2
        su2 *= 3.0
        su2 -= s
        np.multiply(su2, inv_r2, out=coef.real)
        su *= -3.0
        np.multiply(su, inv_r2, out=coef.imag)
        coef *= phase
        for pairs_k, out_k in zip(w_pairs, out):
            np.matmul(sep.transpose(1, 2, 0), pairs_k, out=phase.view(float).reshape(n, b, 2))
            np.multiply(coef, phase, out=phase)                 # g (sep . w)
            for a in range(3):
                out_k[:, a] += np.add.reduce(np.multiply(phase, sep[a], out=term), axis=0)
        field[:, start:stop] = out[:, :stop - start]
        nearest[start:stop] = near_b[:stop - start]
    return (np.moveaxis(field, 0, -1) if amps.ndim > 1 else field[0]), nearest
