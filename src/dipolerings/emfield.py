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
(`fieldmap.intensity_map`) passes it one point per symmetry orbit of the grid.
"""

from dataclasses import dataclass

import numpy as np

K0 = 2.0 * np.pi
GAMMA0 = 1.0
# Field points per block of radiated_field: its temporaries are (N, BLOCK_POINTS).
BLOCK_POINTS = 1024


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
    dist = np.linalg.norm(sep, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
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


def radiated_field(points, positions, dipoles, amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """Field sum_j c_j G(r - r_j) . p_j at each of the (P, 3) points.

    positions (N, 3), dipoles (N, 3) and amplitudes c (N,) describe the
    emitters.  Returns the (P, 3) complex field and the (P,) distance from each
    point to its nearest emitter.  Raises SingularityError if a point coincides
    with an emitter.

    With w = c p, u = 1/x and pref = e^{ix} u / 2 (= e^{ix}/(4 pi r), x = k0 r),
        c G . p = pref [(1 - u^2 + i u) w + (3 u^2 - 1 - 3 i u) sep (sep . w) / r^2],
    so the field is one matrix product f @ w plus the sums sum_j g_j sep_j.
    The phase comes from one tan, not a cos and a sin: with t = tan(x/2),
    e^{ix} = (1 + i t)^2 / (1 + t^2), and 1/(1 + t^2) goes into the real factor
    s = u / (2 (1 + t^2)).  On an AVX-512 CPU numpy vectorizes float64 tan but
    not cos or sin, and the phase table costs a third of np.exp(1j * x); without
    it, one tan still replaces two calls.  The two tables agree to a few ulp.

    The points are taken BLOCK_POINTS at a time.  The work arrays of a block
    are (N, BLOCK_POINTS), emitters by points, so every elementwise pass runs
    along the points.  Per block: the separations, r^2 and r (in
    np.linalg.norm's order, so `nearest` has its bits), one tan, a dozen real
    passes for s and its u-polynomials, two complex products with the phase
    for f and g, the matrix product f @ w, sep . w as one real matrix product
    over (re, im) pairs, and the three sums over emitters of g sep_a.
    """
    points = np.asarray(points, dtype=float)
    pos = np.asarray(positions, dtype=float)
    w = np.asarray(amplitudes, dtype=complex)[:, None] * np.asarray(dipoles, dtype=complex)
    w_pairs = w.view(float).reshape(len(w), 3, 2)
    coords = np.ascontiguousarray(points.T)
    field = np.empty((len(points), 3), dtype=complex)
    nearest = np.empty(len(points))
    for start in range(0, len(points), BLOCK_POINTS):
        rows = slice(start, start + BLOCK_POINTS)
        sep = coords[:, None, rows] - pos.T[:, :, None]         # (3, N, B)
        s0, s1, s2 = sep
        dist2 = s0 * s0 + s1 * s1 + s2 * s2
        dist = np.sqrt(dist2)
        nearest[rows] = np.min(dist, axis=0)
        if np.any(nearest[rows] == 0.0):
            raise SingularityError("field requested on top of an emitter")
        t = np.tan(np.pi * dist)                                # tan(x/2), exactly half of K0 r
        u = np.divide(1.0, np.multiply(K0, dist, out=dist), out=dist)
        phase = np.empty(u.shape, dtype=complex)                # (1 + i t)^2 = e^{ix} (1 + t^2)
        np.add(t, t, out=phase.imag)
        t *= t
        np.subtract(1.0, t, out=phase.real)
        t += 1.0
        s = np.divide(0.5 * u, t, out=t)
        su = s * u
        su2 = su * u
        coef = np.empty(u.shape, dtype=complex)                 # f = phase s (1 - u^2 + i u)
        np.subtract(s, su2, out=coef.real)
        coef.imag[...] = su
        coef *= phase
        block = coef.T @ w
        inv_r2 = np.divide(1.0, dist2, out=dist2)               # g = phase s (3u^2 - 1 - 3iu) / r^2
        su2 *= 3.0
        su2 -= s
        np.multiply(su2, inv_r2, out=coef.real)
        su *= -3.0
        np.multiply(su, inv_r2, out=coef.imag)
        coef *= phase
        coef *= np.matmul(sep.transpose(1, 2, 0), w_pairs).view(complex)[..., 0]
        for a in range(3):
            block[:, a] += np.sum(np.multiply(coef, sep[a], out=phase), axis=0)
        field[rows] = block
    return field, nearest
