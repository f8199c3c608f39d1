"""Free-space dyadic Green's tensor and pairwise dipole-dipole couplings.

Internal units: lengths in units of the transition wavelength (so k0 = 2*pi),
rates and energy shifts in units of the single-emitter decay rate Gamma0 = 1.

There is one Green's kernel: the radial factors pref = e^{ix}/(4 pi r) and
near = 1/x^2 - i/x (x = k0 r) come from `_radial` alone.  `green_tensor` is
the 3x3 tensor of one separation, `projected_green` its projections
conj(p_left).G.p_right over a batch of pairs, and `radiated_field` its summed
form, the field sum_j c_j G(r - r_j).p_j of a whole array at many points.
"""

from dataclasses import dataclass

import numpy as np

K0 = 2.0 * np.pi
GAMMA0 = 1.0
# Field points per block of radiated_field: its temporaries are (BLOCK_POINTS, N).
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
        return pref * ((dot_lr - dot_ll * dot_rr) + near * (3.0 * dot_ll * dot_rr - dot_lr))


def radiated_field(points, positions, dipoles, amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """Field sum_j c_j G(r - r_j) . p_j at each of the (P, 3) points.

    positions (N, 3), dipoles (N, 3) and amplitudes c (N,) describe the
    emitters.  Returns the (P, 3) complex field and the (P,) distance from each
    point to its nearest emitter.  With rhat (rhat . p) = sep (sep . p) / r^2,
        G . p = pref [(1 - near) p + (3 near - 1) sep (sep . p) / r^2],
    so the sum over emitters is one matrix product (c pref (1 - near)) @ dipoles
    plus the row sums sum_j b_j sep_j, b = c pref (3 near - 1) (sep . p) / r^2.
    The points are taken BLOCK_POINTS at a time, so the work arrays are
    (BLOCK_POINTS, N) scalars.  Raises SingularityError if a point coincides
    with an emitter.
    """
    points = np.asarray(points, dtype=float)
    pos = np.asarray(positions, dtype=float)
    dip = np.asarray(dipoles, dtype=complex)
    c = np.asarray(amplitudes, dtype=complex)
    field = np.empty((len(points), 3), dtype=complex)
    nearest = np.empty(len(points))
    for start in range(0, len(points), BLOCK_POINTS):
        rows = slice(start, start + BLOCK_POINTS)
        sep = [points[rows, a, None] - pos[:, a] for a in range(3)]
        dist2 = sep[0] * sep[0] + sep[1] * sep[1] + sep[2] * sep[2]
        dist = np.sqrt(dist2)    # summed in np.linalg.norm's order: the same bits
        nearest[rows] = np.min(dist, axis=1)
        if np.any(nearest[rows] == 0.0):
            raise SingularityError("field requested on top of an emitter")
        pref, near = _radial(dist)
        cpref = c * pref
        b = cpref * (3.0 * near - 1.0)
        b *= sep[0] * dip[:, 0] + sep[1] * dip[:, 1] + sep[2] * dip[:, 2]
        b /= dist2
        block = (cpref * (1.0 - near)) @ dip
        for a in range(3):
            block[:, a] += np.sum(b * sep[a], axis=1)
        field[rows] = block
    return field, nearest

