"""Emitter array constructors: single rings, open chains, coupled ring pairs.

All lengths are in units of the transition wavelength.
"""

from dataclasses import dataclass, field

import numpy as np

from .emfield import unit_dipole

# The C_N-symmetric dipole schemes: each name's (x, y, z) dipole columns as
# functions of the sites' cos and sin.
SYMMETRIC_SCHEMES = {
    "transverse": lambda cos, sin: (0.0, 0.0, 1.0),
    "tangential": lambda cos, sin: (-sin, cos, 0.0),
    "radial": lambda cos, sin: (cos, sin, 0.0),
}


@dataclass(frozen=True)
class RingMeta:
    """Ring membership metadata for one emitter group."""

    center: np.ndarray          # (3,)
    radius: float
    angles: np.ndarray          # polar angle of each site about the center, (N,)
    scheme: str                 # 'transverse' | 'tangential' | 'radial' | 'fixed'


@dataclass
class EmitterArray:
    """Positions, dipoles, group metadata and declared site symmetries of N emitters.

    Each entry of symmetries is a declaration (flip, perm): a diagonal +-1 coordinate flip F
    about the centroid c and the site involution it induces, c + F (r_i - c) = r_perm[i].
    A flip entry other than +-1, a perm that is not an involution of range(n) or perms that
    do not commute raise ValueError; an entry whose flip does not map the positions onto
    positions[perm], to 1e-12 of the extent about c plus 4 eps of the largest |coordinate|
    (their round-off), is dropped.  The dipoles are left to the readers: spectrum._symmetry_elements
    keeps a declaration where F maps each dipole onto +- its image's, F p_i = s_i p_perm[i], so
    that it is a symmetry of h and of the field map of every state up to the state's image
    (c'_perm[i] = s_i c_i, fieldmap.intensity_map).
    """

    positions: np.ndarray                     # (n, 3) float
    dipoles: np.ndarray                       # (n, 3) complex
    groups: list = field(default_factory=list)       # list of index arrays
    ring_meta: list = field(default_factory=list)    # RingMeta or None per group
    symmetries: tuple = ()      # (flip, perm): coordinate flips about the centroid, site maps

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.dipoles = np.atleast_2d(np.asarray(self.dipoles, dtype=complex))
        if self.positions.shape != self.dipoles.shape:
            raise ValueError("positions and dipoles must have matching shapes")
        if not self.groups:
            self.groups = [np.arange(self.n)]
        if not self.ring_meta:
            self.ring_meta = [None] * len(self.groups)
        covered = np.sort(np.concatenate([np.asarray(g) for g in self.groups]))
        if not np.array_equal(covered, np.arange(self.n)):
            raise ValueError("groups must partition the emitter index range")
        if self.symmetries:
            flips, perms = (np.array(column) for column in zip(*self.symmetries))
            k, n, identity = len(perms), self.n, np.arange(self.n)
            if not (flips.shape == (k, 3) and flips.dtype.kind in "iuf"
                    and set(flips.ravel().tolist()) <= {-1, 1}
                    and perms.shape == (k, n) and perms.dtype.kind in "iu"
                    and perms.min() >= 0 and perms.max() < n
                    and all((p.take(p) == identity).all() for p in perms)
                    and all((p.take(q) == q.take(p)).all()
                            for a, p in enumerate(perms) for q in perms[:a])):
                raise ValueError("symmetries must be +-1 flips with commuting site involutions")
            # r_perm[i] - c - F (r_i - c) of every declaration, on contiguous coordinate rows;
            # positions out of float range give inf or nan, which keep no declaration
            cols = self.positions.T.copy()
            with np.errstate(over="ignore", invalid="ignore"):
                rel = cols - (cols.sum(axis=1) / n)[:, None]
                mismatch = rel.take(perms, axis=1) - flips.T[:, :, None] * rel[:, None]
                tol = 1e-12 * np.abs(rel).max() + 4 * np.finfo(float).eps * np.abs(cols).max()
            kept = np.abs(mismatch).max(axis=(0, 2)) <= tol
            self.symmetries = tuple(zip(flips[kept].astype(float), perms[kept]))

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def ring_radius(n: int, d: float) -> float:
    """Radius of a regular n-gon with side length d (0 for n = 1)."""
    if n == 1:
        return 0.0
    return d / (2.0 * np.sin(np.pi / n))


def build_ring(n: int, d: float, polarization="transverse",
               center=(0.0, 0.0, 0.0), angular_offset: float = 0.0) -> EmitterArray:
    """Regular ring of n emitters with inter-particle (chord) distance d.

    Site j (from 0) sits at angle 2*pi*j/n + angular_offset on the circle of radius
    d / (2 sin(pi/n)) about center.  polarization is one of the scheme names
    ('transverse', 'tangential', 'radial') or a fixed orientation vector.  The ring declares
    (see EmitterArray) the mirror z -> -z of its plane, which fixes every site, the mirror
    y -> -y through site 0, j -> -j mod n, which the array keeps only where site 0 is on it
    (angular_offset 0 or pi), and for even n the half-turn about its axis, j -> j + n/2, which
    with y -> -y gives x -> -x.  Each maps a scheme's dipoles onto +- their images', and the
    mirrors y -> -y and x -> -x map a spin wave m onto -m (fieldmap.intensity_map).
    """
    if n < 1:
        raise ValueError("need at least one emitter")
    if d <= 0:
        raise ValueError("inter-particle distance d must be positive")
    positions, dipoles, meta = _ring_sites(n, d, polarization, center, angular_offset)
    sites = np.arange(n)
    half_turn = [((-1, -1, 1), (sites + n // 2) % n)] if n % 2 == 0 else []
    return EmitterArray(positions=positions, dipoles=dipoles, groups=[np.arange(n)],
                        ring_meta=[meta], symmetries=(((1, 1, -1), sites), ((1, -1, 1), -sites % n),
                                                      *half_turn))


def _ring_sites(n: int, d: float, polarization, center, angular_offset: float) -> tuple:
    """(positions, dipoles, RingMeta) of the ring of build_ring, with no declarations."""
    center = np.asarray(center, dtype=float)
    radius = ring_radius(n, d)
    angles = angular_offset + 2.0 * np.pi * np.arange(n) / n
    cos, sin = np.cos(angles), np.sin(angles)
    positions = center + radius * np.column_stack([cos, sin, np.zeros(n)])
    if isinstance(polarization, str):
        scheme = polarization.lower()
        if scheme not in SYMMETRIC_SCHEMES:
            raise ValueError(f"unknown polarization scheme {polarization!r}")
        columns = SYMMETRIC_SCHEMES[scheme](cos, sin)
        dipoles = np.column_stack([np.broadcast_to(c, n) for c in columns])
    else:
        scheme, dipoles = "fixed", np.tile(unit_dipole(polarization), (n, 1))
    return positions, dipoles, RingMeta(center, radius, angles, scheme)


def build_chain(n: int, d: float, dipole=(0.0, 0.0, 1.0)) -> EmitterArray:
    """Open linear chain along x with spacing d and one common orientation, declaring (see
    EmitterArray) its inversion j -> n-1-j, a symmetry of h for any common dipole (p -> -p)."""
    if n < 1:
        raise ValueError("need at least one emitter")
    if d <= 0:
        raise ValueError("spacing d must be positive")
    positions = np.column_stack([d * np.arange(n), np.zeros(n), np.zeros(n)])
    dipoles = np.tile(unit_dipole(dipole), (n, 1))
    return EmitterArray(positions, dipoles, symmetries=(((-1, -1, -1), np.arange(n)[::-1]),))


def build_two_rings(arrangement: str, n: int, d: float, gap: float,
                    polarization="tangential") -> EmitterArray:
    """Two coplanar rings of n emitters facing each other along the x axis.

    Ring 1 is centered at the origin with site 1 at angle 0 (its point nearest
    ring 2).  gap is the nearest-approach distance between the facing features
    of the two rings, not center-to-center.  In the 'site-site' arrangement
    ring 2 has a site facing back at distance gap from ring 1's facing site.
    In the 'site-edge' arrangement ring 2 is additionally rotated by pi/n so an
    edge midpoint faces ring 1's site, with gap the site-to-midpoint distance
    along the center line; a site-site gap at or below 1e-12 R, near the round-off of ring 2's
    facing site (R sin(pi), about 1e-16 R), raises ValueError.  The pair declares (see
    EmitterArray) the mirror sigma_y, y -> -y, and, for site-site pairs and one-site rings,
    the C2 rotation about z, j <-> j + n; the dipoles decide where each is a symmetry of h
    (spectrum._symmetry_elements).  Each ring's sites are built as build_ring's, without its own
    declarations.
    """
    if arrangement not in ("site-site", "site-edge"):
        raise ValueError(f"unknown arrangement {arrangement!r}")
    if n < 1:
        raise ValueError("need at least one emitter per ring")
    if d <= 0:
        raise ValueError("inter-particle distance d must be positive")
    if gap <= 0:
        raise ValueError("ring separation must be positive")
    pos1, dip1, meta1 = _ring_sites(n, d, polarization, (0.0, 0.0, 0.0), 0.0)
    radius = meta1.radius
    if arrangement == "site-site" and gap <= 1e-12 * radius:
        raise ValueError(f"site-site gap {gap:.3g} is within the round-off of R = {radius:.3g}")
    if arrangement == "site-site":
        center2_x, offset2 = 2.0 * radius + gap, np.pi
    else:
        center2_x, offset2 = radius + gap + radius * np.cos(np.pi / n), np.pi + np.pi / n
    pos2, dip2, meta2 = _ring_sites(n, d, polarization, (center2_x, 0.0, 0.0), offset2)
    sites = np.arange(n)
    edge = 1 if arrangement == "site-edge" else 0
    symmetries = [((1, -1, 1), np.r_[-sites % n, (-sites - edge) % n + n])]
    if arrangement == "site-site" or n == 1:
        symmetries.append(((-1, -1, 1), np.r_[sites + n, sites]))
    return EmitterArray(positions=np.vstack([pos1, pos2]), dipoles=np.vstack([dip1, dip2]),
                        groups=[np.arange(n), np.arange(n, 2 * n)], ring_meta=[meta1, meta2],
                        symmetries=tuple(symmetries))
