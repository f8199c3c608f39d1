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
    """Positions, dipole orientations and group metadata for N emitters."""

    positions: np.ndarray                     # (n, 3) float
    dipoles: np.ndarray                       # (n, 3) complex
    groups: list = field(default_factory=list)       # list of index arrays
    ring_meta: list = field(default_factory=list)    # RingMeta or None per group

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
    ('transverse', 'tangential', 'radial') or a fixed orientation vector.
    """
    if n < 1:
        raise ValueError("need at least one emitter")
    if d <= 0:
        raise ValueError("inter-particle distance d must be positive")
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
    meta = RingMeta(center=center, radius=radius, angles=angles, scheme=scheme)
    return EmitterArray(positions=positions, dipoles=dipoles,
                        groups=[np.arange(n)], ring_meta=[meta])


def build_chain(n: int, d: float, dipole=(0.0, 0.0, 1.0)) -> EmitterArray:
    """Open linear chain along x with spacing d and one common orientation."""
    if n < 1:
        raise ValueError("need at least one emitter")
    if d <= 0:
        raise ValueError("spacing d must be positive")
    positions = np.column_stack([d * np.arange(n), np.zeros(n), np.zeros(n)])
    p = unit_dipole(dipole)
    dipoles = np.tile(p, (n, 1))
    return EmitterArray(positions=positions, dipoles=dipoles)


def build_two_rings(arrangement: str, n: int, d: float, gap: float,
                    polarization="tangential") -> EmitterArray:
    """Two coplanar rings of n emitters facing each other along the x axis.

    Ring 1 is centered at the origin with site 1 at angle 0 (its point nearest
    ring 2).  gap is the nearest-approach distance between the facing features
    of the two rings, not center-to-center.  In the 'site-site' arrangement
    ring 2 has a site facing back at distance gap from ring 1's facing site.
    In the 'site-edge' arrangement ring 2 is additionally rotated by pi/n so an
    edge midpoint faces ring 1's site, with gap the site-to-midpoint distance
    along the center line.
    """
    if arrangement not in ("site-site", "site-edge"):
        raise ValueError(f"unknown arrangement {arrangement!r}")
    if n < 1:
        raise ValueError("need at least one emitter per ring")
    if d <= 0:
        raise ValueError("inter-particle distance d must be positive")
    if gap <= 0:
        raise ValueError("ring separation must be positive")
    ring1 = build_ring(n, d, polarization)
    radius = ring1.ring_meta[0].radius
    if arrangement == "site-site":
        center2_x = 2.0 * radius + gap
        offset2 = np.pi
    else:
        center2_x = radius + gap + radius * np.cos(np.pi / n)
        offset2 = np.pi + np.pi / n
    ring2 = build_ring(n, d, polarization, center=(center2_x, 0.0, 0.0),
                       angular_offset=offset2)
    return EmitterArray(positions=np.vstack([ring1.positions, ring2.positions]),
                        dipoles=np.vstack([ring1.dipoles, ring2.dipoles]),
                        groups=[np.arange(n), np.arange(n, 2 * n)],
                        ring_meta=[ring1.ring_meta[0], ring2.ring_meta[0]])
