"""Electric field and intensity maps radiated by a single-excitation state."""

from dataclasses import dataclass

import numpy as np

from .emfield import _block_points, radiated_field
from .geometry import EmitterArray


@dataclass(frozen=True)
class GridSpec:
    """Planar evaluation grid: origin plus two in-plane axis vectors.

    Points are origin + u*axis1 + v*axis2 with u in extent1, v in extent2,
    sampled on a (res1 x res2) lattice, row-major in (u, v).
    """

    origin: np.ndarray
    axis1: np.ndarray
    axis2: np.ndarray
    extent1: tuple
    extent2: tuple
    res1: int
    res2: int

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float))
        object.__setattr__(self, "axis1", np.asarray(self.axis1, dtype=float))
        object.__setattr__(self, "axis2", np.asarray(self.axis2, dtype=float))
        if self.res1 < 2 or self.res2 < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if self.extent1[0] >= self.extent1[1] or self.extent2[0] >= self.extent2[1]:
            raise ValueError("grid extent is degenerate")

    @classmethod
    def xy(cls, z: float, extent, res: int) -> "GridSpec":
        (x0, x1), (y0, y1) = extent
        return cls((0, 0, z), (1, 0, 0), (0, 1, 0), (x0, x1), (y0, y1), res, res)

    @classmethod
    def xz(cls, y: float, extent, res: int) -> "GridSpec":
        (x0, x1), (z0, z1) = extent
        return cls((0, y, 0), (1, 0, 0), (0, 0, 1), (x0, x1), (z0, z1), res, res)

    @classmethod
    def yz(cls, x: float, extent, res: int) -> "GridSpec":
        (y0, y1), (z0, z1) = extent
        return cls((x, 0, 0), (0, 1, 0), (0, 0, 1), (y0, y1), (z0, z1), res, res)

    def coords(self) -> tuple:
        u = np.linspace(self.extent1[0], self.extent1[1], self.res1)
        v = np.linspace(self.extent2[0], self.extent2[1], self.res2)
        return u, v

    def points(self) -> np.ndarray:
        """All grid points as an (res1*res2, 3) array, row-major in (u, v)."""
        u, v = self.coords()
        uu, vv = np.meshgrid(u, v, indexing="ij")
        return (self.origin[None, :]
                + uu.reshape(-1, 1) * self.axis1[None, :]
                + vv.reshape(-1, 1) * self.axis2[None, :])


@dataclass
class IntensityMap:
    """|E+|^2 on a grid, with near-emitter points flagged in mask."""

    values: np.ndarray    # (res1, res2) float
    mask: np.ndarray      # (res1, res2) bool, True within d/4 of an emitter
    points: np.ndarray    # (res1*res2, 3) float, grid.points(): the map's points in row order


def _mask_radius(array: EmitterArray) -> float:
    """A quarter of the nearest-neighbour distance, _block_points(n) emitters at a time."""
    if array.n < 2:
        return 0.0
    pos = array.positions
    nearest = np.inf
    step = _block_points(array.n)
    for start in range(0, array.n, step):
        dist = np.linalg.norm(pos[start:start + step, None, :] - pos, axis=-1)
        own = np.arange(len(dist))
        dist[own, start + own] = np.inf
        nearest = min(nearest, float(np.min(dist)))
    return nearest / 4.0


def _orbit_representatives(array: EmitterArray, state: np.ndarray, grid: GridSpec,
                           points: np.ndarray, tol: float) -> np.ndarray:
    """Per grid point, the lowest flat index of its orbit under the kept isometries.

    The candidates are the array's declarations (flip D, site map pi), whose flips
    EmitterArray checked on the positions about the centroid, so all of them are used only
    if the centroid is at the grid's origin (to tol/8).  A candidate is kept if the
    amplitudes map onto themselves, w[pi] = chi D w for w = c p and one unit-modulus chi (to
    1e-12 of max |w|), and if the grid's points map onto themselves, D r_(i,j) = r at (i, j)
    with the index reversed along each grid axis that D flips (to tol).  Then E(D r) =
    chi D E(r): |E|^2 and the nearest-emitter distance are equal on an orbit.  A build_chain
    array (n >= 2) declares its inversion but folds nothing: its centroid is off the origin.
    """
    shape = (grid.res1, grid.res2)
    rep = np.arange(len(points)).reshape(shape)
    if np.abs(array.positions.mean(axis=0)).max() > tol / 8.0:
        return rep.reshape(-1)
    w = state[:, None] * array.dipoles
    pts = points.reshape(*shape, 3)
    for flip, perm in array.symmetries:
        flips = tuple(k for k, axis in enumerate((grid.axis1, grid.axis2))
                      if axis @ (flip * axis) < 0)
        turned_w = flip * w
        chi = np.exp(1j * np.angle(np.vdot(turned_w, w[perm])))
        if (flips
                and np.max(np.abs(w[perm] - chi * turned_w))
                <= 1e-12 * np.max(np.abs(w), initial=0.0)
                and np.max(np.abs(flip * pts - np.flip(pts, flips))) <= tol):
            rep = np.minimum(rep, np.flip(rep, flips))    # axis flips commute: whole orbits
    return rep.reshape(-1)


def intensity_map(array: EmitterArray, state: np.ndarray, grid: GridSpec) -> IntensityMap:
    """Field intensity |E+|^2 on the grid.

    Points within a quarter of the nearest-neighbor distance of any emitter
    are still computed but flagged in the mask (the 1/r^6 near field there is
    not meaningful on a map).  Raises SingularityError if a grid point
    coincides with an emitter.

    The field is evaluated at one point per symmetry orbit, the one with the lowest flat
    index, and its intensity and nearest-emitter distance are copied to the orbit's
    other points.  The candidate symmetries are the coordinate flips that the array
    declares (EmitterArray.symmetries: a ring's mirror z -> -z and, for even n, its
    half-turn about z), used only if the array's centroid is the grid's origin; each is
    kept only if two O(N + P) checks pass (_orbit_representatives): the amplitudes map onto
    themselves up to one phase, and the grid maps onto itself with its index reversed along
    the axes the flip reverses, to 1e-12 of the largest coordinate.  An xy map of an even
    ring halves the points, an xz or yz map through the centre quarters them; an odd ring,
    an off-centre plane or ring, or a state without the symmetry evaluates every point.
    """
    points = grid.points()
    state = np.asarray(state, dtype=complex)
    tol = 1e-12 * max(np.max(np.abs(points)), np.max(np.abs(array.positions)))
    rep = _orbit_representatives(array, state, grid, points, tol)
    own = rep == np.arange(len(rep))
    reps = np.flatnonzero(own)
    field, nearest = radiated_field(points[reps], array.positions, array.dipoles, state)
    # Per coordinate, a kept flip maps each emitter within 5 tol / 4 of its image about the
    # origin (tol from EmitterArray's check about the centroid c, 2|c| <= tol / 4) and each
    # grid point within tol of its image, one step per declared flip: an image on an emitter
    # puts its representative within (9 / 4) sqrt(3) tol < 4 tol per declared flip of one.
    # Evaluate those orbits whole, so that the kernel raises SingularityError as for the image.
    close = reps[nearest <= 4.0 * len(array.symmetries) * tol]
    if len(close):
        radiated_field(points[np.isin(rep, close)], array.positions, array.dipoles, state)
    slot = (np.cumsum(own) - 1)[rep]
    values = np.sum(np.abs(field) ** 2, axis=1)[slot]
    mask = (nearest <= _mask_radius(array))[slot]
    shape = (grid.res1, grid.res2)
    return IntensityMap(values=values.reshape(shape), mask=mask.reshape(shape), points=points)
