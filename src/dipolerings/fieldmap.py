"""Electric field and intensity maps radiated by a single-excitation state."""

from dataclasses import dataclass

import numpy as np

from .emfield import BLOCK_POINTS, radiated_field
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
    """A quarter of the nearest-neighbour distance, taken BLOCK_POINTS emitters at a time."""
    if array.n < 2:
        return 0.0
    pos = array.positions
    nearest = np.inf
    for start in range(0, array.n, BLOCK_POINTS):
        dist = np.linalg.norm(pos[start:start + BLOCK_POINTS, None, :] - pos, axis=-1)
        own = np.arange(len(dist))
        dist[own, start + own] = np.inf
        nearest = min(nearest, float(np.min(dist)))
    return nearest / 4.0


def intensity_map(array: EmitterArray, state: np.ndarray, grid: GridSpec) -> IntensityMap:
    """Field intensity |E+|^2 on the grid.

    Points within a quarter of the nearest-neighbor distance of any emitter
    are still computed but flagged in the mask (the 1/r^6 near field there is
    not meaningful on a map).  Raises SingularityError if a grid point
    coincides with an emitter.
    """
    points = grid.points()
    field, nearest = radiated_field(points, array.positions, array.dipoles, state)
    values = np.sum(np.abs(field) ** 2, axis=1)
    mask = nearest <= _mask_radius(array)
    shape = (grid.res1, grid.res2)
    return IntensityMap(values=values.reshape(shape), mask=mask.reshape(shape), points=points)
