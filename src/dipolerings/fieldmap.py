"""Electric field and intensity maps radiated by a single-excitation state."""

from dataclasses import dataclass

import numpy as np

from .emfield import _block_points, radiated_field
from .geometry import EmitterArray
from .spectrum import _symmetry_elements


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

    # an extent out of float range gives inf or nan coordinates, which the callers report
    @np.errstate(over="ignore", invalid="ignore")
    def coords(self) -> tuple:
        u = np.linspace(self.extent1[0], self.extent1[1], self.res1)
        v = np.linspace(self.extent2[0], self.extent2[1], self.res2)
        return u, v

    @np.errstate(over="ignore", invalid="ignore")
    def points(self) -> np.ndarray:
        """All grid points as an (res1*res2, 3) array, row-major in (u, v): the transpose of
        the contiguous (3, res1*res2) coordinate rows, each origin + u axis1 + v axis2."""
        u, v = self.coords()
        rows = (self.origin[:, None, None] + u[:, None] * self.axis1[:, None, None]
                + v * self.axis2[:, None, None])
        return rows.reshape(3, -1).T


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
                           points: np.ndarray, tol: float) -> tuple:
    """(rep, source, states): per grid point the lowest flat index of its orbit under the kept
    isometries and the column of the (N, S) states, the state and its distinct images, whose
    field at that representative gives the point's intensity.

    The candidates are the elements of the group that the array's declarations generate where
    they map the dipoles onto +- their images' (spectrum._symmetry_elements: flip D, site map
    pi, signs s with D p_i = s_i p_pi(i)), whose flips EmitterArray checked on the positions
    about the centroid, so all of them are used only if the centroid is at the grid's origin
    (to tol/8).  An element is kept if it reverses the index along a grid axis and maps the
    grid's points onto themselves, D r_(i,j) = r at (i, j) with the index reversed along each
    grid axis that D flips, to tol per coordinate.  Then E_c(D r) = D E_c'(r) for the image
    state c'_pi(i) = s_i c_i: |E|^2 at D r is that of c' at r, and the nearest-emitter distance
    is equal on an orbit.  Images equal to a known state up to one unit-modulus phase (to 1e-12
    of max |c|) share its column; of the elements with one grid map the one whose image has
    the lowest column is used, so an element that fixes the state up to a phase adds none.  A
    build_chain array (n >= 2) declares its inversion but folds nothing: its centroid is off
    the origin.
    """
    shape = (grid.res1, grid.res2)
    index = np.arange(grid.res1 * grid.res2).reshape(shape)
    states, maps = [state], {}                  # maps: reversed grid axes -> column of states
    scale = 1e-12 * np.max(np.abs(state), initial=0.0)

    def column(image):      # of the first state equal to image up to one unit phase, or a new one
        return next((k for k, known in enumerate(states)
                     if np.max(np.abs(image - np.exp(1j * np.angle(np.vdot(known, image))) * known))
                     <= scale), len(states))
    if np.abs(array.positions.mean(axis=0)).max() <= tol / 8.0:
        pts = points.reshape(*shape, 3)
        images = []
        for flip, perm, sign in zip(*_symmetry_elements(array)):
            axes = tuple(k for k, axis in enumerate((grid.axis1, grid.axis2))
                         if axis @ (flip * axis) < 0)
            image = np.empty_like(state)
            image[perm] = sign * state
            if axes:
                images.append((column(image) > 0, axes, flip, image))
        for _, axes, flip, image in sorted(images, key=lambda item: item[0]):   # fixers first
            k = column(image)
            if axes in maps and maps[axes] <= k:
                continue
            if np.max(np.abs(flip * pts - np.flip(pts, axes))) <= tol:
                if k == len(states):
                    states.append(image)
                maps[axes] = k
    rep, source = index, np.zeros(shape, dtype=np.intp)
    for axes in maps:
        rep = np.minimum(rep, np.flip(index, axes))
    assigned = rep == index
    for axes, k in sorted(maps.items(), key=lambda item: item[1]):
        hit = ~assigned & (np.flip(index, axes) == rep)       # the map carries rep onto it
        source[hit] = k
        assigned |= hit
    return rep.reshape(-1), source.reshape(-1), np.column_stack(states)


def intensity_map(array: EmitterArray, state: np.ndarray, grid: GridSpec) -> IntensityMap:
    """Field intensity |E+|^2 on the grid.

    Points within a quarter of the nearest-neighbor distance of any emitter
    are still computed but flagged in the mask (the 1/r^6 near field there is
    not meaningful on a map).  Raises SingularityError if a grid point
    coincides with an emitter.

    The field is evaluated in one radiated_field call at one point per symmetry orbit, the
    lowest flat index, for the state and each distinct image of it; the orbit's other points
    take the intensity of the image that their map carries there, and the orbit's
    nearest-emitter distance (_orbit_representatives).  The symmetries are the coordinate
    flips that the array declares (EmitterArray.symmetries) and their products, used where
    the array's centroid is the grid's origin and the grid maps onto itself, to 1e-12 of the
    largest coordinate.  A ring's half-turn and mirror z -> -z map a spin wave m onto itself
    up to a phase, its mirrors y -> -y and x -> -x onto -m: an even ring's xy map takes a
    quarter of the points for two states, an odd ring's half of them for two, and an xz or yz
    map a quarter, for one state through the centre and two off it.
    """
    points = grid.points()
    state = np.asarray(state, dtype=complex)
    tol = 1e-12 * max(np.max(np.abs(points)), np.max(np.abs(array.positions)))
    rep, source, states = _orbit_representatives(array, state, grid, points, tol)
    used = np.zeros(len(rep), dtype=bool)
    used[rep] = True
    reps = np.flatnonzero(used)
    field, nearest = radiated_field(points[reps], array.positions, array.dipoles, states)
    # Per coordinate, a kept flip maps each emitter within 5 tol / 4 of its image about the
    # origin (tol from EmitterArray's check about the centroid c, 2|c| <= tol / 4) and each
    # grid point within tol of its image, one step per declared flip: an image on an emitter
    # puts its representative within (9 / 4) sqrt(3) tol < 4 tol per declared flip of one.
    # Evaluate those orbits whole, so that the kernel raises SingularityError as for the image.
    close = reps[nearest <= 4.0 * len(array.symmetries) * tol]
    if len(close):
        radiated_field(points[np.isin(rep, close)], array.positions, array.dipoles, state)
    slot = (np.cumsum(used) - 1)[rep]
    values = np.sum(np.abs(field) ** 2, axis=1)[slot, source]
    mask = (nearest <= _mask_radius(array))[slot]
    shape = (grid.res1, grid.res2)
    return IntensityMap(values=values.reshape(shape), mask=mask.reshape(shape), points=points)
