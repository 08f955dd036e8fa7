"""Uniform 2^D-ary box hierarchy over a cube.

A Tree bins its points once: it sorts them by leaf and recenters each on
its leaf, which is all the leaf passes and the near field read per point.
Alongside point binning, this module samples the greedy's training points
per level (training_grids): one array in the far region, the hollow cube
holding every well-separated translate, and one in the source box, both
recentered at the origin.  Well-separation is the integer criterion
(Chebyshev index distance >= 2), and the lattice zones are cubes of whole
cells, so no floating-point tie cases exist in any list or grid.
"""

import itertools
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.sparse import get_index_dtype


@dataclass(frozen=True)
class TreeConfig:
    """Cube domain of a given side around a center, cut to uniform depth."""

    dimension: int = 3
    side: float = 1.0
    depth: int = 4
    center: tuple = None

    def __post_init__(self):
        # CacheKey's rule: a value that int() would change is refused
        for name in ("dimension", "depth"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and float(value).is_integer()):
                raise ValueError(f"TreeConfig {name} must be an int, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if not (0.0 < self.side < np.inf):
            raise ValueError("side must be positive and finite")
        if self.depth < 2:
            # Levels 0 and 1 have no well-separated boxes, so a shallower
            # tree has an empty far field and nothing to accelerate.
            raise ValueError("depth must be at least 2")
        if self.dimension * self.depth > 63:
            # a leaf's flat index has dimension * depth bits, in an int64
            raise ValueError(f"dimension * depth must be at most 63, got "
                             f"{self.dimension} * {self.depth}")
        if self.depth > 42:
            # Binning rounds a point up to 2^(depth - 53) leaf half widths
            # out of its leaf: 2^-10 at depth 43 (only 1D gets that deep).
            raise ValueError(f"depth must be at most 42, got {self.depth}")
        c = (np.zeros(self.dimension) if self.center is None
             else finite_floats("center coordinate", self.center))
        if c.shape != (self.dimension,):
            raise ValueError("center must have one coordinate per dimension")
        object.__setattr__(self, "center", tuple(float(v) for v in c))

    def half_width(self, level):
        """Half side of a level-k box: side / 2^(k+1)."""
        return self.side / float(2 ** (level + 1))

    def center_array(self):
        return np.asarray(self.center, dtype=float)


def _unrank_hollow(ranks, n, lo, hi, dimension):
    """Multi-indices at the given ranks of the row-major enumeration of
    {0..n-1}^dimension with the block [lo, hi)^dimension removed."""
    shape = (n,) * dimension
    block = np.meshgrid(*[np.arange(lo, hi)] * dimension, indexing="ij")
    removed = np.ravel_multi_index([b.ravel() for b in block], shape)
    # kept rank r skips every removed[j] preceded by removed[j] - j <= r kept sites
    ranks = np.asarray(ranks, dtype=np.int64)
    skipped = np.searchsorted(removed - np.arange(removed.size), ranks, side="right")
    return np.stack(np.unravel_index(ranks + skipped, shape), axis=1)


def _thinned(n, hole, dimension, take):
    """At most ``take`` evenly ranked multi-indices of {0..n-1}^dimension
    minus its centered cube of ``hole`` cells per axis (n - hole is even)."""
    total = n**dimension - hole**dimension
    take = min(int(take), total)
    ranks = (np.arange(take, dtype=np.int64) * total) // take
    lo = (n - hole) // 2
    return _unrank_hollow(ranks, n, lo, lo + hole, dimension)


def require_level(level, top, *models):
    """Refuse a level outside 2..top, the levels a per-level step serves, or
    models[i] (each with a level) built for a level other than level + i."""
    if not 2 <= level <= top:
        raise ValueError(f"level {level} outside 2..{top}")
    for want, pair in enumerate(models, level):
        if pair.level != want:
            raise ValueError(f"level {pair.level} models cannot serve level {want}")


def training_grids(config, level, resolution, x_budget=8192):
    """Candidate points (points_x, points_y) for a level's greedy node
    searches, cell-centered on the level's reference domains translated to
    the origin; valid for 2 <= level <= depth, the levels with a far region.

    The source box is the cube [-h, h]^D, h the level's half width.  The
    far region is the closed cube of bound side - h minus the open cube of
    bound 3h; it contains the recentered position of every point of every
    well-separated same-level box.

    The source-box grid, points_y, has resolution^D points strictly inside
    the box.  The far-region grid, points_x, reuses the same spacing over
    the n^D cells covering the outer cube, n = (2^(level+1) - 1) *
    resolution, minus the centered cube of 3 * resolution cells per axis.
    It is split in two zones, each thinned to evenly spaced row-major ranks
    (the lattice at deep levels is far too large to materialize, let alone
    train on):

    * the transfer shell, the centered 7 * resolution cells per axis (max-norm
      distance up to 7 half-widths), where the kernel varies fastest and all
      same-level transfers live, gets the full budget.  Its relative site
      pattern is identical at every level, so a scale-invariant kernel sees
      the same training problem per level.
    * the remaining outer zone (empty at level 2) gets a quarter budget;
      the kernel restricted there is far smoother, but the upward/downward
      recursions still evaluate the interpolants there.
    """
    require_level(level, config.depth)
    res = int(resolution)
    if res != resolution or res < 2:
        raise ValueError("resolution must be an integer of at least 2")
    if x_budget < 1:
        raise ValueError("x_budget must be positive")
    dim = config.dimension
    half = config.half_width(level)
    far_outer = config.side - half
    spacing = 2.0 * half / res
    ycoords = -half + (np.arange(res) + 0.5) * spacing
    cells = np.unravel_index(np.arange(res**dim), (res,) * dim)
    points_y = ycoords[np.stack(cells, axis=1)]

    n = int(round(2.0 * far_outer / spacing))
    xcoords = -far_outer + (np.arange(n) + 0.5) * spacing
    shell = 7 * res
    idx = _thinned(shell, 3 * res, dim, x_budget) + (n - shell) // 2
    if n > shell:
        idx = np.concatenate([idx, _thinned(n, shell, dim, max(1, x_budget // 4))])
    return xcoords[idx], points_y


@dataclass(frozen=True)
class BoxId:
    """A box named by its level and per-coordinate index."""

    level: int
    multi_index: tuple


@lru_cache(maxsize=None)
def child_offsets(dimension):
    """All 2^D child bit patterns in row-major order; index is the parity rank."""
    return np.asarray(list(itertools.product((0, 1), repeat=dimension)), dtype=np.int64)


def parity_rank(multi):
    """Row-major rank of a box's parity pattern among the 2^D children."""
    multi = np.asarray(multi, dtype=np.int64)
    dim = multi.shape[-1]
    weights = 1 << np.arange(dim - 1, -1, -1, dtype=np.int64)
    return (multi & 1) @ weights


@lru_cache(maxsize=None)
def transfer_offsets(dimension):
    """Distinct transfer offsets: integer vectors in [-3,3]^D with Chebyshev
    norm >= 2, in row-major order.  There are 7^D - 3^D of them."""
    cube = np.asarray(
        list(itertools.product(range(-3, 4), repeat=dimension)), dtype=np.int64
    )
    return cube[np.max(np.abs(cube), axis=1) >= 2]


@lru_cache(maxsize=None)
def _transfer_index_table(dimension):
    return {tuple(off): i for i, off in enumerate(transfer_offsets(dimension))}


def finite_floats(name, values):
    """values as a float array.  A ValueError refuses a complex dtype,
    naming name, and NaN or infinite entries, naming the first offending
    row."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ValueError(f"{name} values must be real, not {values.dtype}")
    values = values.astype(float, copy=False)
    bad = ~np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{name} {i} is not finite: {values[i].tolist()}")
    return values


class Tree:
    """Immutable spatial index of one point set under a TreeConfig.

    Points are sorted by leaf once at build time, so every per-box pass
    reads contiguous slices.  Per sorted point it keeps only what a pass
    reads: ``order`` (its input index), ``sorted_points`` (the near field)
    and ``leaf_local``, the point recentered on its leaf (the leaf passes),
    an (n, D) view of one contiguous plane per coordinate.
    Occupied boxes of every level (ancestors of occupied leaves) are kept
    as sorted flat indices and multi-indices; ``children[level]`` holds per
    box at level - 1 its children's rows at level in parity order, or -1,
    and ``parents[level]`` per box at level its parent's row.
    """

    def __init__(self, points, config):
        points = finite_floats("point", np.atleast_2d(points))
        if points.ndim != 2 or points.shape[1] != config.dimension:
            raise ValueError(
                f"points must have shape (n, {config.dimension}), got {points.shape}"
            )
        shifted = points - config.center_array()
        half_side = 0.5 * config.side
        # The closed cube is accepted; exact upper-boundary points clamp into
        # the last cell so the leaves always partition the input.
        outside = np.abs(shifted) > half_side
        if outside.any():
            i = int(np.nonzero(outside.any(axis=1))[0][0])
            raise ValueError(
                f"point {i} at {points[i].tolist()} lies outside the domain cube"
            )
        nleaf = 2**config.depth
        cell = config.side / nleaf
        leaf_multi = np.floor((shifted + half_side) / cell).astype(np.int64)
        np.minimum(leaf_multi, nleaf - 1, out=leaf_multi)

        self.config = config
        flat = self._ravel(leaf_multi, config.depth)
        order = np.argsort(flat, kind="stable")
        self.order = order
        self.sorted_points = points[order]
        multi = leaf_multi[order]
        # Exact dyadic leaf centers, so recentering commutes with a dyadic
        # translation of the domain.
        half = config.half_width(config.depth)
        local = shifted[order] - ((2.0 * multi + 1) * half - half_side)
        # stored one contiguous plane per coordinate, the layout the leaf
        # passes build their displacements in; leaf_local is its (n, D) view
        self.leaf_local = np.ascontiguousarray(local.T).T
        leaves, starts, counts = np.unique(
            flat[order], return_index=True, return_counts=True
        )
        self.leaf_starts = starts
        self.leaf_counts = counts

        # Occupied boxes per level, from the leaves up, with children and parents.
        self.level_flat = {config.depth: leaves}
        self.level_multi = {config.depth: multi[starts]}
        self.children, self.parents = {}, {}
        for level in range(config.depth, 0, -1):
            finer = self.level_multi[level]
            flat, first, parent = np.unique(self._ravel(finer >> 1, level - 1),
                                            return_index=True, return_inverse=True)
            self.level_flat[level - 1] = flat
            self.level_multi[level - 1] = finer[first] >> 1
            self.children[level] = np.full((flat.size, 2**config.dimension), -1,
                                           dtype=get_index_dtype(maxval=len(finer)))
            self.children[level][parent, parity_rank(finer)] = np.arange(len(finer))
            self.parents[level] = parent

    def _ravel(self, multi, level):
        dim = self.config.dimension
        if multi.size == 0:
            return np.empty(0, dtype=np.int64)
        weights = np.int64(1) << (level * np.arange(dim - 1, -1, -1, dtype=np.int64))
        return multi @ weights

    @property
    def n_points(self):
        return self.order.size


def build_tree(points, config):
    """Bin points into the uniform hierarchy; errors name the first point
    outside the domain cube."""
    return Tree(points, config)


def interaction_list(tree, box):
    """Same-level well-separated children of the parent's neighbors.

    Each entry pairs the box with the canonical index of its integer offset
    (their multi-index difference), which names the transfer operator to
    apply.  Levels 0 and 1 return an empty list.
    """
    if box.level < 2:
        return []
    n = 2**box.level
    own = tuple(int(c) for c in box.multi_index)
    ranges = [range(max(0, 2 * (c // 2 - 1)), min(n, 2 * (c // 2 + 2))) for c in own]
    named = _transfer_index_table(len(own))
    out = []
    for combo in itertools.product(*ranges):
        delta = tuple(c - o for c, o in zip(combo, own))
        if max(map(abs, delta)) >= 2:
            out.append((BoxId(box.level, combo), named[delta]))
    return out
