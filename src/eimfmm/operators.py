"""Per-level precomputation for the multilevel engine.

For each level this builds the two directional interpolation models, the
2^D parent/child translation matrices of M2M and L2L (one builder for
both: a model's kernel sections at shifted nodes, its coefficient map
folded in through triangular solves), and the compressed transfer
operators, the same way for every kernel: a column basis and a row basis
from truncated SVDs of the concatenated transfer blocks and of their
transposes (one basis serves both for a symmetric kernel), each taken
through the small R factor of a QR, then each block projected on both, kept
dense.  The QR is streamed: block transposes fill one small panel at a
time, folded into a running triangle, so the concatenation is never held;
the projection evaluates each block again.  On a symmetric level one
evaluation gives a mirrored pair of blocks, B_{-t} = B_t^T, and the level
is mirrored: one basis, and only the first half of the offsets' blocks,
built, cached and swept (C_{-t} is the view C_t^T).  A kernel that
declares a degree p, K(a d) = a^p K(d), is built at the deepest level only:
coarser models are its own rescaled by exact powers of two (see _rescaled),
and its transfer and deepest M2M/L2L operators serve every level.  All of it serializes to a versioned little-endian binary cache:
the key, the arrays in the key's order, one SHA-256 (laid out above save_cache).
"""

import hashlib
import math
import os
import struct
import tempfile
from dataclasses import astuple, dataclass, field, fields

import numpy as np
from scipy.linalg.lapack import dtpqrt

from .eim import EimModel, eim_build, require_tolerance
from .tree import child_offsets, require_level, training_grids, transfer_offsets

CACHE_MAGIC = b"EIMFMM01"
CACHE_VERSION = 11


class CacheError(Exception):
    """Base class for operator-cache failures."""


class CacheVersionError(CacheError):
    """File is not a cache of a version this library reads."""


class CacheMismatchError(CacheError):
    """Cache was built for a different configuration."""


class CacheCorruptError(CacheError):
    """File is truncated or internally inconsistent."""


@dataclass
class LevelEims:
    """Both directional interpolation models of one level.

    ``radiating`` approximates the kernel for far evaluation points against
    source-box points; ``receiving`` swaps the roles.  A level given no
    receiving model (a symmetric kernel's) takes the radiating model's
    transpose, which solves through the same cross matrix, transposed;
    ``derived`` records that.  A receiving model that is given is kept.
    """

    level: int
    radiating: EimModel
    receiving: EimModel | None = None
    derived: bool = field(init=False)

    def __post_init__(self):
        self.derived = self.receiving is None
        if self.derived:
            self.receiving = self.radiating.transposed()

    @property
    def terms(self):
        return self.radiating.d


@dataclass
class TranslationOperators:
    """2^D parent/child maps at one level, indexed by the child's parity
    rank, with a coefficient map folded in.

    M2M maps the child level's moments (length d_{k+1}) to the parent
    level's (d_k by d_{k+1}); L2L samples the parent's interpolated incoming
    field at the child's nodes (d_{k+1} by d_k).
    """

    matrices: list


@dataclass
class M2lOperators:
    """Compressed same-level transfer operators, built at ``level``.

    The transfer block B_t of offset t is approximated by projector @
    block(t) @ row_basis.T, with C_t = block(t) = projector.T @ B_t @
    row_basis.  ``projector`` is the orthonormal column basis on the
    receiving side (d_recv by rank), ``row_basis`` the orthonormal basis on
    the radiating side (d_rad by r_v).  A symmetric kernel's level is
    mirrored, and only then are the two bases one array (row_basis is
    projector): the row-major offset n - 1 - t is -t, so C_{n-1-t} = C_t^T,
    and ``blocks``, one (stored offsets, rank, r_v) array, holds C_t for
    the first n/2 offsets only.  Otherwise it holds all n.
    """

    level: int
    projector: np.ndarray
    row_basis: np.ndarray
    blocks: np.ndarray

    @property
    def rank(self):
        return self.projector.shape[1]

    @property
    def _mirrored(self):
        # what the cache file's mirrored flag records
        return self.row_basis is self.projector

    def block(self, t):
        """C_t for offset t: blocks[t], else (t in the second half of a
        mirrored level) the view blocks[n - 1 - t].T."""
        half = len(self.blocks)
        if t < half or not self._mirrored:
            return self.blocks[t]
        return self.blocks[2 * half - 1 - t].T

    def block_rank(self, t):
        """Every block is stored dense, at the rank of the projector."""
        return self.rank


def build_level_eims(kernel, config, level, tolerance, max_terms,
                     resolution, x_budget=8192):
    """Greedy models for one level, on grids over the reference domains.

    For a kernel that declares a scaling, a level above the deepest gets
    the deepest level's models, rescaled: bitwise what build_operator_cache
    stores for it.  A symmetric kernel's level gets no receiving model of
    its own: LevelEims derives it from the radiating model.
    """
    require_level(level, config.depth)
    require_tolerance("tolerance", tolerance)
    if kernel.scaling is not None and level < config.depth:
        deepest = build_level_eims(kernel, config, config.depth, tolerance,
                                   max_terms, resolution, x_budget)
        return _rescaled(kernel, deepest, config.depth - level)
    px, py = training_grids(config, level, resolution, x_budget)
    # the deepest level stands in for every coarser one of a scaling kernel
    factors = 2.0 ** np.arange(1, level - 1) if kernel.scaling is not None else ()
    _check_promises(kernel, px, py, tolerance, factors)
    radiating = eim_build(kernel, px, py, tolerance, max_terms)
    receiving = None if kernel.is_symmetric else eim_build(
        kernel, py, px, tolerance, max_terms)
    return LevelEims(level, radiating, receiving)


def _check_promises(kernel, points_x, points_y, tolerance, factors):
    """Refuse a kernel that breaks what it declares, on a fixed subsample of
    <= 64 x 64 of the training pairs.  Symmetry selects the transposed
    receiving model, the half near field and V = U; a scaling selects
    models rescaled from this level, and its transfer operators, at every
    factor a.  Each is silently wrong for a kernel that breaks it, so
    K(y, x) must match K(x, y), and K(a x, a y) must match a^p K(x, y),
    within tolerance of the largest value compared."""
    xs, ys = (p[::-(-len(p) // 64)] for p in (points_x, points_y))
    forward = kernel.pairwise(xs, ys)
    checks = []
    if kernel.is_symmetric:
        checks.append(("declared symmetric, but K(x, y) != K(y, x)",
                       forward, kernel.pairwise(ys, xs).T))
    for a in factors:
        checks.append((f"declared scaling={kernel.scaling}, but K(a x, a y) != "
                       f"a^{kernel.scaling} K(x, y) at a = {a:g}",
                       forward * a ** kernel.scaling, kernel.pairwise(a * xs, a * ys)))
    for broken, expect, got in checks:
        if not np.abs(got - expect).max() <= tolerance * np.abs(expect).max():
            raise ValueError(f"kernel {kernel.name!r} is {broken} on its "
                             "training pairs")


def _rescaled(kernel, eims, coarser):
    """The models ``eims`` of a kernel of degree p, K(a d) = a^p K(d),
    moved ``coarser`` levels up the tree (down when negative), to boxes
    a = 2^coarser times wider.

    Every node scales by a and every kernel value by a^p, both exact powers
    of two, so a rescaled greedy model is bitwise the greedy run on the
    rescaled training grid: pivots and residuals scale by a^p, the unit
    triangular basis is unchanged, and a derived receiving model is derived
    again.  The transfer operators need no rescaled copy: each level runs
    the deepest level's, folded with the deepest radiating model, whose
    pivots lack the a^p that the blocks lack.
    """
    a, gain = 2.0 ** coarser, 2.0 ** (coarser * kernel.scaling)
    return LevelEims(eims.level - coarser, *(
        EimModel(m.x_points * a, m.y_points * a, m.basis_matrix,
                 m.pivot_matrix * gain, m.residual_history * gain, m.degenerate)
        for m in (eims.radiating, eims.receiving)[:1 if eims.derived else 2]))


def assemble_m2m(kernel, config, level, eims, child_eims):
    """Child-to-parent moment operators between two consecutive levels:
    the parent's far nodes seen from each child center."""
    return _translation(kernel, config, level, eims, child_eims, -1)


def assemble_l2l(kernel, config, level, eims, child_eims):
    """Parent-to-child local operators between two consecutive levels:
    the child's nodes seen from the parent center."""
    return _translation(kernel, config, level, eims, child_eims, 1)


def _translation(kernel, config, level, eims, child_eims, sign):
    """Per child parity: kernel between points shifted by sign times the
    child's center offset (M2M's parent far nodes, L2L's child nodes) and
    the y nodes of the model whose coefficient map it goes through, stored
    C-ordered as load_cache returns them: a built and a loaded cache run the
    same BLAS paths.  For a scaling kernel, a level above depth - 1 gets the
    pair assembled there on its rescaled models (OperatorCache.translations)."""
    require_level(level, config.depth - 1, eims, child_eims)
    if kernel.scaling is not None and level < config.depth - 1:
        return _translation(kernel, config, config.depth - 1, *(_rescaled(
            kernel, e, level - config.depth + 1) for e in (eims, child_eims)), sign)
    points, model = ((eims.radiating.x_points, child_eims.radiating) if sign < 0
                     else (child_eims.receiving.x_points, eims.receiving))
    half_child = config.half_width(level + 1)
    mats = []
    for bits in 2 * child_offsets(config.dimension) - 1:
        geom = kernel.pairwise(points + sign * bits * half_child, model.y_points)
        mats.append(np.ascontiguousarray(model.coefficients_t(geom.T).T))
    return TranslationOperators(mats)


def _tail_rank(svals, rel_tol):
    """Smallest rank r whose Frobenius tail sqrt(sum_{i>=r} s_i^2) is at
    most rel_tol times the whole norm, for descending singular values."""
    tails = np.sqrt(np.cumsum(svals[::-1] ** 2)[::-1])
    norm = tails[0] if tails.size else 0.0
    return int(np.count_nonzero(tails > rel_tol * norm))


# Block transposes per panel of the streamed QR, and dtpqrt's block size.
# On laplace tol 1e-6, depth 4 (d = 168; 2-vCPU x86_64, 2 BLAS threads) a
# basis took 114-127 ms at 32 and 8, 177-196 ms at 32 and 32, and 196-235 ms
# for one in-place QR of the whole 68 MiB operand.
_PANEL_BLOCKS, _QR_BLOCK = 32, 8


def _column_basis(blocks, eps):
    """Orthonormal basis of the truncated left singular subspace of the wide
    matrix [B_0 B_1 ...] of equal-shaped blocks, at the smallest rank whose
    Frobenius tail is within eps.  The wide matrix is R^T Q^T for the QR of
    its transpose, so it and the small R^T share left singular vectors and
    values, and neither the wide matrix, its transpose nor Q is ever formed.
    R is streamed: the block transposes fill one Fortran panel of at most
    _PANEL_BLOCKS, which LAPACK's triangular-pentagonal QR folds into the
    running d x d triangle, R = 0 at the start, [R; panel] = Q' R'.
    """
    r_factor = panel = None
    rows = 0

    def fold(filled):
        # overwrites the upper triangle of r_factor and the panel's rows
        return dtpqrt(0, min(_QR_BLOCK, len(r_factor)), r_factor, panel[:filled],
                      overwrite_a=1, overwrite_b=1)[0]

    for block in blocks:
        height, width = block.shape
        if panel is None:
            r_factor = np.zeros((height, height), order="F")
            panel = np.empty((_PANEL_BLOCKS * width, height), order="F")
        panel[rows:rows + width] = block.T
        rows += width
        if rows == len(panel):
            r_factor, rows = fold(rows), 0
    if rows:
        r_factor = fold(rows)
    basis, svals, _ = np.linalg.svd(r_factor.T)
    return np.ascontiguousarray(basis[:, :_tail_rank(svals, eps)])


def assemble_m2l(kernel, config, level, eims, compression_tolerance):
    """Compressed transfer operators for every offset of one level.

    Projects the transfer blocks B_t from both sides: a column basis U from
    the concatenation of all blocks (d_recv rows), a row basis V from the
    concatenation of their transposes (d_rad rows), each a truncated SVD
    that keeps the smallest rank whose Frobenius tail is within the
    tolerance.  Every block is stored as U^T B_t V, dense, in one array.

    No list of blocks is held: each basis streams the blocks through its
    QR, and the projection evaluates them again, one at a time.  A
    symmetric kernel's level, whose receiving x nodes are its radiating y
    nodes (else it is refused), has B_{-t} = B_t^T: each mirrored pair is
    evaluated once per pass, twice in all, and gives U = V and C_{-t} =
    C_t^T exactly, so only the first half of the offsets' blocks is stored
    (M2lOperators.block gives the rest).  Otherwise every block is
    evaluated three times and stored.

    For a kernel that declares a scaling, a level above the deepest gets
    the operators assembled at the depth, on its models rescaled there,
    labelled with the depth: every level runs them (OperatorCache.transfer).
    """
    require_level(level, config.depth, eims)
    require_tolerance("compression_tolerance", compression_tolerance)
    px, py = eims.receiving.x_points, eims.radiating.y_points
    if kernel.is_symmetric and not np.array_equal(px, py):
        raise ValueError(f"level {level}: the receiving x nodes of a symmetric "
                         "kernel's level must be its radiating y nodes")
    eps = float(compression_tolerance)
    if kernel.scaling is not None and level < config.depth:
        return assemble_m2l(kernel, config, config.depth,
                            _rescaled(kernel, eims, level - config.depth), eps)
    offsets = transfer_offsets(config.dimension)
    step = 2.0 * config.half_width(level)
    # row-major offsets of a cube centred on 0: offset n - 1 - t is -offset t
    mirrored = kernel.is_symmetric
    stored = _stored_blocks(config.dimension, mirrored)

    def kernel_blocks():
        return (kernel.pairwise(px, py + step * off) for off in offsets[:stored])

    if mirrored:
        # the blocks' transposes are the same columns, so V is U
        projector = row_basis = _column_basis(
            (m for b in kernel_blocks() for m in (b, b.T)), eps)
    else:
        projector = _column_basis(kernel_blocks(), eps)
        row_basis = _column_basis((b.T for b in kernel_blocks()), eps)
    blocks = np.empty((stored, projector.shape[1], row_basis.shape[1]))
    for t, b in enumerate(kernel_blocks()):
        np.matmul(projector.T @ b, row_basis, out=blocks[t])
    return M2lOperators(level, projector, row_basis, blocks)


# The least value of each build count that a greedy takes; the tree's
# dimension and depth are TreeConfig's to refuse.
_LEAST_COUNT = {"resolution": 2, "x_budget": 1, "max_terms": 1}


@dataclass(frozen=True)
class CacheKey:
    """Everything the precomputed operators depend on.

    The domain center is deliberately absent: all operators are built on
    origin-translated domains, so a shifted domain reuses the same cache.
    """

    kernel_id: str
    dimension: int
    side: float
    depth: int
    tolerance: float
    compress_tol: float
    resolution: int
    x_budget: int
    max_terms: int

    def __post_init__(self):
        # refused: a value its field type would change (3.5 -> 3, NaN != NaN),
        # which would name other operators, and a side, tolerance or build
        # count no build takes
        for f in fields(self):
            value = getattr(self, f.name)
            typed = f.type(value)
            if typed != value:
                raise ValueError(f"CacheKey {f.name} must be a {f.type.__name__}, "
                                 f"got {value!r}")
            if f.type is float and not 0.0 < typed < np.inf:
                raise ValueError(f"CacheKey {f.name} must be positive and finite, "
                                 f"got {value!r}")
            if typed < _LEAST_COUNT.get(f.name, typed):
                raise ValueError(f"CacheKey {f.name} must be at least "
                                 f"{_LEAST_COUNT[f.name]}, got {value!r}")
            object.__setattr__(self, f.name, typed)



def make_cache_key(kernel, config, tolerance, compress_tol=None,
                   max_terms=300, resolution=7, x_budget=8192):
    """Key of the operators these build arguments produce; the compression
    tolerance defaults to the interpolation tolerance."""
    if compress_tol is None:
        compress_tol = tolerance
    require_tolerance("tolerance", tolerance)
    require_tolerance("compress_tol", compress_tol)
    return CacheKey(kernel.name, config.dimension, config.side, config.depth,
                    tolerance, compress_tol, resolution, x_budget, max_terms)


@dataclass
class OperatorCache:
    """All per-level operators for one (kernel, tree shape, tolerance); a
    level runs its own m2l, m2m and l2l, else the deepest level's held."""

    key: CacheKey
    eims: dict = field(default_factory=dict)      # level -> LevelEims
    m2m: dict = field(default_factory=dict)       # level -> TranslationOperators
    l2l: dict = field(default_factory=dict)       # level -> TranslationOperators
    m2l: dict = field(default_factory=dict)       # level -> M2lOperators

    @property
    def levels(self):
        return sorted(self.eims)

    def terms_per_level(self):
        return {k: self.eims[k].terms for k in self.levels}

    def ranks_per_level(self):
        return {k: self.transfer(k).rank for k in self.levels}

    def transfer(self, level):
        """The level's transfer operators, else the deepest level's."""
        return _own_or_deepest(self.m2l, level)

    def translations(self, level):
        """The level's M2M and L2L to level + 1, else the deepest pair."""
        return _own_or_deepest(self.m2m, level), _own_or_deepest(self.l2l, level)


def _own_or_deepest(ops, level):
    """A level's m2l, m2m or l2l operators, else the deepest level's."""
    return ops[level] if level in ops else ops[max(ops)]


def build_operator_cache(kernel, config, tolerance, compress_tol=None,
                         max_terms=300, resolution=7, x_budget=8192):
    """Precompute every level's operators for a tree configuration.

    Levels go from the deepest up, each with its greedy models, transfer
    operators and M2M/L2L to the level below.  For a kernel that declares a
    scaling a coarser level gets only the deepest level's models, rescaled.
    """
    return _build(kernel, config, make_cache_key(
        kernel, config, tolerance, compress_tol, max_terms, resolution, x_budget))


def _build(kernel, config, key):
    """build_operator_cache with the settings of key, made for kernel and config."""
    cache, depth = OperatorCache(key), config.depth
    for level in range(depth, 1, -1):
        if kernel.scaling is None or level == depth:
            cache.eims[level] = build_level_eims(kernel, config, level, key.tolerance,
                                                 key.max_terms, key.resolution, key.x_budget)
            cache.m2l[level] = assemble_m2l(kernel, config, level,
                                            cache.eims[level], key.compress_tol)
        else:
            cache.eims[level] = _rescaled(kernel, cache.eims[depth], depth - level)
        if level + 1 in cache.m2l:
            cache.m2m[level], cache.l2l[level] = (assemble(
                kernel, config, level, cache.eims[level], cache.eims[level + 1])
                for assemble in (assemble_m2m, assemble_l2l))
    return cache


# ---------------------------------------------------------------------------
# Binary serialization.  A file is the magic, the version, the key fields,
# the levels 2..depth and one SHA-256 of all the bytes before it.  The key
# names the levels, their 2^D children and transfer offsets, and counts give
# every array's shape, so no shape is stored.  A level opens with two flags:
# its receiving model is derived (and not stored); it has operators of its
# own.  A model is its degenerate flag and term count d, then _model_shapes'
# arrays.  A level with operators of its own then holds the M2M, then L2L
# matrices from the level above (past level 2), and its transfer record: a
# mirrored flag, rank and r_v, the projector, the row basis unless mirrored
# (then it is the projector, on a level with a derived receiving model and
# r_v = rank), and the blocks, n/2 of the n offsets' when mirrored.
# Counts and flags are little-endian u64, reals f64; round trips are bitwise.

_U64 = struct.Struct("<Q")
_TWO_U64 = struct.Struct("<2Q")
# every key field after the kernel name, each one 8-byte word
_KEY_REST = struct.Struct("<" + "".join(
    {int: "Q", float: "d"}[f.type] for f in fields(CacheKey)[1:]))


def _model_shapes(d, dimension):
    """Shapes of a d-term model's stored arrays, in EimModel's argument order."""
    return {"x_points": (d, dimension), "y_points": (d, dimension),
            "basis_matrix": (d, d), "pivot_matrix": (d, d), "residual_history": (d + 1,)}


def _stored_blocks(dimension, mirrored):
    """Blocks a transfer record holds: half the offsets' when mirrored."""
    n = len(transfer_offsets(dimension))
    return n // 2 if mirrored else n


def _key_bytes(key):
    name = key.kernel_id.encode()
    return _U64.pack(len(name)) + name + _KEY_REST.pack(*astuple(key)[1:])


def _cache_folder(path):
    """The directory of a cache path, refused by name when it is missing."""
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"cache directory {folder!r} does not exist")
    return folder


def save_cache(cache, path):
    """Write the cache; the round trip through load_cache is bitwise.  Each
    array is checked against the counts written, and goes to the file as it
    is reached, through one running checksum (the file is never held whole).
    """
    dim = cache.key.dimension
    # Written beside the target and moved into place, so an interrupted
    # save leaves any earlier file at path intact.
    fd, tmp = tempfile.mkstemp(dir=_cache_folder(path), suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            check = hashlib.sha256()

            def put(data):
                check.update(data)
                fh.write(data)

            def put_array(arr, *shape):
                if arr.shape != shape:  # load_cache reads what the counts give
                    raise ValueError(f"level {level}: shape {arr.shape}, not {shape}")
                put(memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B"))

            put(CACHE_MAGIC + _U64.pack(CACHE_VERSION) + _key_bytes(cache.key))
            for level in range(2, cache.key.depth + 1):
                pair, trans = cache.eims[level], cache.transfer(level)
                own = trans.level == level
                put(_TWO_U64.pack(pair.derived, own))
                for model in (pair.radiating, pair.receiving)[:1 if pair.derived else 2]:
                    put(_TWO_U64.pack(model.degenerate, model.d))
                    for name, shape in _model_shapes(model.d, dim).items():
                        put_array(getattr(model, name), *shape)
                for ops, *shape in () if level == 2 else (
                        (cache.m2m, cache.eims[level - 1].radiating.d, pair.radiating.d),
                        (cache.l2l, pair.receiving.d, cache.eims[level - 1].receiving.d)):
                    held, deepest = ops.get(level - 1), ops[max(ops)]
                    if held and not (own or np.array_equal(held.matrices, deepest.matrices)):
                        raise ValueError(f"level {level - 1}: M2M/L2L unlike the deepest")
                    if own and len(held.matrices) != 2**dim:
                        raise ValueError(f"level {level - 1}: not {2**dim} M2M/L2L matrices")
                    for mat in held.matrices if own else ():
                        put_array(mat, *shape)
                if own:
                    rank, r_v = trans.rank, trans.row_basis.shape[1]
                    mirrored = trans._mirrored
                    if mirrored and not pair.derived:
                        raise ValueError(f"level {level}: mirrored transfer operators "
                                         "beside a stored receiving model")
                    put(_U64.pack(mirrored) + _TWO_U64.pack(rank, r_v))
                    put_array(trans.projector, pair.receiving.d, rank)
                    if not mirrored:
                        put_array(trans.row_basis, pair.radiating.d, r_v)
                    put_array(trans.blocks, _stored_blocks(dim, mirrored), rank, r_v)
            fh.write(check.digest())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class _Reader:
    """Cursor over the checksummed bytes of a cache file.  An array takes the
    shape its caller derives from the counts read before it, and every length
    is checked against the bytes that remain before anything is allocated."""

    def __init__(self, view):
        self.view = view
        self.pos = 0

    def take(self, n):
        if n > len(self.view) - self.pos:
            raise CacheCorruptError("cache file is truncated")
        self.pos += n
        return self.view[self.pos - n:self.pos]

    def unpack(self, layout):
        return layout.unpack(self.take(layout.size))

    def flag(self, what):
        value, = self.unpack(_U64)
        if value > 1:
            raise CacheCorruptError(f"bad {what} {value} in cache file")
        return bool(value)

    def array(self, *shape):
        data = self.take(8 * math.prod(shape))
        return np.frombuffer(data, dtype="<f8").reshape(shape).copy()

    def model(self, dimension):
        """A model's EimModel arguments; load_cache builds none until all parsed."""
        degenerate = self.flag("model flag")
        shapes = _model_shapes(self.unpack(_U64)[0], dimension).values()
        return [self.array(*shape) for shape in shapes] + [degenerate]


def load_cache(path, expected_key=None):
    """Read a cache file, validating version, checksum, and (when given) the
    requested configuration.  A loaded operator fits its models: every
    array takes the shape its level's counts give."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise CacheVersionError("not an operator cache file")
    body = _Reader(memoryview(data))
    body.take(len(CACHE_MAGIC))
    version, = body.unpack(_U64)
    if version != CACHE_VERSION:
        raise CacheVersionError(
            f"cache version {version} unsupported (want {CACHE_VERSION})"
        )
    # nothing after the version is parsed before the checksum holds
    body.view = body.view[:-32]
    if hashlib.sha256(body.view).digest() != data[-32:]:
        raise CacheCorruptError("cache file checksum mismatch")
    try:
        name = str(body.take(body.unpack(_U64)[0]), "utf-8")
    except UnicodeDecodeError as exc:
        raise CacheCorruptError("undecodable kernel name in cache file") from exc
    try:
        key = CacheKey(name, *body.unpack(_KEY_REST))
    except ValueError as exc:
        raise CacheCorruptError(f"cache file key: {exc}") from exc
    if expected_key is not None and key != expected_key:
        raise CacheMismatchError(
            f"cache was built for {key}, requested {expected_key}"
        )
    cache = OperatorCache(key=key)
    dim, depth = key.dimension, key.depth
    models, terms = {}, {}  # level -> EimModel arguments, (d_rad, d_recv)
    for level in range(2, depth + 1):
        derived, own = body.flag("receiving flag"), body.flag("operators flag")
        models[level] = [body.model(dim) for _ in range(2 - derived)]
        rad, recv = terms[level] = (len(models[level][0][0]), len(models[level][-1][0]))
        if own and level > 2:
            above = terms[level - 1]
            cache.m2m[level - 1], cache.l2l[level - 1] = (
                TranslationOperators([body.array(*shape) for _ in range(2**dim)])
                for shape in ((above[0], rad), (recv, above[1])))
        if own:
            mirrored = body.flag("mirrored flag")
            rank, r_v = body.unpack(_TWO_U64)
            if mirrored and not derived:
                raise CacheCorruptError(f"level {level}: mirrored transfer record "
                                        "with a stored receiving model")
            if mirrored and r_v != rank:
                raise CacheCorruptError(f"level {level}: mirrored transfer record "
                                        f"with r_v {r_v} != rank {rank}")
            projector = body.array(recv, rank)
            cache.m2l[level] = M2lOperators(
                level, projector, projector if mirrored else body.array(rad, r_v),
                body.array(_stored_blocks(dim, mirrored), rank, r_v))
    if depth not in cache.m2l:
        raise CacheCorruptError("cache file has no deepest-level transfer operators")
    if body.pos != len(body.view):
        raise CacheCorruptError("trailing bytes in cache file")
    for level, stored in models.items():
        cache.eims[level] = LevelEims(level, *(EimModel(*args) for args in stored))
    return cache
