"""Per-level precomputation for the multilevel engine.

For each level this builds the two directional interpolation models, the
2^D parent/child translation matrices of M2M and L2L (one builder for
both: a model's kernel sections at shifted nodes, its coefficient map
folded in through triangular solves), and the compressed transfer
operators, the same way for every kernel: a column basis and a row basis
from truncated SVDs of the concatenated transfer blocks and of their
transposes (one basis serves both for a symmetric kernel), each taken
through the small R factor of a QR, then a per-offset truncated SVD.  The
QR operand, the largest array of the build, is filled straight from the
kernel and factored in place; the per-offset stage evaluates each block
again.  A kernel that declares a degree p, K(a d) = a^p K(d), is built at
the deepest level only: coarser models are its own rescaled by exact powers
of two (see _rescaled), and its transfer operators serve every level.  All
of it serializes to a versioned little-endian binary cache: the key, the
arrays in the key's order, one SHA-256 checksum (laid out above save_cache).
"""

import hashlib
import math
import os
import struct
import tempfile
from dataclasses import astuple, dataclass, field, fields

import numpy as np
from scipy.linalg import qr

from .eim import EimModel, eim_build, require_tolerance
from .tree import child_offsets, require_level, training_grids, transfer_offsets

CACHE_MAGIC = b"EIMFMM01"
CACHE_VERSION = 6


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
    source-box points; ``receiving`` swaps the roles.  For symmetric kernels
    the receiving model is transpose-derived, so the node sets coincide.
    """

    level: int
    radiating: EimModel
    receiving: EimModel

    def __post_init__(self):
        # A receiving model with the arrays of the radiating model's
        # transpose is that transpose, whether built, loaded or rescaled, so
        # every copy of a level solves bitwise alike.
        twin = self.radiating.transposed()
        if twin.degenerate == self.receiving.degenerate and all(
                np.array_equal(getattr(twin, name), getattr(self.receiving, name))
                for name in _EIM_RANKS):
            self.receiving = twin

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

    level: int
    matrices: list


@dataclass
class M2lOperators:
    """Compressed same-level transfer operators, built at ``level``.

    The transfer block of offset t is approximated by projector @ C_t @
    row_basis.T.  ``projector`` is the orthonormal column basis on the
    receiving side (d_recv by rank), ``row_basis`` the orthonormal basis on
    the radiating side (d_rad by r_v); for a symmetric kernel they are the
    same array.  ``blocks[t]`` holds C_t: either ("dense", C) with C
    rank-by-r_v, or ("lowrank", U, V) with U rank-by-s and V s-by-r_v.
    """

    level: int
    projector: np.ndarray
    row_basis: np.ndarray
    blocks: list

    @property
    def rank(self):
        return self.projector.shape[1]

    def block_rank(self, t):
        tag, *factors = self.blocks[t]
        return factors[0].shape[1] if tag == "lowrank" else self.rank

    def apply_rows(self, t, rows):
        """rows @ C_t.T: (n, r_v) moment rows projected on row_basis to
        (n, rank) transfer rows, as a new C-contiguous array."""
        tag, *factors = self.blocks[t]
        if tag == "dense":
            return rows @ factors[0].T
        u, v = factors
        return (rows @ v.T) @ u.T

    def dense_block(self, t, out):
        """C_t, rank by r_v, written into out."""
        tag, *factors = self.blocks[t]
        if tag == "dense":
            out[...] = factors[0]
        else:
            np.matmul(*factors, out=out)


def build_level_eims(kernel, config, level, tolerance, max_terms,
                     resolution, x_budget=8192):
    """Greedy models for one level, on grids over the reference domains.

    For a kernel that declares a scaling, a level above the deepest gets
    the deepest level's models, rescaled: bitwise what build_operator_cache
    stores for it.
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
    if kernel.is_symmetric:
        receiving = radiating.transposed()
    else:
        receiving = eim_build(kernel, py, px, tolerance, max_terms)
    return LevelEims(level=level, radiating=radiating, receiving=receiving)


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
    triangular basis is unchanged.  The transfer operators need no rescaled
    copy: each level runs the deepest level's, folded with the deepest
    radiating model, whose pivots lack the a^p that the blocks lack.
    """
    a, gain = 2.0 ** coarser, 2.0 ** (coarser * kernel.scaling)
    radiating, receiving = (
        EimModel(m.x_points * a, m.y_points * a, m.basis_matrix,
                 m.pivot_matrix * gain, m.residual_history * gain, m.degenerate)
        for m in (eims.radiating, eims.receiving))
    return LevelEims(eims.level - coarser, radiating, receiving)


def assemble_m2m(kernel, config, level, eims, child_eims):
    """Child-to-parent moment operators between two consecutive levels:
    the parent's far nodes seen from each child center."""
    return _translation(kernel, config, level, eims, child_eims,
                        eims.radiating.x_points, child_eims.radiating, -1)


def assemble_l2l(kernel, config, level, eims, child_eims):
    """Parent-to-child local operators between two consecutive levels:
    the child's nodes seen from the parent center."""
    return _translation(kernel, config, level, eims, child_eims,
                        child_eims.receiving.x_points, eims.receiving, 1)


def _translation(kernel, config, level, eims, child_eims, points, model, sign):
    """Per child parity: kernel between points shifted by sign times the
    child's center offset and the model's y nodes, through the model's
    coefficient map."""
    require_level(level, config.depth - 1, eims, child_eims)
    half_child = config.half_width(level + 1)
    mats = []
    for bits in 2 * child_offsets(config.dimension) - 1:
        geom = kernel.pairwise(points + sign * bits * half_child, model.y_points)
        mats.append(model.coefficients_t(geom.T).T)
    return TranslationOperators(level=level, matrices=mats)


def _tail_rank(svals, rel_tol):
    """Smallest rank r whose Frobenius tail sqrt(sum_{i>=r} s_i^2) is at
    most rel_tol times the whole norm, for descending singular values."""
    tails = np.sqrt(np.cumsum(svals[::-1] ** 2)[::-1])
    norm = tails[0] if tails.size else 0.0
    return int(np.count_nonzero(tails > rel_tol * norm))


def _column_basis(blocks, count, eps):
    """Orthonormal basis of the truncated left singular subspace of the wide
    matrix [B_0 B_1 ...] of count equal-shaped blocks, at the smallest rank
    whose Frobenius tail is within eps.  The blocks' transposes fill one
    Fortran-ordered operand, factored in place by a QR: the wide matrix is
    R^T Q^T, so it and the small R^T share left singular vectors and
    values, and neither the wide matrix nor Q is ever formed.
    """
    operand = None
    for t, block in enumerate(blocks):
        height, width = block.shape
        if operand is None:
            operand = np.empty((count * width, height), order="F")
        operand[t * width:(t + 1) * width] = block.T
    # raw mode returns the factored operand itself and R, its upper triangle
    _, r_factor = qr(operand, mode="raw", overwrite_a=True, check_finite=False)
    basis, svals, _ = np.linalg.svd(r_factor.T)
    return np.ascontiguousarray(basis[:, :_tail_rank(svals, eps)])


def assemble_m2l(kernel, config, level, eims, compression_tolerance):
    """Compressed transfer operators for every offset of one level.

    Projects the transfer blocks B_t from both sides: a column basis U from
    the concatenation of all blocks (d_recv rows), a row basis V from the
    concatenation of their transposes (d_rad rows), each a truncated SVD.
    Every block is stored as U^T B_t V, recompressed with its own truncated
    SVD (kept dense when the block rank does not drop enough to pay for two
    products).  Both stages keep the smallest rank whose Frobenius tail
    stays within the tolerance: eps per basis, eps/2 per block.

    No list of blocks is held: each basis evaluates every block straight
    into its one QR operand, and the per-offset stage evaluates them again,
    one at a time (twice per block in all for a symmetric kernel, three
    times otherwise).

    For a kernel that declares a scaling, a level above the deepest gets
    the operators assembled at the depth, on its models rescaled there,
    labelled with the depth: every level runs them (OperatorCache.transfer).
    """
    require_level(level, config.depth, eims)
    require_tolerance("compression_tolerance", compression_tolerance)
    eps = float(compression_tolerance)
    if kernel.scaling is not None and level < config.depth:
        return assemble_m2l(kernel, config, config.depth,
                            _rescaled(kernel, eims, level - config.depth), eps)
    offsets = transfer_offsets(config.dimension)
    step = 2.0 * config.half_width(level)
    px = eims.receiving.x_points
    py = eims.radiating.y_points

    def blocks():
        return (kernel.pairwise(px, py + step * off) for off in offsets)

    projector = _column_basis(blocks(), len(offsets), eps)
    # For a symmetric kernel the offset set is closed under negation and
    # B_t^T = B_{-t}: the transposes are the same columns, so V is U.
    row_basis = projector if kernel.is_symmetric else _column_basis(
        (b.T for b in blocks()), len(offsets), eps)
    out_blocks = [_recompress_block(projector.T @ b @ row_basis, eps)
                  for b in blocks()]
    return M2lOperators(level, projector, row_basis, out_blocks)


def _recompress_block(projected, eps):
    """Per-offset second stage: truncated SVD within eps/2, square-root
    split.  Falls back to the dense block when the rank does not drop."""
    u_small, svals, vt_small = np.linalg.svd(projected)
    keep = _tail_rank(svals, 0.5 * eps)
    if keep > 0.8 * min(projected.shape):
        return ("dense", projected)
    roots = np.sqrt(svals[:keep])
    u = u_small[:, :keep] * roots[np.newaxis, :]
    v = roots[:, np.newaxis] * vt_small[:keep]
    return ("lowrank", u, v)


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
        # a value its field type would change (3.5 -> 3, NaN != NaN) is
        # refused: the key would name operators other than those built
        for f in fields(self):
            value = getattr(self, f.name)
            typed = f.type(value)
            if typed != value:
                raise ValueError(f"CacheKey {f.name} must be a {f.type.__name__}, "
                                 f"got {value!r}")
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
    """All per-level operators for one (kernel, tree shape, tolerance)."""

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
        return self.m2l[level] if level in self.m2l else self.m2l[self.key.depth]


def build_operator_cache(kernel, config, tolerance, compress_tol=None,
                         max_terms=300, resolution=7, x_budget=8192):
    """Precompute every level's operators for a tree configuration.

    Levels go from the deepest up.  Each gets its greedy models and
    transfer operators, built there; for a kernel that declares a scaling,
    a coarser level gets the deepest level's models rescaled, and no
    transfer operators of its own.  Then its M2M/L2L to the level below.
    """
    key = make_cache_key(kernel, config, tolerance, compress_tol, max_terms,
                         resolution, x_budget)
    cache = OperatorCache(key=key)
    depth = config.depth
    for level in range(depth, 1, -1):
        if kernel.scaling is None or level == depth:
            cache.eims[level] = build_level_eims(
                kernel, config, level, tolerance, max_terms, resolution, x_budget)
            cache.m2l[level] = assemble_m2l(kernel, config, level,
                                            cache.eims[level], key.compress_tol)
        else:
            cache.eims[level] = _rescaled(kernel, cache.eims[depth], depth - level)
        if level < depth:
            cache.m2m[level] = assemble_m2m(
                kernel, config, level, cache.eims[level], cache.eims[level + 1])
            cache.l2l[level] = assemble_l2l(
                kernel, config, level, cache.eims[level], cache.eims[level + 1])
    return cache


# ---------------------------------------------------------------------------
# Binary serialization.  A file is the magic, the version and the key
# fields, then every array in the order the key fixes, then one SHA-256 of
# all the bytes before it.  The key names the kernel, the levels (2..depth)
# and the 2^D children and transfer offsets per level, so none of these is
# stored; the layout also fixes each array's rank, so an array is its
# shape, then its values.  A flag says whether a level's transfer record
# follows: only operators built at that level are stored.  Counts, flags
# and tags are little-endian u64, reals f64; round trips are bitwise.

_U64 = struct.Struct("<Q")
# every key field after the kernel name, each one 8-byte word
_KEY_REST = struct.Struct("<" + "".join(
    {int: "Q", float: "d"}[f.type] for f in fields(CacheKey)[1:]))
_EIM_RANKS = {"x_points": 2, "y_points": 2, "basis_matrix": 2,
              "pivot_matrix": 2, "residual_history": 1}
_SHAPES = {ndim: struct.Struct(f"<{ndim}Q") for ndim in (1, 2)}


def _key_bytes(key):
    name = key.kernel_id.encode()
    return _U64.pack(len(name)) + name + _KEY_REST.pack(*astuple(key)[1:])


def save_cache(cache, path):
    """Write the cache; the round trip through load_cache is bitwise.

    Each array goes to the file as it is reached, through one running
    checksum, so the file is never held whole in memory.
    """
    depth = cache.key.depth
    # Written beside the target and moved into place, so an interrupted
    # save leaves any earlier file at path intact.
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp"
    )
    try:
        with open(fd, "wb") as fh:
            check = hashlib.sha256()

            def put(data):
                check.update(data)
                fh.write(data)

            def put_array(arr):
                arr = np.ascontiguousarray(arr, dtype="<f8")
                put(_SHAPES[arr.ndim].pack(*arr.shape))
                put(memoryview(arr).cast("B"))

            put(CACHE_MAGIC + _U64.pack(CACHE_VERSION) + _key_bytes(cache.key))
            for level in range(2, depth + 1):
                pair = cache.eims[level]
                for model in (pair.radiating, pair.receiving):
                    put(_U64.pack(model.degenerate))
                    for name in _EIM_RANKS:
                        put_array(getattr(model, name))
                if level < depth:
                    for mat in cache.m2m[level].matrices + cache.l2l[level].matrices:
                        put_array(mat)
                trans = cache.transfer(level)
                put(_U64.pack(trans.level == level))
                if trans.level == level:
                    put_array(trans.projector)
                    put_array(trans.row_basis)
                    for tag, *factors in trans.blocks:
                        put(_U64.pack(tag == "lowrank"))
                        for f in factors:
                            put_array(f)
            fh.write(check.digest())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class _Reader:
    """Cursor over the checksummed bytes of a cache file.  Every length is
    checked against the bytes that remain before anything is allocated."""

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

    def array(self, ndim):
        shape = self.unpack(_SHAPES[ndim])
        data = self.take(8 * math.prod(shape))
        return np.frombuffer(data, dtype="<f8").reshape(shape).copy()

    def model(self, dimension):
        degenerate = self.flag("model flag")
        x, y, basis, pivots, history = (self.array(n) for n in _EIM_RANKS.values())
        d = x.shape[0]
        if not (x.shape == y.shape == (d, dimension)
                and basis.shape == pivots.shape == (d, d)):
            raise CacheCorruptError("inconsistent model shapes in cache file")
        return EimModel(x, y, basis, pivots, history, degenerate)


def load_cache(path, expected_key=None):
    """Read a cache file, validating version, checksum, and (when given) the
    requested configuration."""
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
    key = CacheKey(name, *body.unpack(_KEY_REST))
    if expected_key is not None and key != expected_key:
        raise CacheMismatchError(
            f"cache was built for {key}, requested {expected_key}"
        )
    cache = OperatorCache(key=key)
    dim, depth = key.dimension, key.depth
    for level in range(2, depth + 1):
        cache.eims[level] = LevelEims(level, body.model(dim), body.model(dim))
        if level < depth:
            m2m = [body.array(2) for _ in range(2**dim)]
            l2l = [body.array(2) for _ in range(2**dim)]
            cache.m2m[level] = TranslationOperators(level, m2m)
            cache.l2l[level] = TranslationOperators(level, l2l)
        if body.flag("transfer flag"):
            projector, row_basis = body.array(2), body.array(2)
            blocks = [("lowrank", body.array(2), body.array(2))
                      if body.flag("block tag") else ("dense", body.array(2))
                      for _ in transfer_offsets(dim)]
            cache.m2l[level] = M2lOperators(level, projector, row_basis, blocks)
    if depth not in cache.m2l:
        raise CacheCorruptError("cache file has no deepest-level transfer operators")
    if body.pos != len(body.view):
        raise CacheCorruptError("trailing bytes in cache file")
    return cache
