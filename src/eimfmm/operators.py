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
again.  Everything serializes to a versioned little-endian binary cache.
"""

import hashlib
import io
import os
import struct
import tempfile
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.linalg import qr

from .eim import EimModel, TrainingSet, eim_build
from .tree import child_offsets, level_geometry, training_grids, transfer_offsets

CACHE_MAGIC = b"EIMFMM01"
CACHE_VERSION = 3


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
    """Compressed same-level transfer operators.

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

    def apply_block(self, t, moments):
        """C_t applied to (r_v, n) moment columns projected on row_basis."""
        tag, *factors = self.blocks[t]
        if tag == "dense":
            return factors[0] @ moments
        u, v = factors
        return u @ (v @ moments)


def build_level_eims(kernel, config, level, tolerance, max_terms,
                     resolution, x_budget=8192):
    """Greedy models for one level, on grids over the reference domains."""
    if not (2 <= level <= config.depth):
        raise ValueError(f"level {level} outside 2..{config.depth}")
    geo = level_geometry(config, level)
    train = training_grids(geo, resolution, x_budget)
    if kernel.is_symmetric:
        # The flag selects the transposed receiving model, the half near
        # field and V = U, all silently wrong for a kernel that breaks it:
        # compare both orders on a fixed subsample of <= 64 x 64 pairs.
        xs, ys = (p[::-(-len(p) // 64)] for p in (train.points_x, train.points_y))
        forward = kernel.pairwise(xs, ys)
        gap = np.abs(forward - kernel.pairwise(ys, xs).T).max()
        if gap > tolerance * np.abs(forward).max():
            raise ValueError(f"kernel {kernel.name!r} is declared symmetric, "
                             "but K(x, y) != K(y, x) on its training pairs")
    radiating = eim_build(kernel, train, tolerance, max_terms)
    if kernel.is_symmetric:
        receiving = radiating.transposed()
    else:
        receiving = eim_build(
            kernel,
            TrainingSet(train.points_y, train.points_x),
            tolerance,
            max_terms,
        )
    return LevelEims(level=level, radiating=radiating, receiving=receiving)


def assemble_m2m(kernel, config, level, eims, child_eims):
    """Child-to-parent moment operators between two consecutive levels:
    the parent's far nodes seen from each child center."""
    return _translation(kernel, config, level, child_eims,
                        eims.radiating.x_points, child_eims.radiating, -1)


def assemble_l2l(kernel, config, level, eims, child_eims):
    """Parent-to-child local operators between two consecutive levels:
    the child's nodes seen from the parent center."""
    return _translation(kernel, config, level, child_eims,
                        child_eims.receiving.x_points, eims.receiving, 1)


def _translation(kernel, config, level, child_eims, points, model, sign):
    """Per child parity: kernel between points shifted by sign times the
    child's center offset and the model's y nodes, through the model's
    coefficient map."""
    if child_eims.level != level + 1:
        raise ValueError("child models must live one level below")
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
    """
    if level < 2:
        raise ValueError("transfer operators exist at levels >= 2 only")
    eps = float(compression_tolerance)
    if eps <= 0.0:
        raise ValueError("compression tolerance must be positive")
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
        for f in fields(self):
            object.__setattr__(self, f.name, f.type(getattr(self, f.name)))

    def digest(self):
        """Hash of the cache version and every field, as the header stores
        them."""
        buf = io.BytesIO()
        _w_u64(buf, CACHE_VERSION)
        _w_key(buf, self)
        return hashlib.sha256(buf.getvalue()).digest()


def make_cache_key(kernel, config, tolerance, compress_tol=None,
                   max_terms=300, resolution=7, x_budget=8192):
    """Key of the operators these build arguments produce; the compression
    tolerance defaults to the interpolation tolerance."""
    if compress_tol is None:
        compress_tol = tolerance
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
        return {k: self.m2l[k].rank for k in sorted(self.m2l)}


def build_operator_cache(kernel, config, tolerance, compress_tol=None,
                         max_terms=300, resolution=7, x_budget=8192):
    """Precompute every level's operators for a tree configuration."""
    key = make_cache_key(kernel, config, tolerance, compress_tol, max_terms,
                         resolution, x_budget)
    cache = OperatorCache(key=key)
    for level in range(2, config.depth + 1):
        cache.eims[level] = build_level_eims(
            kernel, config, level, tolerance, max_terms, resolution, x_budget
        )
    for level in range(2, config.depth):
        cache.m2m[level] = assemble_m2m(
            kernel, config, level, cache.eims[level], cache.eims[level + 1]
        )
        cache.l2l[level] = assemble_l2l(
            kernel, config, level, cache.eims[level], cache.eims[level + 1]
        )
    for level in range(2, config.depth + 1):
        cache.m2l[level] = assemble_m2l(
            kernel, config, level, cache.eims[level], key.compress_tol
        )
    return cache


# ---------------------------------------------------------------------------
# Binary serialization.  All counts are little-endian u64, all reals f64;
# round trips are bitwise.

def _w_u64(fh, value):
    fh.write(struct.pack("<Q", int(value)))


def _w_f64(fh, value):
    fh.write(struct.pack("<d", float(value)))


def _w_str(fh, text):
    data = text.encode()
    _w_u64(fh, len(data))
    fh.write(data)


def _w_array(fh, arr):
    arr = np.ascontiguousarray(arr, dtype="<f8")
    _w_u64(fh, arr.ndim)
    for s in arr.shape:
        _w_u64(fh, s)
    fh.write(arr.tobytes())


def _read(fh, n):
    if n > 1 << 36:  # no field is anywhere near this; corrupt length prefix
        raise CacheCorruptError("implausible field length in cache file")
    data = fh.read(n)
    if len(data) != n:
        raise CacheCorruptError("cache file is truncated")
    return data


def _r_u64(fh):
    return struct.unpack("<Q", _read(fh, 8))[0]


def _r_f64(fh):
    return struct.unpack("<d", _read(fh, 8))[0]


def _r_str(fh):
    try:
        return _read(fh, _r_u64(fh)).decode()
    except UnicodeDecodeError as exc:
        raise CacheCorruptError("undecodable name in cache file") from exc


def _r_array(fh):
    ndim = _r_u64(fh)
    if ndim > 4:
        raise CacheCorruptError("implausible array rank in cache file")
    shape = tuple(_r_u64(fh) for _ in range(ndim))
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if count > 1 << 32:
        raise CacheCorruptError("implausible array size in cache file")
    data = _read(fh, 8 * count)
    return np.frombuffer(data, dtype="<f8").reshape(shape).copy()


# One header encoding per CacheKey field type.
_KEY_CODECS = {str: (_w_str, _r_str), int: (_w_u64, _r_u64),
               float: (_w_f64, _r_f64)}


def _w_key(fh, key):
    for f in fields(key):
        _KEY_CODECS[f.type][0](fh, getattr(key, f.name))


def _r_key(fh):
    return CacheKey(*(_KEY_CODECS[f.type][1](fh) for f in fields(CacheKey)))


_EIM_ARRAYS = ("x_points", "y_points", "basis_matrix", "pivot_matrix",
               "residual_history")


def _w_eim(fh, model):
    _w_str(fh, model.kernel_id)
    _w_u64(fh, model.d)
    _w_u64(fh, 1 if model.degenerate else 0)
    for name in _EIM_ARRAYS:
        _w_array(fh, getattr(model, name))


def _r_eim(fh):
    kernel_id, d, degenerate = _r_str(fh), _r_u64(fh), bool(_r_u64(fh))
    x_points, y_points, basis, pivots, history = (_r_array(fh) for _ in _EIM_ARRAYS)
    if x_points.shape[0] != d or basis.shape != (d, d) or pivots.shape != (d, d):
        raise CacheCorruptError("inconsistent model block in cache file")
    return EimModel(kernel_id, x_points, y_points, basis, pivots, history,
                    degenerate=degenerate)


def save_cache(cache, path):
    """Write the cache; the round trip through load_cache is bitwise."""
    key = cache.key
    body = io.BytesIO()
    levels = cache.levels
    _w_u64(body, len(levels))
    for level in levels:
        _w_u64(body, level)
        pair = cache.eims[level]
        _w_eim(body, pair.radiating)
        _w_eim(body, pair.receiving)
        has_children = level in cache.m2m
        _w_u64(body, 1 if has_children else 0)
        if has_children:
            for mat in cache.m2m[level].matrices:
                _w_array(body, mat)
            for mat in cache.l2l[level].matrices:
                _w_array(body, mat)
        trans = cache.m2l[level]
        _w_array(body, trans.projector)
        _w_array(body, trans.row_basis)
        _w_u64(body, len(trans.blocks))
        for tag, *factors in trans.blocks:
            _w_u64(body, 0 if tag == "dense" else 1)
            for f in factors:
                _w_array(body, f)
    payload = body.getvalue()
    # Written beside the target and moved into place, so an interrupted
    # save leaves any earlier file at path intact.
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp"
    )
    try:
        with open(fd, "wb") as fh:
            fh.write(CACHE_MAGIC)
            _w_u64(fh, CACHE_VERSION)
            _w_key(fh, key)
            fh.write(key.digest())
            fh.write(hashlib.sha256(payload).digest())
            _w_u64(fh, len(payload))
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_cache(path, expected_key=None):
    """Read a cache file, validating version, hash, and (when given) the
    requested configuration."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CACHE_MAGIC))
        if magic != CACHE_MAGIC:
            raise CacheVersionError("not an operator cache file")
        version = _r_u64(fh)
        if version != CACHE_VERSION:
            raise CacheVersionError(
                f"cache version {version} unsupported (want {CACHE_VERSION})"
            )
        key = _r_key(fh)
        stored_digest = _read(fh, 32)
        if stored_digest != key.digest():
            raise CacheCorruptError("config hash does not match header fields")
        if expected_key is not None and key != expected_key:
            raise CacheMismatchError(
                f"cache was built for {key}, requested {expected_key}"
            )
        payload_digest = _read(fh, 32)
        payload_len = _r_u64(fh)
        payload = fh.read(payload_len)
        if len(payload) != payload_len:
            raise CacheCorruptError("cache payload truncated")
        if fh.read(1):
            raise CacheCorruptError("trailing bytes after cache payload")
        if hashlib.sha256(payload).digest() != payload_digest:
            raise CacheCorruptError("cache payload checksum mismatch")
    body = io.BytesIO(payload)
    cache = OperatorCache(key=key)
    nlevels = _r_u64(body)
    if nlevels > key.depth + 1:
        raise CacheCorruptError("implausible level count in cache file")
    dim = key.dimension
    for _ in range(nlevels):
        level = _r_u64(body)
        radiating = _r_eim(body)
        receiving = _r_eim(body)
        cache.eims[level] = LevelEims(level, radiating, receiving)
        if _r_u64(body):
            m2m = [_r_array(body) for _ in range(2**dim)]
            l2l = [_r_array(body) for _ in range(2**dim)]
            cache.m2m[level] = TranslationOperators(level, m2m)
            cache.l2l[level] = TranslationOperators(level, l2l)
        projector = _r_array(body)
        row_basis = _r_array(body)
        nblocks = _r_u64(body)
        if nblocks != len(transfer_offsets(dim)):
            raise CacheCorruptError("wrong transfer block count in cache file")
        blocks = []
        for _ in range(nblocks):
            if _r_u64(body):
                blocks.append(("lowrank", _r_array(body), _r_array(body)))
            else:
                blocks.append(("dense", _r_array(body)))
        cache.m2l[level] = M2lOperators(level, projector, row_basis, blocks)
    if body.read(1):
        raise CacheCorruptError("trailing bytes inside cache payload")
    return cache
