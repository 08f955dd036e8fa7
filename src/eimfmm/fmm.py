"""Summation engine: exact near field plus interpolated far field.

The multilevel pass follows the usual upward/transfer/downward shape, with
per-box vectors whose lengths vary by level (each level keeps exactly the
terms its interpolation models selected).  A SummationPlan precomputes
everything independent of the source strengths, so repeated sweeps with new
potentials only pay for the five far passes and the near product.
"""

import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix, get_index_dtype

from .operators import (
    CacheMismatchError,
    build_operator_cache,
    load_cache,
    make_cache_key,
    save_cache,
)
from .tree import build_tree, parity_rank, require_finite, transfer_offsets

_COINCIDENT_DISTANCE = 1e-300
_POINT_CHUNK = 4096
# Kernel evaluations per chunk of the near-field build and of direct_sum.
_PAIR_CHUNK = 2**18

FAR_PHASES = ("P2M", "M2M", "M2L", "L2L", "L2P")
ALL_PHASES = FAR_PHASES + ("near",)


@dataclass
class ParticleSystem:
    """Evaluation targets, source locations, and source strengths."""

    targets: np.ndarray
    sources: np.ndarray
    potentials: np.ndarray

    def __post_init__(self):
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        if self.sources is not self.targets:
            self.sources = np.atleast_2d(np.asarray(self.sources, dtype=float))
        self.potentials = np.asarray(self.potentials, dtype=float)
        if self.potentials.shape != (self.sources.shape[0],):
            raise ValueError("need exactly one potential per source point")
        require_finite("target", self.targets)
        require_finite("source", self.sources)
        require_finite("potential", self.potentials)


@dataclass
class FieldData:
    """Per-level, per-box vectors produced by the multilevel pass.

    Every dict maps level -> array of shape (terms at that level, occupied
    boxes at that level), box columns ordered like the tree's occupied
    flat-index arrays.
    """

    source_moments: dict = field(default_factory=dict)
    source_coeffs: dict = field(default_factory=dict)
    transfer_sums: dict = field(default_factory=dict)
    local_moments: dict = field(default_factory=dict)
    local_coeffs: dict = field(default_factory=dict)


@dataclass
class SummationResult:
    far_field: np.ndarray
    near_field: np.ndarray
    total: np.ndarray
    timings: dict
    cache_hit: bool = False
    cache_build_seconds: float = 0.0
    cache: object = None
    field_data: object = None


def _masked_kernel_values(kernel, displacements):
    """Kernel values with coincident pairs zeroed out."""
    r2 = np.einsum("...k,...k->...", displacements, displacements)
    # threshold on the squared distance: its own square would underflow
    tiny = r2 < _COINCIDENT_DISTANCE
    values = kernel.from_displacements(displacements)
    if tiny.any():
        values = np.where(tiny, 0.0, values)
    return values


def direct_sum(kernel, system):
    """Exact quadratic-cost summation; the oracle everything is judged by."""
    targets = system.targets
    sources = system.sources
    sigma = system.potentials
    out = np.empty(targets.shape[0])
    step = max(1, _PAIR_CHUNK // max(1, sources.shape[0]))
    for start in range(0, targets.shape[0], step):
        chunk = targets[start : start + step]
        disp = chunk[:, None, :] - sources[None, :, :]
        out[start : start + step] = _masked_kernel_values(kernel, disp) @ sigma
    return out


def _leaf_centers(tree):
    """Centers of each point's leaf, in domain-shifted coordinates; exact
    dyadic arithmetic so recentering commutes with domain translation."""
    config = tree.config
    half = config.half_width(config.depth)
    multi = tree.leaf_multi[tree.order]
    return (2 * multi + 1) * half - 0.5 * config.side


def _source_tree(sources, targets, target_tree):
    """The target tree when the sources are the targets, as the same array
    or as equal values (which bin identically, and a shared tree lets a
    symmetric kernel's near field store half its pairs); else a tree of
    the sources."""
    if sources is targets or np.array_equal(sources, targets):
        return target_tree
    return build_tree(sources, target_tree.config)


def _match_boxes(tgt_multi, src_flat, offset, level, dimension):
    """Positions of (target box, target box + offset) pairs at one level."""
    n = 2**level
    cand = tgt_multi + np.asarray(offset, dtype=np.int64)
    valid = np.all((cand >= 0) & (cand < n), axis=1)
    rows = np.nonzero(valid)[0]
    if rows.size == 0 or len(src_flat) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    weights = np.int64(n) ** np.arange(dimension - 1, -1, -1, dtype=np.int64)
    flat = cand[rows] @ weights
    pos = np.minimum(np.searchsorted(src_flat, flat), len(src_flat) - 1)
    hit = src_flat[pos] == flat
    return rows[hit], pos[hit]


class SummationPlan:
    """Geometry, operators, and index plumbing for one particle layout.

    apply_far/apply_near may be called any number of times with different
    potentials.  Nothing changes after construction except the near-field
    matrix, which the first apply_near builds and keeps.
    """

    def __init__(self, kernel, targets, sources, config, cache,
                 target_tree=None, source_tree=None):
        key = cache.key
        if (key.kernel_id != kernel.name or key.dimension != config.dimension
                or key.side != config.side or key.depth != config.depth):
            raise CacheMismatchError(
                f"cache {key} does not match kernel {kernel.name!r} and {config}"
            )
        self.kernel = kernel
        self.config = config
        self.cache = cache
        self.tgt_tree = target_tree or build_tree(targets, config)
        self.src_tree = source_tree or _source_tree(sources, targets, self.tgt_tree)

        depth = config.depth
        dim = config.dimension
        # Parent positions and parity ranks for the two vertical passes.
        self._src_parent = {}
        self._src_parity = {}
        self._tgt_parent = {}
        self._tgt_parity = {}
        for level in range(3, depth + 1):
            src_multi = self.src_tree.level_multi[level]
            self._src_parent[level] = np.searchsorted(
                self.src_tree.level_flat[level - 1],
                self.src_tree._ravel(src_multi >> 1, level - 1),
            )
            self._src_parity[level] = parity_rank(src_multi)
            tgt_multi = self.tgt_tree.level_multi[level]
            self._tgt_parent[level] = np.searchsorted(
                self.tgt_tree.level_flat[level - 1],
                self.tgt_tree._ravel(tgt_multi >> 1, level - 1),
            )
            self._tgt_parity[level] = parity_rank(tgt_multi)
        # Transfer pair groups per level and offset.  A pair participates at
        # level k only when its parents are neighbors; otherwise it was
        # already covered at a coarser level (vacuous at level 2).
        offsets = transfer_offsets(dim)
        self._transfer_groups = {}
        for level in range(2, depth + 1):
            tgt_multi = self.tgt_tree.level_multi[level]
            src_flat = self.src_tree.level_flat[level]
            groups = []
            for off in offsets:
                rows, pos = _match_boxes(tgt_multi, src_flat, off, level, dim)
                if rows.size and level > 2:
                    t = tgt_multi[rows]
                    parent_gap = np.abs(((t + off) >> 1) - (t >> 1)).max(axis=1)
                    keep = parent_gap <= 1
                    rows, pos = rows[keep], pos[keep]
                groups.append((rows, pos))
            self._transfer_groups[level] = groups
        self._near = None

    # -- far field ---------------------------------------------------------

    def apply_far(self, potentials):
        """Far-field values at the targets, with per-phase timings."""
        kernel = self.kernel
        cache = self.cache
        config = self.config
        depth = config.depth
        src = self.src_tree
        tgt = self.tgt_tree
        timings = dict.fromkeys(FAR_PHASES, 0.0)
        fields = FieldData()

        sigma = np.asarray(potentials, dtype=float)
        require_finite("potential", sigma)
        sigma = sigma[src.order]

        # Leaf moments: kernel between the leaf model's far nodes and each
        # source, recentered to its leaf, segment-summed per leaf.
        t0 = time.perf_counter()
        leaf_eims = cache.eims[depth]
        nodes = leaf_eims.radiating.x_points
        local = src.sorted_shifted - _leaf_centers(src)
        weighted = np.empty((nodes.shape[0], local.shape[0]))
        for start in range(0, local.shape[0], _POINT_CHUNK):
            block = local[start : start + _POINT_CHUNK]
            disp = nodes[:, None, :] - block[None, :, :]
            weighted[:, start : start + block.shape[0]] = (
                kernel.from_displacements(disp) * sigma[start : start + block.shape[0]]
            )
        moments = {depth: np.add.reduceat(weighted, src.leaf_starts, axis=1)}
        timings["P2M"] += time.perf_counter() - t0

        # Upward sweep plus the per-level coefficient solves.
        t0 = time.perf_counter()
        for level in range(depth - 1, 1, -1):
            up = cache.m2m[level].matrices
            parent_pos = self._src_parent[level + 1]
            parity = self._src_parity[level + 1]
            acc = np.zeros((up[0].shape[0], src.level_flat[level].size))
            child = moments[level + 1]
            for rank in range(len(up)):
                sel = np.nonzero(parity == rank)[0]
                if sel.size:
                    acc[:, parent_pos[sel]] += up[rank] @ child[:, sel]
            moments[level] = acc
        coeffs = {
            level: cache.eims[level].radiating.coefficients(moments[level])
            for level in range(2, depth + 1)
        }
        timings["M2M"] += time.perf_counter() - t0

        # Transfer pass in the projected coordinates, grouped by offset.
        t0 = time.perf_counter()
        transfer = {}
        for level in range(2, depth + 1):
            ops = cache.m2l[level]
            recv_terms = cache.eims[level].receiving.d
            out = np.zeros((recv_terms, tgt.level_flat[level].size))
            projected = ops.projector.T @ coeffs[level]
            gathered = np.zeros((ops.rank, out.shape[1]))
            for t, (tpos, spos) in enumerate(self._transfer_groups[level]):
                if tpos.size:
                    gathered[:, tpos] += ops.apply_block(t, projected[:, spos])
            out += ops.projector @ gathered
            transfer[level] = out
        timings["M2L"] += time.perf_counter() - t0

        # Downward sweep; locals start as the transfer sums at level 2.
        t0 = time.perf_counter()
        local_moments = {2: transfer[2]}
        for level in range(2, depth):
            down = cache.l2l[level].matrices
            parent_pos = self._tgt_parent[level + 1]
            parity = self._tgt_parity[level + 1]
            arr = transfer[level + 1].copy()
            parent = local_moments[level]
            for rank in range(len(down)):
                sel = np.nonzero(parity == rank)[0]
                if sel.size:
                    arr[:, sel] += down[rank] @ parent[:, parent_pos[sel]]
            local_moments[level + 1] = arr
        local_coeffs = cache.eims[depth].receiving.coefficients(local_moments[depth])
        timings["L2L"] += time.perf_counter() - t0

        # Evaluate the leaf interpolants at the targets.
        t0 = time.perf_counter()
        ynodes = cache.eims[depth].receiving.y_points
        tlocal = tgt.sorted_shifted - _leaf_centers(tgt)
        leaf_of_point = np.repeat(
            np.arange(tgt.leaf_starts.size), tgt.leaf_counts
        )
        per_point = local_coeffs[:, leaf_of_point]
        far_sorted = np.empty(tlocal.shape[0])
        for start in range(0, tlocal.shape[0], _POINT_CHUNK):
            block = tlocal[start : start + _POINT_CHUNK]
            disp = block[:, None, :] - ynodes[None, :, :]
            vals = kernel.from_displacements(disp)
            far_sorted[start : start + block.shape[0]] = np.sum(
                vals * per_point[:, start : start + block.shape[0]].T, axis=1
            )
        far = np.empty_like(far_sorted)
        far[tgt.order] = far_sorted
        timings["L2P"] += time.perf_counter() - t0

        fields.source_moments = moments
        fields.source_coeffs = coeffs
        fields.transfer_sums = transfer
        fields.local_moments = local_moments
        fields.local_coeffs = {depth: local_coeffs}
        return far, fields, timings

    # -- near field --------------------------------------------------------

    def apply_near(self, potentials):
        """Exact near-field values at the targets; the near-field matrix is
        built on the first call and kept."""
        require_finite("potential", potentials)
        if self._near is None:
            self._near = _near_matrix(self.kernel, self.tgt_tree, self.src_tree)
        return _near_product(self._near, self.kernel, self.tgt_tree,
                             self.src_tree, potentials)


def _stores_half(kernel, target_tree, source_tree):
    """Whether the near field may keep one of each mirrored leaf pair:
    K(x, y) = K(y, x) and the targets are the sources."""
    return source_tree is target_tree and kernel.is_symmetric


def _ragged_arange(starts, counts):
    """Concatenation of arange(s, s + c) over the pairs (s, c)."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) - np.repeat(
        ends - counts - starts, counts
    )


def _near_matrix(kernel, target_tree, source_tree):
    """Kernel values between each target and the sources in its leaf's
    neighbor boxes (own box included), coincident pairs zeroed, as a CSR
    matrix with leaf-sorted targets as rows and leaf-sorted sources as
    columns.

    Each row lists its neighbor boxes in lexicographic offset order, which
    keeps the columns sorted.  When _stores_half holds, only the self
    offset and the lexicographically positive offsets are stored, with the
    self blocks halved: the near field is then H @ sigma + H.T @ sigma.
    Rows are filled in chunks of at most _PAIR_CHUNK pairs (or one row),
    straight into arrays sized from the leaf counts.
    """
    tgt = target_tree
    src = source_tree
    depth = tgt.config.depth
    dim = tgt.config.dimension
    half = _stores_half(kernel, tgt, src)
    deltas = np.array(list(np.ndindex(*(3,) * dim))) - 1
    if half:
        deltas = deltas[deltas.shape[0] // 2 :]  # the self offset is the middle one
    nbr_start = np.zeros((tgt.leaf_starts.size, deltas.shape[0]), dtype=np.int64)
    nbr_count = np.zeros_like(nbr_start)
    for k, delta in enumerate(deltas):
        rows, pos = _match_boxes(
            tgt.level_multi[depth], src.level_flat[depth], delta, depth, dim
        )
        nbr_start[rows, k] = src.leaf_starts[pos]
        nbr_count[rows, k] = src.leaf_counts[pos]
    leaf_len = nbr_count.sum(axis=1)
    leaf_of_row = np.repeat(np.arange(tgt.leaf_starts.size), tgt.leaf_counts)
    row_len = leaf_len[leaf_of_row]
    nnz = int(row_len.sum())
    index_dtype = get_index_dtype(maxval=max(nnz, src.n_points))
    indptr = np.zeros(tgt.n_points + 1, dtype=index_dtype)
    np.cumsum(row_len, out=indptr[1:])
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=index_dtype)

    r0 = 0
    while r0 < tgt.n_points:
        r1 = max(r0 + 1, int(np.searchsorted(indptr, indptr[r0] + _PAIR_CHUNK,
                                             side="right")) - 1)
        p0, p1 = int(indptr[r0]), int(indptr[r1])
        leaves = leaf_of_row[r0:r1]
        l0 = leaves[0]
        l1 = leaves[-1] + 1
        # Each leaf's source columns, then each row's copy of its leaf's.
        pattern = _ragged_arange(nbr_start[l0:l1].ravel(), nbr_count[l0:l1].ravel())
        pattern_start = np.cumsum(leaf_len[l0:l1]) - leaf_len[l0:l1]
        lens = row_len[r0:r1]
        cols = pattern[_ragged_arange(pattern_start[leaves - l0], lens)]
        disp = np.repeat(tgt.sorted_points[r0:r1], lens, axis=0)
        disp -= src.sorted_points[cols]
        values = _masked_kernel_values(kernel, disp)
        if half:
            # the self block leads every row
            own = tgt.leaf_counts[leaves]
            values[_ragged_arange(indptr[r0:r1] - p0, own)] *= 0.5
        data[p0:p1] = values
        indices[p0:p1] = cols
        r0 = r1
    return csr_matrix((data, indices, indptr), shape=(tgt.n_points, src.n_points))


def _near_product(matrix, kernel, target_tree, source_tree, potentials):
    """Apply a matrix from _near_matrix to one set of potentials."""
    sigma = np.asarray(potentials, dtype=float)[source_tree.order]
    sorted_out = matrix @ sigma
    if _stores_half(kernel, target_tree, source_tree):
        sorted_out += matrix.T @ sigma
    out = np.empty(target_tree.n_points)
    out[target_tree.order] = sorted_out
    return out


def near_field(kernel, tree, system, source_tree=None):
    """Exact sum over each target leaf's neighbor boxes (own box included)."""
    if source_tree is None:
        source_tree = _source_tree(system.sources, system.targets, tree)
    matrix = _near_matrix(kernel, tree, source_tree)
    return _near_product(matrix, kernel, tree, source_tree, system.potentials)


def monolevel_far_field(kernel, tree, system, eims, source_tree=None):
    """Single-level far field: every well-separated leaf pair transfers
    directly.  Quadratic in the box count; kept as the reference the
    multilevel recursion is checked against."""
    config = tree.config
    depth = config.depth
    if eims.level != depth:
        raise ValueError("monolevel pass needs the leaf-level models")
    if source_tree is None:
        source_tree = _source_tree(system.sources, system.targets, tree)
    src = source_tree
    tgt = tree
    kernel_vals_needed = src.n_points > 0 and tgt.n_points > 0
    if not kernel_vals_needed:
        return np.zeros(tgt.n_points)

    sigma = np.asarray(system.potentials, dtype=float)[src.order]
    rad = eims.radiating
    recv = eims.receiving

    local = src.sorted_shifted - _leaf_centers(src)
    disp = rad.x_points[:, None, :] - local[None, :, :]
    weighted = kernel.from_displacements(disp) * sigma
    moments = np.add.reduceat(weighted, src.leaf_starts, axis=1)
    coeffs = rad.coefficients(moments)

    tgt_multi = tgt.level_multi[depth]
    src_multi = src.level_multi[depth]
    deltas = tgt_multi[:, None, :] - src_multi[None, :, :]
    chebyshev = np.max(np.abs(deltas), axis=2)
    t_idx, s_idx = np.nonzero(chebyshev >= 2)
    step = 2.0 * config.half_width(depth)
    sums = np.zeros((recv.d, tgt_multi.shape[0]))
    if t_idx.size:
        # src minus tgt offsets name the transfer blocks, built on demand.
        pair_delta = src_multi[s_idx] - tgt_multi[t_idx]
        uniq, inverse = np.unique(pair_delta, axis=0, return_inverse=True)
        for u, off in enumerate(uniq):
            sel = np.nonzero(inverse == u)[0]
            block = kernel.pairwise(recv.x_points, rad.y_points + step * off)
            sums[:, t_idx[sel]] += block @ coeffs[:, s_idx[sel]]
    local_coeffs = recv.coefficients(sums)

    leaf_of_point = np.repeat(np.arange(tgt.leaf_starts.size), tgt.leaf_counts)
    tlocal = tgt.sorted_shifted - _leaf_centers(tgt)
    vals = kernel.from_displacements(
        tlocal[:, None, :] - recv.y_points[None, :, :]
    )
    far_sorted = np.sum(vals * local_coeffs[:, leaf_of_point].T, axis=1)
    far = np.empty_like(far_sorted)
    far[tgt.order] = far_sorted
    return far


def multilevel_far_field(kernel, tree, system, cache, source_tree=None):
    """Far field through the full upward/transfer/downward machinery."""
    plan = SummationPlan(
        kernel, system.targets, system.sources, tree.config, cache,
        target_tree=tree, source_tree=source_tree,
    )
    far, fields, _ = plan.apply_far(system.potentials)
    return far, fields


def evaluate(kernel, system, config, tolerance, compress_tol=None,
             max_terms=300, resolution=7, x_budget=8192, cache_path=None):
    """One-call orchestration: cache load-or-build, far and near passes."""
    t0 = time.perf_counter()
    cache, hit = load_or_build_cache(
        kernel, config, tolerance, compress_tol, max_terms, resolution,
        x_budget, cache_path,
    )
    cache_seconds = time.perf_counter() - t0

    plan = SummationPlan(kernel, system.targets, system.sources, config, cache)
    far, fields, timings = plan.apply_far(system.potentials)
    t0 = time.perf_counter()
    near = plan.apply_near(system.potentials)
    timings["near"] = time.perf_counter() - t0
    return SummationResult(
        far_field=far,
        near_field=near,
        total=far + near,
        timings=timings,
        cache_hit=hit,
        cache_build_seconds=cache_seconds,
        cache=cache,
        field_data=fields,
    )


def load_or_build_cache(kernel, config, tolerance, compress_tol=None,
                        max_terms=300, resolution=7, x_budget=8192,
                        cache_path=None):
    """Load a matching cache from cache_path, or build (and save) one.

    A present-but-mismatched file is refused, not overwritten.
    """
    key = make_cache_key(kernel, config, tolerance, compress_tol, max_terms,
                         resolution, x_budget)
    if cache_path is not None and os.path.exists(cache_path):
        return load_cache(cache_path, expected_key=key), True
    cache = build_operator_cache(
        kernel, config, tolerance, compress_tol=compress_tol,
        max_terms=max_terms, resolution=resolution, x_budget=x_budget,
    )
    if cache_path is not None:
        save_cache(cache, cache_path)
    return cache, False
