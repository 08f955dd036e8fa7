"""Summation engine: exact near field plus interpolated far field.

The multilevel pass follows the usual upward/transfer/downward shape, with
per-box vectors whose lengths vary by level (each level keeps exactly the
terms its interpolation models selected), stored box-major as one (boxes,
terms) array per level so that every gather and scatter moves whole rows.
A SummationPlan precomputes everything independent of the source
strengths, so repeated sweeps with new potentials only pay for the five far
passes and the near product.  That includes, per level, the radiating
model's coefficient solve composed with the transfer row basis: the upward
pass carries moments only and runs no triangular solve; the one solve left
in a sweep is the leaf receiving model's, after the downward sum.

For a symmetric kernel on a shared tree (the sources are the targets),
the transfer pass stores half its pairs, as the near field does: one
group per mirrored pair of offsets, which applies C_t from its sources to
its targets and C_t^T = C_{-t} back.  Every transfer group holds int32
positions whenever the box count allows it.

The leaf passes (P2M and L2P) read the tree's leaf-local coordinates,
computed once when the tree is built.  Kernel evaluations go in chunks of
at most kernels._EVAL_CHUNK values (whole leaves in the leaf passes, whole
rows in the near build), so every displacement array stays cache-sized.
Displacements are built as one contiguous plane per coordinate and handed
to the kernel as an (..., D) view of those planes.
"""

import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix, get_index_dtype

from . import kernels
from .kernels import _displacements
from .operators import (
    CacheMismatchError,
    build_operator_cache,
    load_cache,
    make_cache_key,
    save_cache,
)
from .tree import (build_tree, child_offsets, parity_rank, require_finite,
                   transfer_offsets)

_COINCIDENT_DISTANCE = 1e-300
# Padding of the dense box lookup: the largest transfer offset component.
_PAD = 3

FAR_PHASES = ("P2M", "M2M", "M2L", "L2L", "L2P")
ALL_PHASES = FAR_PHASES + ("near_build", "near")


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
        if (self.targets.ndim != 2 or self.sources.ndim != 2
                or self.targets.shape[1] != self.sources.shape[1]):
            raise ValueError(
                f"targets {self.targets.shape} and sources {self.sources.shape} "
                "must be (n, D) arrays of one point dimension D")
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
    flat-index arrays: a transposed view of the pass's box-major array.
    """

    source_moments: dict = field(default_factory=dict)
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
    step = max(1, kernels._EVAL_CHUNK // max(1, sources.shape[0]))
    for start in range(0, targets.shape[0], step):
        chunk = targets[start : start + step]
        disp = _displacements(chunk[:, None, :], sources[None, :, :])
        out[start : start + step] = _masked_kernel_values(kernel, disp) @ sigma
    return out


def _tree_of(name, points, config, tree=None):
    """A tree of points under config: tree if given, refused with a
    ValueError naming it (the target or source tree) unless it was built
    under config from exactly these points, else a new one."""
    if tree is None:
        return build_tree(points, config)
    if tree.config != config:
        raise ValueError(f"{name} tree built under {tree.config} cannot be "
                         f"used under {config}")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if (tree.n_points != points.shape[0]
            or not np.array_equal(tree.sorted_points, points[tree.order])):
        raise ValueError(f"{name} tree does not bin the {points.shape[0]} "
                         f"{name} points it is passed with")
    return tree


def _source_tree(sources, targets, target_tree, source_tree=None):
    """source_tree if given, checked as _tree_of does under the target
    tree's config; else the target tree when the sources are the targets,
    as the same array or as equal values (which bin identically, and a
    shared tree lets a symmetric kernel's near field and transfer pass
    store half their pairs); else a tree of the sources."""
    if source_tree is None and (sources is targets
                                or np.array_equal(sources, targets)):
        return target_tree
    return _tree_of("source", sources, target_tree.config, source_tree)


def _box_lookup(target_multi, source_multi, level):
    """(base, lookup, strides): the source box at integer offset off (each
    component at most _PAD) from target box i is at position
    lookup[base[i] + off @ strides], or nowhere if that is -1.  lookup spans
    the level's box grid padded by _PAD boxes on every side, as int32
    whenever the source box count allows it."""
    side = 2**level + 2 * _PAD
    strides = side ** np.arange(target_multi.shape[1] - 1, -1, -1, dtype=np.int64)
    lookup = np.full(side ** target_multi.shape[1], -1,
                     dtype=get_index_dtype(maxval=source_multi.shape[0]))
    lookup[(source_multi + _PAD) @ strides] = np.arange(source_multi.shape[0])
    return (target_multi + _PAD) @ strides, lookup, strides


def _child_groups(tree, level):
    """Per parity rank: positions of the level's boxes of that parity and
    of their parents one level up."""
    multi = tree.level_multi[level]
    parent = np.searchsorted(tree.level_flat[level - 1],
                             tree._ravel(multi >> 1, level - 1))
    ranks = parity_rank(multi)
    sels = [np.flatnonzero(ranks == r) for r in range(2 ** multi.shape[1])]
    return [(sel, parent[sel]) for sel in sels]


def _add_rows(target, pos, values):
    """target[pos] += values for distinct rows pos.  np.put of whole rows
    as opaque records is several times faster than a fancy assignment.
    The transfer pass scatters each group both ways through it: to its
    targets, and on a half-stored level also to its sources, which are
    distinct too (one source box per target box and offset)."""
    if values.size:
        rows = target.take(pos, axis=0)
        rows += values
        record = np.dtype((np.void, rows.itemsize * rows.shape[1]))
        np.put(target.view(record), pos, rows.view(record))


def _leaf_chunks(tree, terms):
    """Runs of whole consecutive leaves, at most _EVAL_CHUNK // terms points
    (so _EVAL_CHUNK kernel values against terms nodes) or a single leaf
    each, as (first leaf, end leaf, first point, end point)."""
    points = kernels._EVAL_CHUNK // terms
    ends = tree.leaf_starts + tree.leaf_counts
    l0 = 0
    while l0 < ends.size:
        p0 = int(tree.leaf_starts[l0])
        l1 = max(l0 + 1, int(np.searchsorted(ends, p0 + points, side="right")))
        yield l0, l1, p0, int(ends[l1 - 1])
        l0 = l1


def _leaf_moments(kernel, tree, nodes, sigma):
    """Per leaf, one row: the kernel between each node and each of the
    leaf's sources recentered to the leaf, summed with the leaf-sorted
    weights sigma."""
    out = np.empty((tree.leaf_starts.size, nodes.shape[0]))
    for l0, l1, p0, p1 in _leaf_chunks(tree, nodes.shape[0]):
        disp = _displacements(nodes[None, :, :], tree.leaf_local[p0:p1, None, :])
        weighted = kernel.from_displacements(disp) * sigma[p0:p1, None]
        np.add.reduceat(weighted, tree.leaf_starts[l0:l1] - p0, axis=0,
                        out=out[l0:l1])
    return out


def _leaf_values(kernel, tree, nodes, coeffs):
    """At each point, in input order: the kernel between the point
    recentered to its leaf and each node, dotted with its leaf's row of
    coeffs."""
    out = np.empty(tree.n_points)
    for l0, l1, p0, p1 in _leaf_chunks(tree, nodes.shape[0]):
        disp = _displacements(tree.leaf_local[p0:p1, None, :], nodes[None, :, :])
        per_point = np.repeat(coeffs[l0:l1], tree.leaf_counts[l0:l1], axis=0)
        out[tree.order[p0:p1]] = np.einsum(
            "ij,ij->i", kernel.from_displacements(disp), per_point)
    return out


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
        self.tgt_tree = _tree_of("target", targets, config, target_tree)
        self.src_tree = _source_tree(sources, targets, self.tgt_tree, source_tree)
        # The near field and the transfer pass may keep one of each mirrored
        # pair: K(x, y) = K(y, x) and the targets are the sources.
        self._half = self.src_tree is self.tgt_tree and kernel.is_symmetric

        depth = config.depth
        dim = config.dimension
        # Child and parent positions per parity for the two vertical passes.
        levels = range(3, depth + 1)
        self._tgt_children = {k: _child_groups(self.tgt_tree, k) for k in levels}
        self._src_children = (self._tgt_children if self.src_tree is self.tgt_tree
                              else {k: _child_groups(self.src_tree, k) for k in levels})
        # Transfer pair groups per level, {offset index: (target positions,
        # source positions)}.  A pair participates at level k only when its
        # parents are neighbors; otherwise it was already covered at a
        # coarser level (vacuous at level 2).  The parent gap depends only
        # on the target's parity and the offset, and is symmetric in the
        # pair, so the pairs of -t are those of t swapped.  When _half holds,
        # only the lexicographically positive offsets are kept: the
        # second half of transfer_offsets, whose entry n-1-i negates entry i.
        offsets = transfer_offsets(dim)
        first = offsets.shape[0] // 2 if self._half else 0
        gap = np.abs((child_offsets(dim)[:, None, :] + offsets) >> 1).max(axis=2)
        self._transfer_groups = {}
        for level in range(2, depth + 1):
            tgt_multi = self.tgt_tree.level_multi[level]
            base, lookup, strides = _box_lookup(
                tgt_multi, self.src_tree.level_multi[level], level)
            parity = parity_rank(tgt_multi)
            allowed = gap <= 1 if level > 2 else np.ones_like(gap, dtype=bool)
            # Offsets share their sets of parity classes, so their rows too.
            masks, which = np.unique(allowed, axis=1, return_inverse=True)
            which = which.ravel()
            index = get_index_dtype(maxval=tgt_multi.shape[0])
            rows_of = [np.flatnonzero(mask[parity]).astype(index)
                       for mask in masks.T]
            base_of = [base[rows] for rows in rows_of]
            groups = {}
            for t in range(first, offsets.shape[0]):
                m = which[t]
                pos = lookup.take(base_of[m] + offsets[t] @ strides)
                hit = pos >= 0
                groups[t] = (rows_of[m][hit], pos[hit])
            self._transfer_groups[level] = groups
        # The radiating coefficient solve composed with the transfer row
        # basis, (terms, r_v) per level: the transfer pass projects moments
        # straight through it.
        self._folded = {
            level: cache.eims[level].radiating.coefficients_t(cache.m2l[level].row_basis)
            for level in range(2, depth + 1)
        }
        self._near = None

    # -- far field ---------------------------------------------------------

    def apply_far(self, potentials):
        """Far-field values at the targets, with per-phase timings."""
        kernel = self.kernel
        cache = self.cache
        depth = self.config.depth
        src = self.src_tree
        tgt = self.tgt_tree
        timings = dict.fromkeys(FAR_PHASES, 0.0)

        sigma = self._sorted_weights(potentials)

        # Leaf moments: kernel between the leaf model's far nodes and each
        # source, recentered to its leaf, summed per leaf.
        t0 = time.perf_counter()
        moments = {depth: _leaf_moments(
            kernel, src, cache.eims[depth].radiating.x_points, sigma)}
        timings["P2M"] += time.perf_counter() - t0

        # Upward sweep on the moments; their coefficient solves are folded
        # into the transfer projection.
        t0 = time.perf_counter()
        for level in range(depth - 1, 1, -1):
            up = cache.m2m[level].matrices
            child = moments[level + 1]
            acc = np.zeros((src.level_flat[level].size, up[0].shape[0]))
            for mat, (sel, parent) in zip(up, self._src_children[level + 1]):
                acc[parent] += child.take(sel, axis=0) @ mat.T
            moments[level] = acc
        timings["M2M"] += time.perf_counter() - t0

        # Transfer pass in the projected coordinates, grouped by offset; a
        # target appears once per offset.  A half-stored group of offset t
        # also carries the pairs of -t back, through C_{-t} = C_t^T (V is U
        # for a symmetric kernel).
        t0 = time.perf_counter()
        transfer = {}
        for level in range(2, depth + 1):
            ops = cache.m2l[level]
            projected = moments[level] @ self._folded[level]
            gathered = np.zeros((tgt.level_flat[level].size, ops.rank))
            for t, (tpos, spos) in self._transfer_groups[level].items():
                _add_rows(gathered, tpos,
                          ops.apply_rows(t, projected.take(spos, axis=0)))
                if self._half:
                    _add_rows(gathered, spos, ops.apply_rows(
                        t, projected.take(tpos, axis=0), transpose=True))
            transfer[level] = gathered @ ops.projector.T
        timings["M2L"] += time.perf_counter() - t0

        # Downward sweep; locals start as the transfer sums at level 2.
        t0 = time.perf_counter()
        local_moments = {2: transfer[2]}
        for level in range(2, depth):
            down = cache.l2l[level].matrices
            parent = local_moments[level]
            arr = transfer[level + 1].copy()
            for mat, (sel, ppos) in zip(down, self._tgt_children[level + 1]):
                arr[sel] += parent.take(ppos, axis=0) @ mat.T
            local_moments[level + 1] = arr
        receiving = cache.eims[depth].receiving
        local_coeffs = receiving.coefficients(local_moments[depth].T).T
        timings["L2L"] += time.perf_counter() - t0

        # Evaluate the leaf interpolants at the targets.
        t0 = time.perf_counter()
        far = _leaf_values(kernel, tgt, receiving.y_points, local_coeffs)
        timings["L2P"] += time.perf_counter() - t0

        fields = FieldData(
            source_moments={k: v.T for k, v in moments.items()},
            transfer_sums={k: v.T for k, v in transfer.items()},
            local_moments={k: v.T for k, v in local_moments.items()},
            local_coeffs={depth: local_coeffs.T},
        )
        return far, fields, timings

    # -- near field --------------------------------------------------------

    def apply_near(self, potentials):
        """Exact near-field values at the targets; the near-field matrix is
        built on the first call and kept."""
        sigma = self._sorted_weights(potentials)
        near = self._near_built()
        sorted_out = near @ sigma
        if self._half:
            sorted_out += near.T @ sigma
        out = np.empty(self.tgt_tree.n_points)
        out[self.tgt_tree.order] = sorted_out
        return out

    def _near_built(self):
        """The near-field matrix, built on first use."""
        if self._near is None:
            self._near = _near_matrix(self.kernel, self.tgt_tree, self.src_tree,
                                      self._half)
        return self._near

    def _sorted_weights(self, potentials):
        """One finite potential per source, in leaf-sorted source order."""
        sigma = np.asarray(potentials, dtype=float)
        expected = (self.src_tree.n_points,)
        if sigma.shape != expected:
            raise ValueError(
                f"potentials have shape {sigma.shape}, sources need {expected}")
        require_finite("potential", sigma)
        return sigma[self.src_tree.order]


def _ragged_arange(starts, counts):
    """Concatenation of arange(s, s + c) over the pairs (s, c)."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) - np.repeat(
        ends - counts - starts, counts
    )


def _near_matrix(kernel, target_tree, source_tree, half):
    """Kernel values between each target and the sources in its leaf's
    neighbor boxes (own box included), coincident pairs zeroed, as a CSR
    matrix with leaf-sorted targets as rows and leaf-sorted sources as
    columns.

    Each row lists its neighbor boxes in lexicographic offset order, which
    keeps the columns sorted.  When half (the plan's _half), only the self
    offset and the lexicographically positive offsets are stored, with the
    self blocks halved: the near field is then H @ sigma + H.T @ sigma.
    Rows are filled in chunks of at most _EVAL_CHUNK pairs (or one row),
    straight into arrays sized from the leaf counts.  Arrays larger than
    the machine's physical memory are refused before any is allocated.
    """
    tgt = target_tree
    src = source_tree
    depth = tgt.config.depth
    dim = tgt.config.dimension
    deltas = np.array(list(np.ndindex(*(3,) * dim))) - 1
    if half:
        deltas = deltas[deltas.shape[0] // 2 :]  # the self offset is the middle one
    base, lookup, strides = _box_lookup(
        tgt.level_multi[depth], src.level_multi[depth], depth)
    # Position -1 (no source box there) picks the appended zero.
    pos = lookup.take(base[:, None] + deltas @ strides)
    nbr_start = np.append(src.leaf_starts, 0).take(pos)
    nbr_count = np.append(src.leaf_counts, 0).take(pos)
    leaf_len = nbr_count.sum(axis=1)
    leaf_of_row = np.repeat(np.arange(tgt.leaf_starts.size), tgt.leaf_counts)
    row_len = leaf_len[leaf_of_row]
    nnz = int(row_len.sum())
    index_dtype = get_index_dtype(maxval=max(nnz, src.n_points))
    need = nnz * (8 + np.dtype(index_dtype).itemsize)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise ValueError(
            f"the near field would store {nnz} pairs in {need} bytes, more "
            f"than the {memory} bytes of physical memory; a deeper tree "
            "stores fewer pairs")
    indptr = np.zeros(tgt.n_points + 1, dtype=index_dtype)
    np.cumsum(row_len, out=indptr[1:])
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=index_dtype)
    tgt_planes = np.ascontiguousarray(tgt.sorted_points.T)
    src_planes = (tgt_planes if src is tgt
                  else np.ascontiguousarray(src.sorted_points.T))

    r0 = 0
    while r0 < tgt.n_points:
        stop = indptr[r0] + kernels._EVAL_CHUNK
        r1 = max(r0 + 1, int(np.searchsorted(indptr, stop, side="right")) - 1)
        p0, p1 = int(indptr[r0]), int(indptr[r1])
        leaves = leaf_of_row[r0:r1]
        l0 = leaves[0]
        l1 = leaves[-1] + 1
        # Each leaf's source columns, then each row's copy of its leaf's.
        pattern = _ragged_arange(nbr_start[l0:l1].ravel(), nbr_count[l0:l1].ravel())
        pattern_start = np.cumsum(leaf_len[l0:l1]) - leaf_len[l0:l1]
        lens = row_len[r0:r1]
        cols = pattern[_ragged_arange(pattern_start[leaves - l0], lens)]
        # Gathered one coordinate plane at a time.  The mask takes r^2 from
        # these planes and the kernel computes its own: handing r^2 over
        # would need a radial entry point next to from_displacements, which
        # a Kernel wrapping another (one that counts evaluations, say) does
        # not forward, so wrapped and bare runs would round differently.
        planes = np.empty((dim, p1 - p0))
        for c, plane in enumerate(planes):
            src_planes[c].take(cols, out=plane)
            np.subtract(np.repeat(tgt_planes[c, r0:r1], lens), plane, out=plane)
        values = _masked_kernel_values(kernel, planes.T)
        if half:
            # the self block leads every row
            own = tgt.leaf_counts[leaves]
            values[_ragged_arange(indptr[r0:r1] - p0, own)] *= 0.5
        data[p0:p1] = values
        indices[p0:p1] = cols
        r0 = r1
    return csr_matrix((data, indices, indptr), shape=(tgt.n_points, src.n_points))


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
    far, _, timings = plan.apply_far(system.potentials)
    t0 = time.perf_counter()
    plan._near_built()
    timings["near_build"] = time.perf_counter() - t0
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
