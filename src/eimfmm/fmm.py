"""Summation engine: exact near field plus interpolated far field.

The multilevel pass follows the usual upward/transfer/downward shape, with
per-box vectors whose lengths vary by level (each level keeps exactly the
terms its interpolation models selected), stored box-major as one (boxes,
terms) array per level so that every gather and scatter moves whole rows.
A SummationPlan precomputes everything independent of the source
strengths but the sibling blocks M_P below, assembled in each sweep to keep
memory down; sweeps with new potentials pay for the five far passes and
the near product.  That includes the near-field matrix and, per level, the
radiating model's coefficient solve composed with the transfer row basis:
the upward pass carries moments only and runs no triangular solve; the one
solve left in a sweep is the leaf receiving model's, after the downward sum.
A sweep holds a level's arrays only until the step that reads them: each
level's moments until the M2M into its parent (their transfer projection is
taken at once), each level's transfer pass runs just before the L2L into
that level, which adds into its sums in place, and the leaf solve
overwrites the deepest locals in runs of rows.  A sweep returns only the
far field; _far_pass records the per-level vectors when given dicts.
Every solve runs in numpy's LAPACK (see eim.py), so a plan and its sweeps
call no scipy.linalg routine, and scipy's BLAS threads, spinning after a
call, take no core from the passes that follow.

One walk down the trees' children tables gives each level's neighbors: the
near field's at the leaves, and the transfer pairs as the children of
neighbor parent pairs.  The pairs under two complete parents (all 2^D
children occupied) go through one dense block M_P per parent offset P, over
the 2^D children of each parent pair, the others per offset, one way.  For
a symmetric kernel on a shared tree the blocks are stored half, as the near
field is, and M_P^T = M_{-P} is applied back.  Positions are int32 whenever
box counts allow it.

The leaf passes (P2M and L2P) read the tree's leaf-local coordinates,
computed once when the tree is built and stored one contiguous plane per
coordinate.  Kernel evaluations go in chunks of at most kernels._EVAL_CHUNK
values, split by one run splitter (_runs) into whole leaves in the leaf
passes and whole rows in the near build, so every displacement array stays
cache-sized.  The near build fills its row runs on one thread per CPU of the
process, each run into its own slices of the matrix, so a user kernel is
evaluated from several threads at once; the sweeps run on the calling
thread (threading the leaf passes gained no sweep time).
Displacements are built as one contiguous plane per coordinate and handed
to the kernel as an (..., D) view of those planes.  The leaf passes lay
them out node-major, (D, terms, points): each plane row subtracts one node
from a contiguous run of points, P2M sums each leaf's run along the points
and L2P sums the terms of each point, so no inner loop is only terms long
(the gaussian's depth-5 leaf models at 1e-4 have 9).
"""

import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix, get_index_dtype

from . import kernels
from .kernels import _displacements
from .operators import (CacheMismatchError, _build, _cache_folder, load_cache,
                        make_cache_key, save_cache)
from .tree import (_transfer_index_table, build_tree, child_offsets, finite_floats,
                   parity_rank)

_COINCIDENT_DISTANCE = 1e-300

FAR_PHASES = ("P2M", "M2M", "M2L", "L2L", "L2P")
ALL_PHASES = ("plan",) + FAR_PHASES + ("near",)


class ToleranceNotReachedWarning(UserWarning):
    """A plan runs interpolation models whose greedy stopped at the cache
    key's max_terms with its training residual still above the tolerance."""


@dataclass
class ParticleSystem:
    """Evaluation targets, source locations, and source strengths."""

    targets: np.ndarray
    sources: np.ndarray
    potentials: np.ndarray

    def __post_init__(self):
        self.targets = finite_floats("target", np.atleast_2d(self.targets))
        if self.sources is not self.targets:
            self.sources = finite_floats("source", np.atleast_2d(self.sources))
        if (self.targets.ndim != 2 or self.sources.ndim != 2
                or self.targets.shape[1] != self.sources.shape[1]):
            raise ValueError(
                f"targets {self.targets.shape} and sources {self.sources.shape} "
                "must be (n, D) arrays of one point dimension D")
        self.potentials = finite_floats("potential", self.potentials)
        if self.potentials.shape != (self.sources.shape[0],):
            raise ValueError("need exactly one potential per source point")


@dataclass
class SummationResult:
    far_field: np.ndarray
    near_field: np.ndarray
    total: np.ndarray
    timings: dict
    cache_hit: bool = False
    cache_build_seconds: float = 0.0
    cache: object = None


def _kernel_values(kernel, displacements, out):
    """out[...] = the kernel at displacements (an (..., D) view of one plane
    per coordinate), with the coincident pairs zeroed: those with r^2 <
    _COINCIDENT_DISTANCE, a threshold on the squared distance (its own
    square would underflow).  Such a pair has |d_0| < 1e-150, so r^2 is
    reduced only where |d_0| < 2e-150."""
    out[...] = kernel.from_displacements(displacements)
    near = np.nonzero(np.abs(displacements[..., 0]) < 2e-150)
    disp = displacements[near]
    tiny = np.einsum("...k,...k->...", disp, disp) < _COINCIDENT_DISTANCE
    out[tuple(i[tiny] for i in near)] = 0.0
    return out


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
        values = _kernel_values(kernel, disp, np.empty(disp.shape[:-1]))
        out[start : start + step] = values @ sigma
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
    points = finite_floats(name, np.atleast_2d(points))
    if (tree.n_points != points.shape[0]
            or not np.array_equal(tree.sorted_points, points[tree.order])):
        raise ValueError(f"{name} tree does not bin the {points.shape[0]} "
                         f"{name} points it is passed with")
    return tree


def _source_tree(sources, targets, target_tree, source_tree=None):
    """source_tree if given, checked as _tree_of does under the target
    tree's config; else the target tree when the sources are the targets,
    as the same array or as equal values (which bin identically, and a
    shared tree lets a symmetric kernel's near field and sibling blocks
    store half their pairs); else a tree of the sources."""
    if source_tree is None and (sources is targets
                                or np.array_equal(sources, targets)):
        return target_tree
    return _tree_of("source", sources, target_tree.config, source_tree)


def _neighbor_tables(target_tree, source_tree, half):
    """Per level from 0 to the depth, the neighbor table: row i holds the
    source box rows at the offsets {-1, 0, 1}^D (lexicographic) from target
    box i, or -1.  When half, the leaves' table keeps the columns of the
    near field's half: the self offset and the positive ones after it.  A
    box's neighbors are children of its parent's neighbors: each table is
    one gather from the one above through the source children table, in
    its dtype."""
    tgt, src = target_tree, source_tree
    dim, depth = tgt.config.dimension, tgt.config.depth
    steps = np.array(list(np.ndindex(*(3,) * dim))) - 1
    n = steps.shape[0]
    # per (child parity, offset): the parent's offset, as a column, and the
    # neighbor's parity rank
    reach = child_offsets(dim)[:, None] + steps
    up = ((reach >> 1) + 1) @ 3 ** np.arange(dim - 1, -1, -1)
    down = parity_rank(reach)
    # at offset 0 the source root, or -1 for an empty source tree
    table = np.full((tgt.level_flat[0].size, n), -1)
    table[:, n // 2] = src.level_flat[0].size - 1
    tables = {0: table}
    for level in range(1, depth + 1):
        cols = slice(n // 2 if half and level == depth else 0, None)
        parity = parity_rank(tgt.level_multi[level])
        above = tables[level - 1].take(tgt.parents[level][:, None] * n
                                       + up[:, cols].take(parity, axis=0))
        # position -1 (no neighbor parent) lands in the appended row of -1
        kids = np.pad(src.children[level], ((0, 1), (0, 0)), constant_values=-1)
        tables[level] = kids.take(down[:, cols].take(parity, axis=0)
                                  + above.astype(np.intp) * kids.shape[1])
    return tables


def _add_rows(target, pos, values):
    """target[pos] += values for distinct rows pos.  np.put of whole rows
    as opaque records is several times faster than a fancy assignment.
    Four callers add distinct rows: the transfer pass, each group to its
    targets (one per box and offset), and each sibling block to the
    children of distinct parents; M2M and L2L, per child parity, to distinct
    parents and to their children of that parity."""
    if values.size:
        rows = target.take(pos, axis=0)
        rows += values
        record = np.dtype((np.void, rows.itemsize * rows.shape[1]))
        np.put(target.view(record), pos, rows.view(record))


def _sibling_transfer(gathered, projected, ops, tgt_kids, src_kids, blocks, half):
    """Add the rows of the pairs under two complete parents: per parent
    offset P, M_P (one buffer, sub-block (c_t, c_s) a copy of C_t or zero)
    maps the 2^D source children of each parent pair at P to its 2^D target
    children, and back by M_P^T when half; the parent rows of blocks index
    the trees' children tables tgt_kids, src_kids."""
    if not blocks:
        return
    n_kids, r_v = tgt_kids.shape[1], projected.shape[1]
    block = np.empty((n_kids * ops.rank, n_kids * r_v))
    panels = block.reshape(n_kids, ops.rank, n_kids, r_v)
    for layout, tpar, spar in blocks:
        for (c_t, c_s), t in np.ndenumerate(layout):
            panels[c_t, :, c_s] = ops.blocks[t] if t >= 0 else 0.0
        tpos = tgt_kids.take(tpar, axis=0).ravel()
        spos = src_kids.take(spar, axis=0).ravel()
        _add_rows(gathered, tpos, (projected.take(spos, axis=0).reshape(
            spar.size, -1) @ block.T).reshape(tpos.size, -1))
        if half:
            _add_rows(gathered, spos, (projected.take(tpos, axis=0).reshape(
                tpar.size, -1) @ block).reshape(spos.size, -1))


def _runs(ends, budget):
    """Runs of whole consecutive items, item i spanning the values from
    ends[i - 1] (0 for the first) to ends[i], of at most budget values or
    a single item each, as (first item, end item, first value, end value).
    The ends are int64: np.searchsorted casts narrower ends whole on every
    run, a cost quadratic in the item count."""
    i0 = v0 = 0
    while i0 < ends.size:
        i1 = max(i0 + 1, int(np.searchsorted(ends, v0 + budget, side="right")))
        v1 = int(ends[i1 - 1])
        yield i0, i1, v0, v1
        i0, v0 = i1, v1


def _leaf_chunks(tree, terms):
    """Runs of whole leaves of at most _EVAL_CHUNK // terms points (so
    _EVAL_CHUNK kernel values against terms nodes) or a single leaf each,
    as (first leaf, end leaf, first point, end point)."""
    return _runs(tree.leaf_starts + tree.leaf_counts, kernels._EVAL_CHUNK // terms)


def _leaf_moments(kernel, tree, nodes, sigma):
    """Per leaf, one row: the kernel between each node and each of the
    leaf's sources recentered to the leaf, summed with the leaf-sorted
    weights sigma."""
    out = np.empty((tree.leaf_starts.size, nodes.shape[0]))
    for l0, l1, p0, p1 in _leaf_chunks(tree, nodes.shape[0]):
        disp = _displacements(nodes[:, None, :], tree.leaf_local[None, p0:p1, :])
        weighted = kernel.from_displacements(disp) * sigma[p0:p1]
        np.add.reduceat(weighted, tree.leaf_starts[l0:l1] - p0, axis=1,
                        out=out[l0:l1].T)
    return out


def _leaf_values(kernel, tree, nodes, coeffs):
    """At each point, in input order: the kernel between the point
    recentered to its leaf and each node, dotted with its leaf's row of
    coeffs."""
    out = np.empty(tree.n_points)
    for l0, l1, p0, p1 in _leaf_chunks(tree, nodes.shape[0]):
        disp = _displacements(tree.leaf_local[None, p0:p1, :], nodes[:, None, :])
        per_point = np.repeat(coeffs[l0:l1].T, tree.leaf_counts[l0:l1], axis=1)
        out[tree.order[p0:p1]] = np.einsum(
            "ij,ij->j", kernel.from_displacements(disp), per_point)
    return out


class SummationPlan:
    """Geometry, operators, and index plumbing for one particle layout.

    apply_far/apply_near may be called any number of times with different
    potentials.  Nothing changes after construction.
    """

    def __init__(self, kernel, targets, sources, config, cache,
                 target_tree=None, source_tree=None):
        key = cache.key
        if (key.kernel_id != kernel.name or key.dimension != config.dimension
                or key.side != config.side or key.depth != config.depth):
            raise CacheMismatchError(
                f"cache {key} does not match kernel {kernel.name!r} and {config}"
            )
        _check_models(kernel, cache)
        # Per level, the radiating solve of the level where the transfer
        # operators were built (see OperatorCache.transfer), composed with
        # their row basis: the transfer pass projects moments through it.  A
        # symmetric kernel may apply M_P^T = M_{-P}, which needs the one
        # basis only a symmetric build has; the key does not record symmetry.
        self._folded = {}
        for level in range(config.depth, 1, -1):
            ops = cache.transfer(level)
            held = (cache.m2l, cache.m2m, cache.l2l)[:1 if level == config.depth else 3]
            if kernel.scaling is None and not all(level in h for h in held):
                raise CacheMismatchError(
                    f"cache {key} holds no level {level} M2L, M2M or L2L of its own, "
                    f"and kernel {kernel.name!r} declares no scaling to run the deepest's")
            if kernel.is_symmetric and not np.array_equal(ops.row_basis, ops.projector):
                raise CacheMismatchError(
                    f"cache {key} was built for a non-symmetric kernel: its "
                    f"level {ops.level} transfer bases differ, and kernel "
                    f"{kernel.name!r} is declared symmetric")
            self._folded[level] = cache.eims[ops.level].radiating.coefficients_t(
                ops.row_basis)
        self.kernel = kernel
        self.config = config
        self.cache = cache
        self.tgt_tree = _tree_of("target", targets, config, target_tree)
        self.src_tree = _source_tree(sources, targets, self.tgt_tree, source_tree)
        # The near field and the sibling blocks may keep one of each mirrored
        # pair: K(x, y) = K(y, x) and the targets are the sources.
        self._half = self.src_tree is self.tgt_tree and kernel.is_symmetric

        depth, dim = config.depth, config.dimension
        # Neighbor tables per level, walked once from the root; the near
        # field reads the leaves'.
        neighbors = _neighbor_tables(self.tgt_tree, self.src_tree, self._half)
        # Transfer pairs per level, enumerated once from the neighbor parent
        # pairs one level up (farther parents are covered further up): at
        # parent offset P (a step: a column of the neighbor tables, the self
        # offset aside), sub-block (c_t, c_s) of the layout of M_P
        # is C_t, t = 2P + c_s - c_t, or zero (t = -1) for a neighbor pair.
        # Complete parents (all 2^D children occupied) pair in _siblings
        # [level], per P (layout, target parent rows, source parent rows);
        # _half keeps the positive P, the second half.  Other parent pairs
        # give their pairs of occupied children to _transfer_groups[level],
        # {offset index: (target positions, source positions)} by target.
        steps = np.array(list(np.ndindex(*(3,) * dim))) - 1
        named, parities = _transfer_index_table(dim), child_offsets(dim)
        moves = 2 * steps[:, None, None] + parities - parities[:, None]  # [P, c_t, c_s]
        layouts = np.array([[[named.get(tuple(m), -1) for m in row] for row in move]
                            for move in moves.tolist()])
        self._transfer_groups, self._siblings = {}, {}
        for level in range(2, depth + 1):
            tgt_kids, src_kids = self.tgt_tree.children[level], self.src_tree.children[level]
            tgt_full, src_full = ((kids >= 0).all(axis=1) for kids in (tgt_kids, src_kids))
            blocks, found = [], []
            for j in np.flatnonzero(steps.any(axis=1)):
                layout, spar = layouts[j], neighbors[level - 1][:, j]
                tpar = np.flatnonzero(spar >= 0).astype(spar.dtype)
                spar = spar[tpar]
                full = tgt_full[tpar] & src_full[spar]
                if full.any() and (not self._half or j > steps.shape[0] // 2):
                    blocks.append((layout, tpar[full], spar[full]))
                # (sub-block, parent pair) entries with both children present
                c_t, c_s = np.nonzero(layout >= 0)
                tpos, spos = tgt_kids[tpar[~full]].T[c_t], src_kids[spar[~full]].T[c_s]
                hit = np.flatnonzero((tpos >= 0) & (spos >= 0))
                t = layout[c_t, c_s].take(hit // tpos.shape[1])
                found.append((t, tpos.take(hit), spos.take(hit)))
            self._siblings[level] = blocks
            # one sort by (offset, target), which names a pair
            t, tpos, spos = (np.concatenate(parts) for parts in zip(*found))
            order = np.argsort(t * self.tgt_tree.level_flat[level].size + tpos)
            tpos, spos = tpos.take(order), spos.take(order)
            ends = np.cumsum(np.bincount(t, minlength=len(named))).tolist()
            self._transfer_groups[level] = {
                k: (tpos[a:b], spos[a:b]) for k, (a, b) in enumerate(zip([0] + ends, ends))}
        self._near = _near_matrix(kernel, self.tgt_tree, self.src_tree,
                                  self._half, neighbors[depth])

    # -- far field ---------------------------------------------------------

    def apply_far(self, potentials):
        """Far-field values at the targets, None, and the time of each phase
        in FAR_PHASES.  The None only keeps the three-value shape that
        perfbench/worker.py unpacks, until the benchmark's next change
        drops it (ROADMAP item 19).

        The pass keeps only what a later step reads (see the module
        docstring), so a sweep holds at most two levels of locals."""
        timings = dict.fromkeys(FAR_PHASES, 0.0)
        return self._far_pass(self._sorted_weights(potentials), timings), None, timings

    def _far_pass(self, sigma, timings, record=None):
        """The far field of leaf-sorted weights sigma, adding each phase's
        time to timings.  record, if given, is four dicts that get level ->
        (boxes, terms) arrays, boxes in the tree's occupied order: source
        moments, transfer sums, local moments and leaf coefficients (the
        deepest level only), copied where the pass changes them in place."""
        kernel, cache, depth = self.kernel, self.cache, self.config.depth
        src, tgt = self.src_tree, self.tgt_tree
        mark = [time.perf_counter()]

        def lap(phase):
            now = time.perf_counter()
            timings[phase] += now - mark[0]
            mark[0] = now

        # Leaf moments: kernel between the leaf model's far nodes and each
        # source, recentered to its leaf, summed per leaf.  Upward, each
        # level's moments are projected in the transfer coordinates, its
        # coefficient solve folded in, and feed the M2M into their parents.
        moments = _leaf_moments(kernel, src, cache.eims[depth].radiating.x_points, sigma)
        lap("P2M")
        projected = {}
        for level in range(depth, 1, -1):
            if level < depth:
                up, child = cache.translations(level)[0].matrices, moments
                moments = np.zeros((src.level_flat[level].size, up[0].shape[0]))
                for mat, kids in zip(up, src.children[level + 1].T):
                    parent = np.flatnonzero(kids >= 0)
                    _add_rows(moments, parent, child.take(kids[parent], axis=0) @ mat.T)
                del child
                lap("M2M")
            if record:
                record[0][level] = moments
            projected[level] = moments @ self._folded[level]
            lap("M2L")

        # Downward, level by level: the transfer pass in the projected
        # coordinates, grouped by offset (a target appears once per offset),
        # with the pairs under two complete parents through the sibling
        # blocks; then the L2L from the level above adds into its sums.
        for level in range(2, depth + 1):
            ops = cache.transfer(level)
            source = projected.pop(level)
            gathered = np.zeros((tgt.level_flat[level].size, ops.rank))
            for t, (tpos, spos) in self._transfer_groups[level].items():
                _add_rows(gathered, tpos, source.take(spos, axis=0) @ ops.blocks[t].T)
            _sibling_transfer(gathered, source, ops, tgt.children[level],
                              src.children[level], self._siblings[level], self._half)
            sums = gathered @ ops.projector.T
            del source, gathered
            lap("M2L")
            if record:
                record[1][level] = sums.copy()
            if level > 2:
                down = cache.translations(level - 1)[1].matrices
                for mat, kids in zip(down, tgt.children[level].T):
                    ppos = np.flatnonzero(kids >= 0)
                    _add_rows(sums, kids[ppos], local.take(ppos, axis=0) @ mat.T)
                lap("L2L")
            local = sums
            if record:
                record[2][level] = local.copy() if level == depth else local

        # The leaf receiving solve, in place, over runs of rows.
        receiving = cache.eims[depth].receiving
        step = kernels._EVAL_CHUNK // receiving.d
        for r0 in range(0, local.shape[0], step):
            rows = local[r0 : r0 + step]
            rows[...] = receiving.coefficients(rows.T).T
        lap("L2L")
        if record:
            record[3][depth] = local

        # Evaluate the leaf interpolants at the targets.
        far = _leaf_values(kernel, tgt, receiving.y_points, local)
        lap("L2P")
        return far

    # -- near field --------------------------------------------------------

    def apply_near(self, potentials):
        """Exact near-field values at the targets."""
        sigma = self._sorted_weights(potentials)
        sorted_out = self._near @ sigma
        if self._half:
            sorted_out += self._near.T @ sigma
        out = np.empty(self.tgt_tree.n_points)
        out[self.tgt_tree.order] = sorted_out
        return out

    def _sorted_weights(self, potentials):
        """One finite real potential per source, in leaf-sorted source order."""
        sigma = finite_floats("potential", potentials)
        expected = (self.src_tree.n_points,)
        if sigma.shape != expected:
            raise ValueError(
                f"potentials have shape {sigma.shape}, sources need {expected}")
        return sigma[self.src_tree.order]


def _check_models(kernel, cache):
    """Refuse, with a CacheMismatchError, a cache whose models were built
    for another kernel of the same name, and warn once, with a
    ToleranceNotReachedWarning, of the levels whose greedy stopped at the
    key's max_terms above its tolerance, naming the terms and the residual
    reached (relative to the first).

    Column 0 of a model's pivot matrix holds the raw kernel values K(x_m,
    y_0), so the kernel is evaluated again there, at d values per model.
    The match is relative, 1e-12 of the column's largest value, not
    bitwise: the math library may round differently on another machine."""
    key, capped = cache.key, {}
    for level in cache.levels:
        pair = cache.eims[level]
        for model in (pair.radiating, pair.receiving):
            if model.d == 0:
                continue
            stored = model.pivot_matrix[:, 0]
            fresh = kernel.pairwise(model.x_points, model.y_points[:1])[:, 0]
            if not np.abs(fresh - stored).max() <= 1e-12 * np.abs(stored).max():
                raise CacheMismatchError(
                    f"cache {key} was built for another kernel named "
                    f"{kernel.name!r}: its level {level} models' kernel values "
                    "differ from this kernel's")
            reached = model.residual_history[-1] / model.residual_history[0]
            if (model.d == key.max_terms and reached > key.tolerance
                    and not model.degenerate):
                capped[level] = f"level {level} ({model.d} terms, residual {reached:.2e})"
    if capped:
        warnings.warn(
            f"the greedy stopped at max_terms={key.max_terms} above tolerance "
            f"{key.tolerance:g} at {', '.join(capped.values())}",
            ToleranceNotReachedWarning, stacklevel=3)


def _ragged_arange(starts, counts):
    """Concatenation of arange(s, s + c) over the pairs (s, c)."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) - np.repeat(
        ends - counts - starts, counts
    )


def _process_cores():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _near_matrix(kernel, target_tree, source_tree, half, neighbors):
    """Kernel values between each target and the sources in its leaf's
    neighbor boxes (own box included), coincident pairs zeroed, as a CSR
    matrix with leaf-sorted targets as rows and leaf-sorted sources as
    columns.

    neighbors holds per leaf the source leaf at each stored offset, or -1,
    in lexicographic offset order, which keeps the columns sorted.  When
    half (the plan's _half), only the self offset and the
    lexicographically positive offsets are stored, with the self blocks
    halved: the near field is then H @ sigma + H.T @ sigma.
    Rows are filled in chunks of at most _EVAL_CHUNK pairs (or one row),
    straight into arrays sized from the leaf counts, one thread per CPU of
    the process (the calling thread one of them) taking runs in turn.  Each
    run writes only its own slices, so the matrix is bitwise the same for
    any thread count; a kernel that raises ends every thread's work, and
    its exception leaves this call.  Arrays larger than the machine's
    physical memory are refused before any is allocated.
    """
    tgt, src = target_tree, source_tree
    dim = tgt.config.dimension
    # Position -1 (no source box there) picks the appended zero.
    nbr_start = np.append(src.leaf_starts, 0).take(neighbors)
    nbr_count = np.append(src.leaf_counts, 0).take(neighbors)
    leaf_len = nbr_count.sum(axis=1)
    leaf_of_row = np.repeat(np.arange(tgt.leaf_starts.size), tgt.leaf_counts)
    row_len = leaf_len[leaf_of_row]
    nnz = int(row_len.sum())
    index_dtype = get_index_dtype(maxval=max(nnz, src.n_points))
    need = nnz * (8 + np.dtype(index_dtype).itemsize)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise ValueError(f"the near field would store {nnz} pairs in {need} bytes, more "
                         f"than the {memory} bytes of physical memory; a deeper tree "
                         "stores fewer pairs")
    ends = np.cumsum(row_len)
    indptr = np.zeros(tgt.n_points + 1, dtype=index_dtype)
    indptr[1:] = ends
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=index_dtype)
    tgt_planes = np.ascontiguousarray(tgt.sorted_points.T)
    src_planes = (tgt_planes if src is tgt
                  else np.ascontiguousarray(src.sorted_points.T))

    def fill(r0, r1, p0, p1):
        leaves = leaf_of_row[r0:r1]
        lens = row_len[r0:r1]
        # each row's source columns, its leaf's neighbor ranges in turn
        cols = _ragged_arange(nbr_start[leaves].ravel(), nbr_count[leaves].ravel())
        # Gathered one coordinate plane at a time.  The mask takes r^2 from
        # these planes and the kernel computes its own: handing r^2 over
        # would need a radial entry point next to from_displacements, which
        # a Kernel wrapping another (one that counts evaluations, say) does
        # not forward, so wrapped and bare runs would round differently.
        planes = np.empty((dim, p1 - p0))
        for c, plane in enumerate(planes):
            # mode "clip" writes straight into out ("raise" buffers it);
            # every column is in range
            src_planes[c].take(cols, out=plane, mode="clip")
            np.subtract(np.repeat(tgt_planes[c, r0:r1], lens), plane, out=plane)
        values = _kernel_values(kernel, planes.T, data[p0:p1])
        if half:
            # the self block leads every row
            values[_ragged_arange(indptr[r0:r1] - p0, tgt.leaf_counts[leaves])] *= 0.5
        indices[p0:p1] = cols

    # numpy releases the interpreter lock in the array steps of a run, so
    # runs overlap on the process's CPUs.  The calling thread takes runs
    # too, and runs stay at _EVAL_CHUNK values: each thread's allocator
    # arena keeps its freed run temporaries after the build.
    runs = list(_runs(ends, kernels._EVAL_CHUNK))
    helpers = min(_process_cores(), len(runs)) - 1
    lock, pending = threading.Lock(), (run for run in runs)

    def work():
        try:
            while True:
                with lock:
                    run = next(pending, None)
                if run is None:
                    return
                fill(*run)
        except BaseException:
            # a failed run ends every thread's work
            with lock:
                pending.close()
            raise

    with ThreadPoolExecutor(max(1, helpers)) as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        work()
        for future in futures:
            future.result()
    return csr_matrix((data, indices, indptr), shape=(tgt.n_points, src.n_points))


def evaluate(kernel, system, config, tolerance, compress_tol=None,
             max_terms=300, resolution=7, x_budget=8192, cache_path=None):
    """One-call orchestration: cache load-or-build, the plan, far and near
    passes."""
    t0 = time.perf_counter()
    key = make_cache_key(kernel, config, tolerance, compress_tol, max_terms,
                         resolution, x_budget)
    cache, hit = load_or_build_cache(kernel, config, key, cache_path)
    cache_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    plan = SummationPlan(kernel, system.targets, system.sources, config, cache)
    timings = {"plan": time.perf_counter() - t0}
    far, _, far_timings = plan.apply_far(system.potentials)
    timings.update(far_timings)
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


def load_or_build_cache(kernel, config, key, cache_path=None):
    """Load the cache of key from cache_path, or build (and save) one.

    A present-but-mismatched file is refused, not overwritten, and a path
    into a missing directory before anything is built.
    """
    if cache_path is not None:
        if os.path.exists(cache_path):
            return load_cache(cache_path, expected_key=key), True
        _cache_folder(cache_path)
    cache = _build(kernel, config, key)
    if cache_path is not None:
        save_cache(cache, cache_path)
    return cache, False
