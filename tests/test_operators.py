"""Per-level operator assembly and the binary cache format.

The translation operators are checked two ways: against dense-inverse linear
algebra (same matrix, independent solve) and functionally, by feeding them
synthetic source/field configurations whose exact answers are computable.
"""

import dataclasses
import hashlib
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import eimfmm as ef
from eimfmm import operators
from eimfmm.eim import EimModel, eim_build
from eimfmm.operators import LevelEims, _tail_rank
from eimfmm.tree import child_offsets, training_grids, transfer_offsets

EPS = np.finfo(float).eps
KERNEL = ef.make_builtin_kernel("gaussian")
LAPLACE = ef.make_builtin_kernel("laplace")
CONFIG = ef.TreeConfig(dimension=2, side=1.0, depth=3)
TOL = 1e-6


@pytest.fixture(scope="module")
def small_cache():
    return ef.build_operator_cache(KERNEL, CONFIG, TOL, resolution=8, x_budget=1024)


@pytest.fixture(scope="module")
def drift_cache(drift_kernel):
    return ef.build_operator_cache(drift_kernel, CONFIG, 1e-5, resolution=8,
                                   x_budget=1024)


@pytest.fixture(scope="module")
def loose_cache():
    # a coarse tolerance, at which the bases keep the fewest directions
    return ef.build_operator_cache(KERNEL, CONFIG, 1e-2, resolution=8, x_budget=1024)


# -- level model assembly ----------------------------------------------------


def test_build_level_eims_rejects_bad_level():
    with pytest.raises(ValueError):
        ef.build_level_eims(KERNEL, CONFIG, 1, TOL, 50, 6)
    with pytest.raises(ValueError):
        ef.build_level_eims(KERNEL, CONFIG, CONFIG.depth + 1, TOL, 50, 6)


def test_kernel_declared_symmetric_is_checked(drift_kernel):
    liar = ef.Kernel("drift-declared-symmetric", drift_kernel.from_displacements,
                     is_symmetric=True)
    with pytest.raises(ValueError, match="drift-declared-symmetric"):
        ef.build_level_eims(liar, CONFIG, 2, TOL, 50, 6)
    with pytest.raises(ValueError, match="declared symmetric"):
        ef.build_operator_cache(liar, CONFIG, 1e-3, resolution=6, x_budget=256)


def test_kernel_declared_scaling_is_checked():
    gauss = ef.Kernel("gauss-declared-degree-1", KERNEL.from_displacements,
                      is_symmetric=True, scaling=-1)
    with pytest.raises(ValueError, match="declared scaling=-1"):
        ef.build_operator_cache(gauss, CONFIG, 1e-3, resolution=6, x_budget=256)
    inverse = ef.Kernel("inverse-declared-degree-2", LAPLACE.from_displacements,
                        is_symmetric=True, scaling=-2)
    # a coarser level is built from the deepest, where the check runs
    with pytest.raises(ValueError, match="inverse-declared-degree-2"):
        ef.build_level_eims(inverse, CONFIG, 2, TOL, 50, 6)
    with pytest.raises(ValueError, match="integer"):
        ef.Kernel("half-degree", LAPLACE.from_displacements, True, scaling=-0.5)


def _stepped_cache(kernel, config, tol, resolution, x_budget):
    """The cache of build_operator_cache's arguments, assembled one public
    step per level and layer, as a traced build makes it: every level holds
    models, M2M/L2L and transfer operators."""
    key = operators.make_cache_key(kernel, config, tol, max_terms=300,
                                   resolution=resolution, x_budget=x_budget)
    stepped = ef.OperatorCache(key=key)
    levels = range(2, config.depth + 1)
    for level in levels:
        stepped.eims[level] = ef.build_level_eims(kernel, config, level, tol,
                                                  300, resolution, x_budget)
    for level in levels[:-1]:
        eims, child = stepped.eims[level], stepped.eims[level + 1]
        stepped.m2m[level] = ef.assemble_m2m(kernel, config, level, eims, child)
        stepped.l2l[level] = ef.assemble_l2l(kernel, config, level, eims, child)
    for level in levels:
        stepped.m2l[level] = ef.assemble_m2l(kernel, config, level,
                                             stepped.eims[level], tol)
    return stepped


def test_scaling_kernel_per_level_steps_match_build(tmp_path):
    # the coarser levels are derived from the deepest one either way, so a
    # cache assembled one public step per level and layer, as a traced
    # build makes it, has the build's bytes
    config = ef.TreeConfig(dimension=3, side=1.0, depth=4)
    built = ef.build_operator_cache(LAPLACE, config, 1e-3, resolution=5, x_budget=512)
    stepped = _stepped_cache(LAPLACE, config, 1e-3, 5, 512)
    assert stepped.key == built.key
    ef.save_cache(built, tmp_path / "built.bin")
    ef.save_cache(stepped, tmp_path / "stepped.bin")
    assert (tmp_path / "built.bin").read_bytes() == (tmp_path / "stepped.bin").read_bytes()
    _assert_round_trip_bitwise(built, tmp_path)


def test_scaling_kernel_derived_levels_match_fresh_build():
    # 1/r needs the same terms at every scale: a kernel declaring no scaling
    # trains every level on its own grid and must arrive at the same models
    config = ef.TreeConfig(dimension=3, side=1.0, depth=5)
    per_level = ef.Kernel("laplace-per-level", LAPLACE.from_displacements,
                          is_symmetric=True)
    assert per_level.scaling is None
    derived = ef.build_operator_cache(LAPLACE, config, 1e-4)
    fresh = ef.build_operator_cache(per_level, config, 1e-4)
    assert derived.terms_per_level() == fresh.terms_per_level()
    assert derived.ranks_per_level() == fresh.ranks_per_level()
    assert sorted(derived.m2l) == [config.depth]
    for level in derived.levels:
        # every level runs the deepest level's operators, which lack the
        # exact gain a^p of a level's blocks
        ops, fresh_ops = derived.transfer(level), fresh.m2l[level]
        assert ops is derived.m2l[config.depth]
        gain = 2.0 ** ((config.depth - level) * LAPLACE.scaling)
        assert ops.blocks.shape == fresh_ops.blocks.shape
        p, q = ops.projector, fresh_ops.projector
        assert np.linalg.norm(p @ (p.T @ q) - q, 2) <= 1e-12
        # the rescaled values: pivots, and every transfer block U C_t V^T
        pivots = [c.eims[level].radiating.pivot_matrix for c in (derived, fresh)]
        assert np.abs(pivots[0] - pivots[1]).max() <= 1e-12 * np.abs(pivots[1]).max()
        for t in range(len(transfer_offsets(3))):
            got, expect = (o.projector @ o.block(t) @ o.row_basis.T
                           for o in (ops, fresh_ops))
            got *= gain
            assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


def test_scaling_kernel_stores_transfer_once(tmp_path):
    # a kernel that declares a scaling builds, holds and writes its transfer
    # operators at the deepest level only, and its M2M/L2L between the two
    # deepest levels only; one without stores every level
    config = ef.TreeConfig(dimension=2, side=1.0, depth=4)
    built = ef.build_operator_cache(LAPLACE, config, 1e-3, resolution=6,
                                    x_budget=256)
    per_level = ef.Kernel("laplace-per-level", LAPLACE.from_displacements,
                          is_symmetric=True)
    every = ef.build_operator_cache(per_level, config, 1e-3, resolution=6,
                                    x_budget=256)
    assert built.terms_per_level() == every.terms_per_level()
    for cache, stored in ((built, [4]), (every, [2, 3, 4])):
        path = tmp_path / f"{cache.key.kernel_id}.bin"
        ef.save_cache(cache, path)
        loaded = ef.load_cache(path)
        for c in (cache, loaded):
            assert sorted(c.m2l) == stored
            assert all(c.m2l[level].level == level for level in stored)
            assert [c.transfer(level).level for level in c.levels] == (
                [4, 4, 4] if stored == [4] else [2, 3, 4])
            assert sorted(c.m2m) == sorted(c.l2l) == [s - 1 for s in stored if s > 2]
    # the scaling file leaves out exactly the coarser levels' transfer
    # records and their M2M/L2L from the level above; the same term counts
    # give the translations their shapes
    dropped = len(per_level.name) - len(LAPLACE.name) + sum(
        len(_transfer_record(every.m2l[k])) for k in (2, 3)) + sum(
        len(_record(arrays=every.m2m[k].matrices + every.l2l[k].matrices)) for k in (2,))
    assert (tmp_path / "laplace.bin").stat().st_size + dropped == (
        tmp_path / "laplace-per-level.bin").stat().st_size


@pytest.mark.parametrize("dimension", [2, 3])
def test_stepped_scaling_cache_holds_copies_of_the_deepest_translations(dimension,
                                                                        tmp_path):
    # A cache assembled one public step per level holds M2M/L2L at every
    # level, each bitwise the deepest pair: it saves as the build does, and
    # its far field is bitwise the built cache's, which holds that pair once.
    config = ef.TreeConfig(dimension=dimension, side=1.0, depth={2: 5, 3: 4}[dimension])
    built = ef.build_operator_cache(LAPLACE, config, 1e-3, resolution=5, x_budget=256)
    stepped = _stepped_cache(LAPLACE, config, 1e-3, 5, 256)
    deepest = config.depth - 1
    assert sorted(built.m2m) == [deepest]
    assert sorted(stepped.m2m) == sorted(stepped.l2l) == list(range(2, config.depth))
    for ops in (stepped.m2m, stepped.l2l):
        for k in range(2, deepest):
            assert ops[k] is not ops[deepest]
            assert len(ops[k].matrices) == len(ops[deepest].matrices) == 2**dimension
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(ops[k].matrices, ops[deepest].matrices))
    ef.save_cache(built, tmp_path / "built.bin")
    ef.save_cache(stepped, tmp_path / "stepped.bin")
    assert (tmp_path / "built.bin").read_bytes() == (tmp_path / "stepped.bin").read_bytes()
    rng = np.random.default_rng(3)
    points = rng.uniform(-0.5, 0.5, size=(2000, dimension))
    weights = rng.uniform(-1.0, 1.0, size=2000)
    far = [ef.SummationPlan(LAPLACE, points, points, config, c).apply_far(weights)[0]
           for c in (built, stepped, ef.load_cache(tmp_path / "built.bin"))]
    assert far[0].tobytes() == far[1].tobytes() == far[2].tobytes()


def _exp_log_inverse_distance(disp):
    """1/r as exp(-0.5 log r^2): homogeneous of degree -1 only up to rounding."""
    r2 = np.einsum("...k,...k->...", disp, disp)
    with np.errstate(divide="ignore"):
        return np.exp(-0.5 * np.log(r2))


def test_stepped_cache_of_a_kernel_scaling_up_to_rounding_saves_as_built(tmp_path):
    # Its values scale by powers of two only up to rounding, so a coarser
    # level's own pair, from its rescaled models, would differ from the
    # deepest pair in the last bits, and save_cache would refuse the stepped
    # cache.  assemble_m2m and assemble_l2l return the deepest pair at every
    # level, as assemble_m2l returns the deepest transfer operators.
    kernel = ef.Kernel("exp-log-inverse-distance", _exp_log_inverse_distance,
                       is_symmetric=True, scaling=-1)
    config = ef.TreeConfig(dimension=2, side=1.0, depth=5)
    built = ef.build_operator_cache(kernel, config, 1e-3, resolution=5, x_budget=256)
    stepped = _stepped_cache(kernel, config, 1e-3, 5, 256)
    deepest = config.depth - 1
    for ops in (stepped.m2m, stepped.l2l):
        assert sorted(ops) == [2, 3, deepest]
        for k in (2, 3):
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(ops[k].matrices, ops[deepest].matrices, strict=True))
    ef.save_cache(built, tmp_path / "built.bin")
    ef.save_cache(stepped, tmp_path / "stepped.bin")
    assert (tmp_path / "built.bin").read_bytes() == (tmp_path / "stepped.bin").read_bytes()
    rng = np.random.default_rng(5)
    points = rng.uniform(-0.5, 0.5, size=(1500, 2))
    weights = rng.uniform(-1.0, 1.0, size=1500)
    far = [ef.SummationPlan(kernel, points, points, config, c).apply_far(weights)[0]
           for c in (built, stepped)]
    assert far[0].tobytes() == far[1].tobytes()


def test_symmetric_receiving_shares_nodes(small_cache):
    for level in (2, 3):
        pair = small_cache.eims[level]
        assert pair.level == level
        assert np.array_equal(pair.receiving.x_points, pair.radiating.y_points)
        assert np.array_equal(pair.receiving.y_points, pair.radiating.x_points)
        assert pair.terms == pair.radiating.d == pair.receiving.d


def test_level_model_node_roles(small_cache):
    for level in (2, 3):
        half = CONFIG.half_width(level)
        rad = small_cache.eims[level].radiating
        assert np.abs(rad.y_points).max() <= half
        assert np.abs(rad.x_points).max(axis=1).min() >= 3 * half


def test_vertical_operators_check_child_level(small_cache):
    pair2 = small_cache.eims[2]
    for assemble in (ef.assemble_m2m, ef.assemble_l2l):
        with pytest.raises(ValueError, match="level 2 models cannot serve level 3"):
            assemble(KERNEL, CONFIG, 2, pair2, pair2)


def _m2l(kernel, config, level, eims):
    return ef.assemble_m2l(kernel, config, level, eims, 1e-3)


@pytest.mark.parametrize("assemble, level, models, message", [
    (_m2l, 7, (3,), "level 7 outside 2..3"),
    (_m2l, 2, (3,), "level 3 models cannot serve level 2"),
    (ef.assemble_m2m, 2, (3, 3), "level 3 models cannot serve level 2"),
    (ef.assemble_l2l, 2, (3, 3), "level 3 models cannot serve level 2"),
    (ef.assemble_m2m, 3, (3, 4), "level 3 outside 2..2"),
    (ef.assemble_l2l, 3, (3, 4), "level 3 outside 2..2"),
], ids=["m2l-beyond-depth", "m2l-models", "m2m-models", "l2l-models", "m2m-at-depth",
        "l2l-at-depth"])
def test_per_level_steps_refuse_other_levels(small_cache, assemble, level, models,
                                             message):
    # each step serves 2..depth (M2M and L2L 2..depth - 1) and only the
    # models of its own level and of its children's
    last = small_cache.eims[CONFIG.depth]
    eims = [small_cache.eims[k] if k in small_cache.eims
            else LevelEims(k, last.radiating, last.receiving) for k in models]
    with pytest.raises(ValueError, match=re.escape(message)):
        assemble(KERNEL, CONFIG, level, *eims)


def test_m2m_matches_dense_inverse(small_cache):
    parent = small_cache.eims[2].radiating
    child = small_cache.eims[3].radiating
    hc = CONFIG.half_width(3)
    a = KERNEL.pairwise(child.x_points, child.y_points)
    inv = np.linalg.inv(a)
    slack = 100.0 * EPS * np.linalg.cond(a)
    for rank, bits in enumerate(2 * child_offsets(2) - 1):
        geom = KERNEL.pairwise(parent.x_points - bits * hc, child.y_points)
        expect = geom @ inv
        got = small_cache.m2m[2].matrices[rank]
        assert got.shape == (parent.d, child.d)
        assert np.abs(got - expect).max() <= slack * np.abs(expect).max()


def test_m2m_translates_child_moments(small_cache):
    """Sources in one child sub-box: pushing their child moments through the
    parent map must reproduce the directly computed parent moments."""
    parent = small_cache.eims[2].radiating
    child = small_cache.eims[3].radiating
    hc = CONFIG.half_width(3)
    rng = np.random.default_rng(42)
    weights = rng.uniform(-1.0, 1.0, 40)
    for rank, bits in enumerate(2 * child_offsets(2) - 1):
        src_local = rng.uniform(-hc, hc, (40, 2))
        child_moments = KERNEL.pairwise(child.x_points, src_local) @ weights
        via = small_cache.m2m[2].matrices[rank] @ child_moments
        direct = KERNEL.pairwise(parent.x_points, src_local + bits * hc) @ weights
        assert np.abs(via - direct).max() <= 100.0 * TOL * np.abs(direct).max()


def test_l2l_matches_dense_inverse(small_cache):
    parent = small_cache.eims[2].receiving
    child = small_cache.eims[3].receiving
    hc = CONFIG.half_width(3)
    a = KERNEL.pairwise(parent.x_points, parent.y_points)
    inv = np.linalg.inv(a)
    slack = 100.0 * EPS * np.linalg.cond(a)
    for rank, bits in enumerate(2 * child_offsets(2) - 1):
        geom = KERNEL.pairwise(child.x_points + bits * hc, parent.y_points)
        expect = geom @ inv
        got = small_cache.l2l[2].matrices[rank]
        assert got.shape == (child.d, parent.d)
        assert np.abs(got - expect).max() <= slack * np.abs(expect).max()


def test_l2l_translates_incoming_field(small_cache):
    """A field radiated by far sources, sampled at the parent's nodes, must
    re-sample correctly at every child's nodes through the parent-child map."""
    parent = small_cache.eims[2].receiving
    child = small_cache.eims[3].receiving
    h = CONFIG.half_width(2)
    hc = CONFIG.half_width(3)
    rng = np.random.default_rng(43)
    pts = rng.uniform(-(1.0 - h), 1.0 - h, (500, 2))
    far = pts[np.abs(pts).max(axis=1) >= 3.0 * h][:30]
    weights = rng.uniform(-1.0, 1.0, far.shape[0])

    def field(at):
        return KERNEL.pairwise(at, far) @ weights

    parent_samples = field(parent.x_points)
    for rank, bits in enumerate(2 * child_offsets(2) - 1):
        via = small_cache.l2l[2].matrices[rank] @ parent_samples
        direct = field(child.x_points + bits * hc)
        assert np.abs(via - direct).max() <= 100.0 * TOL * np.abs(direct).max()


# -- transfer compression ----------------------------------------------------


def test_m2l_validation(small_cache):
    pair = small_cache.eims[2]
    with pytest.raises(ValueError):
        ef.assemble_m2l(KERNEL, CONFIG, 1, pair, 1e-6)
    with pytest.raises(ValueError):
        ef.assemble_m2l(KERNEL, CONFIG, 2, pair, 0.0)
    for eps in (np.nan, np.inf):
        with pytest.raises(ValueError, match="compression_tolerance must be positive"):
            ef.assemble_m2l(KERNEL, CONFIG, 2, pair, eps)


def test_m2l_projector_orthonormal(small_cache, drift_cache):
    for cache in (small_cache, drift_cache):
        for level in (2, 3):
            for p in (cache.m2l[level].projector, cache.m2l[level].row_basis):
                gram = p.T @ p
                assert np.abs(gram - np.eye(p.shape[1])).max() <= 1e-12


def test_m2l_blocks_reconstruct_kernel(small_cache):
    offsets = ef.transfer_offsets(2)
    for level in (2, 3):
        ops = small_cache.m2l[level]
        pair = small_cache.eims[level]
        step = 2.0 * CONFIG.half_width(level)
        exact = [
            KERNEL.pairwise(pair.receiving.x_points, pair.radiating.y_points + step * off)
            for off in offsets
        ]
        # the certified budget is Frobenius over the block concatenation
        fat_norm = np.sqrt(sum(np.linalg.norm(e) ** 2 for e in exact))
        for t in range(len(offsets)):
            approx = ops.projector @ ops.block(t) @ ops.projector.T
            assert np.linalg.norm(approx - exact[t]) <= 5.0 * TOL * fat_norm


def _mirror(dimension):
    """Index of the offset -t, for each transfer offset t."""
    offsets = ef.transfer_offsets(dimension)
    index = {tuple(off): i for i, off in enumerate(offsets)}
    return [index[tuple(-off)] for off in offsets]


def test_symmetric_blocks_of_mirrored_offsets_are_transposes(small_cache,
                                                            loose_cache):
    # the sibling blocks of a shared tree apply M_P^T for parent offset -P,
    # so C_t^T for offset -t: B_{-t} = B_t^T, and a symmetric level projects
    # one block of each mirrored pair, the first half of the row-major
    # offsets, and gives the other's as its transpose, bit for bit
    laplace = ef.build_level_eims(LAPLACE, CONFIG, 3, 1e-6, 300, 8, 1024)
    mirror = _mirror(CONFIG.dimension)
    n = len(mirror)
    assert mirror == [n - 1 - t for t in range(n)]
    for ops in [small_cache.m2l[k] for k in small_cache.levels] + [
            loose_cache.m2l[k] for k in loose_cache.levels] + [
            ef.assemble_m2l(LAPLACE, CONFIG, 3, laplace, 1e-6)]:
        assert ops.row_basis is ops.projector
        for t, s in enumerate(mirror):
            assert np.array_equal(ops.block(s), ops.block(t).T)
            # the second half is a view of the first
            assert np.shares_memory(ops.block(t), ops.blocks[min(s, t)])


def test_mirrored_level_stores_half_the_blocks(small_cache, drift_cache):
    # a symmetric level stores the blocks of the first n/2 offsets, the
    # drift kernel's every offset's; block(t) gives C_t for all n either way
    n = len(transfer_offsets(CONFIG.dimension))
    for cache, stored in ((small_cache, n // 2), (drift_cache, n)):
        for ops in cache.m2l.values():
            assert ops.blocks.shape == (stored, ops.rank, ops.row_basis.shape[1])
            assert (ops.row_basis is ops.projector) == (stored < n)
            assert [ops.block(t).shape for t in range(n)] == [ops.blocks[0].shape] * n


def _counting(kernel):
    """kernel with a list that grows by one for each block it evaluates."""
    calls = []

    def profile(disp):
        calls.append(disp.shape[:-1])
        return kernel.from_displacements(disp)

    return ef.Kernel(f"counting-{kernel.name}", profile, kernel.is_symmetric), calls


def test_m2l_evaluates_a_mirrored_pair_once_per_pass():
    # two passes (basis, projection) over half the offsets of a symmetric
    # level; three over all of them (two bases, projection) otherwise
    config = ef.TreeConfig(dimension=3, side=1.0, depth=3)
    bias = np.array([0.35, -0.2, 0.1])
    drift = ef.Kernel("drift-3d", lambda d: np.exp(-np.sum((d + bias) ** 2, axis=-1)),
                      is_symmetric=False)
    px, py = training_grids(config, 3, 4, 256)
    n = len(transfer_offsets(3))
    for kernel, passes, count in ((LAPLACE, 2, n // 2), (drift, 3, n)):
        counted, calls = _counting(kernel)
        radiating = eim_build(kernel, px, py, 1e-12, max_terms=8)
        receiving = None if kernel.is_symmetric else eim_build(
            kernel, py, px, 1e-12, max_terms=7)
        pair = LevelEims(3, radiating, receiving)
        ops = ef.assemble_m2l(counted, config, 3, pair, 1e-6)
        assert len(calls) == passes * count
        assert set(calls) == {(pair.receiving.d, pair.radiating.d)}
        assert ops.blocks.shape[0] == count


def test_m2l_blocks_are_dense_projections(small_cache, drift_kernel, drift_cache):
    # one (offsets, rank, r_v) array: block t is the transfer block
    # projected on both bases, kept whole
    for cache, kernel in ((small_cache, KERNEL), (drift_cache, drift_kernel)):
        for level in cache.levels:
            ops, pair = cache.m2l[level], cache.eims[level]
            r_v = ops.row_basis.shape[1]
            exact = _exact_blocks(kernel, level, pair)
            assert ops.blocks.dtype == np.float64
            assert ops.blocks.shape == (operators._stored_blocks(
                CONFIG.dimension, kernel.is_symmetric), ops.rank, r_v)
            assert all(ops.block_rank(t) == ops.rank for t in range(len(exact)))
            for t, b in enumerate(exact):
                block = ops.block(t)
                expect = ops.projector.T @ b @ ops.row_basis
                assert np.abs(block - expect).max() <= 1e-13 * np.abs(expect).max()


def _exact_blocks(kernel, level, eims):
    offsets = ef.transfer_offsets(CONFIG.dimension)
    step = 2.0 * CONFIG.half_width(level)
    px, py = eims.receiving.x_points, eims.radiating.y_points
    return [kernel.pairwise(px, py + step * off) for off in offsets]


def _direct_bases(kernel, level, eims, eps):
    """Column and row bases from full SVDs of the concatenated blocks and of
    their transposes."""
    blocks = _exact_blocks(kernel, level, eims)
    bases = []
    for fat in (np.hstack(blocks), np.hstack([b.T for b in blocks])):
        basis, svals, _ = np.linalg.svd(fat, full_matrices=False)
        bases.append(basis[:, : _tail_rank(svals, eps)])
    return bases


def test_m2l_projector_matches_direct_svd(small_cache, drift_kernel):
    # each basis taken through the QR R factor spans the direct SVD's
    # truncated left singular subspace, at the same rank
    cases = [(KERNEL, level, small_cache.eims[level], TOL) for level in (2, 3)]
    for level in (2, 3):
        eims = ef.build_level_eims(drift_kernel, CONFIG, level, 1e-5, 300, 8, 1024)
        # coarse enough that the bases drop directions
        cases.append((drift_kernel, level, eims, 1e-3))
    for kernel, level, eims, eps in cases:
        ops = ef.assemble_m2l(kernel, CONFIG, level, eims, eps)
        for got, direct in zip((ops.projector, ops.row_basis),
                               _direct_bases(kernel, level, eims, eps)):
            assert got.shape == direct.shape
            assert got.shape[1] < got.shape[0]
            gap = np.linalg.norm(got @ got.T - direct @ direct.T, 2)
            assert gap <= 1e-9
        if kernel.is_symmetric:
            assert ops.row_basis is ops.projector


def test_streamed_basis_matches_one_qr_of_the_whole_operand(small_cache,
                                                          drift_cache,
                                                          drift_kernel):
    # the panels folded into one triangle give the subspace of one QR of
    # all block transposes stacked: 40 blocks are a full panel and a part,
    # 32 a full panel alone
    for kernel, cache in ((KERNEL, small_cache), (drift_kernel, drift_cache)):
        for level in cache.levels:
            exact = _exact_blocks(kernel, level, cache.eims[level])
            assert len(exact) == operators._PANEL_BLOCKS + 8
            for blocks in (exact, exact[:operators._PANEL_BLOCKS]):
                # coarse enough that the bases drop directions
                got = operators._column_basis(iter(blocks), 1e-3)
                r_factor = scipy.linalg.qr(np.vstack([b.T for b in blocks]),
                                           mode="r")[0]
                basis, svals, _ = np.linalg.svd(r_factor.T)
                whole = basis[:, :_tail_rank(svals, 1e-3)]
                assert got.shape == whole.shape
                assert got.shape[1] < got.shape[0]
                sines = np.sin(scipy.linalg.subspace_angles(got, whole))
                assert sines.max() <= 1e-12


def test_tail_rank_rule():
    rng = np.random.default_rng(11)
    matrix = rng.standard_normal((50, 3)) @ rng.standard_normal((3, 40))
    assert _tail_rank(np.linalg.svd(matrix, compute_uv=False), 1e-10) == 3
    assert _tail_rank(np.linalg.svd(np.zeros((6, 9)), compute_uv=False), 1e-8) == 0
    # a flat spectrum has no tail small enough to drop
    assert _tail_rank(np.ones(4), 1e-6) == 4


# -- cache summaries ---------------------------------------------------------


def test_cache_level_summaries(small_cache):
    assert small_cache.levels == [2, 3]
    terms = small_cache.terms_per_level()
    ranks = small_cache.ranks_per_level()
    assert sorted(terms) == sorted(ranks) == [2, 3]
    for level in (2, 3):
        assert terms[level] == small_cache.eims[level].terms
        assert ranks[level] == small_cache.m2l[level].rank
        assert ranks[level] <= terms[level]
    # vertical operators only exist where a child level exists
    assert sorted(small_cache.m2m) == sorted(small_cache.l2l) == [2]


def _assert_blocks_reconstructed(kernel, level, eims, ops, eps):
    """U @ C_t @ V^T against every exact block, within the Frobenius budget
    of the block concatenation."""
    exact = _exact_blocks(kernel, level, eims)
    fat_norm = np.sqrt(sum(np.linalg.norm(e) ** 2 for e in exact))
    for t, block in enumerate(exact):
        approx = ops.projector @ ops.block(t) @ ops.row_basis.T
        assert np.linalg.norm(approx - block) <= 5.0 * eps * fat_norm


def test_nonsymmetric_kernel_builds_both_directions(drift_kernel, drift_cache):
    drift = drift_kernel
    assert drift.pairwise([0.1, 0.0], [0.0, 0.0]) != drift.pairwise(
        [0.0, 0.0], [0.1, 0.0]
    )
    for level in (2, 3):
        pair = drift_cache.eims[level]
        half = CONFIG.half_width(level)
        assert np.abs(pair.receiving.x_points).max() <= half
        assert np.abs(pair.receiving.y_points).max(axis=1).min() >= 3 * half
        ops = drift_cache.m2l[level]
        assert ops.row_basis.shape[0] == pair.radiating.d
        assert ops.projector.shape[0] == pair.receiving.d
        _assert_blocks_reconstructed(drift, level, pair, ops, 1e-5)


def test_m2l_unequal_term_counts_assemble(drift_kernel):
    drift = drift_kernel
    px, py = training_grids(CONFIG, 2, 6, 256)
    radiating = eim_build(drift, px, py, 1e-12, max_terms=6)
    receiving = eim_build(drift, py, px, 1e-12, max_terms=9)
    assert (radiating.d, receiving.d) == (6, 9)
    pair = LevelEims(level=2, radiating=radiating, receiving=receiving)
    ops = ef.assemble_m2l(drift, CONFIG, 2, pair, 1e-6)
    assert ops.projector.shape[0] == 9 and ops.row_basis.shape[0] == 6
    _assert_blocks_reconstructed(drift, 2, pair, ops, 1e-6)


def test_m2l_refuses_symmetric_level_with_other_receiving_nodes(small_cache):
    # a symmetric level takes V = U and C_{-t} = C_t^T: both hold only when
    # its receiving x nodes are its radiating y nodes
    rad = small_cache.eims[2].radiating
    px, py = training_grids(CONFIG, 2, 8, 1024)
    more = eim_build(KERNEL, py, px, 1e-14, max_terms=rad.d + 5)
    # trained on another resolution, capped to the radiating term count
    qx, qy = training_grids(CONFIG, 2, 6, 1024)
    other = eim_build(KERNEL, qy, qx, 1e-14, max_terms=rad.d)
    assert (more.d, other.d) == (rad.d + 5, rad.d)
    for given in (more, other):
        with pytest.raises(ValueError, match="level 2: the receiving x nodes"):
            ef.assemble_m2l(KERNEL, CONFIG, 2, LevelEims(2, rad, given), TOL)
    # a given twin of the derived model has the same nodes, and is kept
    twin = rad.transposed()
    copy = EimModel(twin.x_points, twin.y_points, twin.basis_matrix,
                    twin.pivot_matrix, twin.residual_history, twin.degenerate)
    ops = ef.assemble_m2l(KERNEL, CONFIG, 2, LevelEims(2, rad, copy), TOL)
    assert np.array_equal(ops.blocks, small_cache.m2l[2].blocks)


def test_m2l_holds_one_operand():
    # the block array is the only large array: each basis streams the blocks
    # through one panel of block transposes into its QR's small triangle,
    # and no block is listed, stacked or copied
    laplace = ef.make_builtin_kernel("laplace")
    config = ef.TreeConfig(dimension=3, side=1.0, depth=3)
    eims = ef.build_level_eims(laplace, config, 3, 1e-4, 300, 6, 1024)
    assert eims.terms == 66
    panel = 8 * operators._PANEL_BLOCKS * eims.radiating.d * eims.receiving.d
    tracemalloc.start()
    try:
        ops = ef.assemble_m2l(laplace, config, 3, eims, 1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (ops.blocks.nbytes + panel)


# -- serialization -----------------------------------------------------------


def _assert_models_equal(a, b):
    assert a.degenerate == b.degenerate
    for name in ("x_points", "y_points", "basis_matrix", "pivot_matrix",
                 "residual_history", "cross_matrix"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def _assert_round_trip_bitwise(small_cache, tmp_path):
    """Save and load small_cache; returns the loaded cache."""
    path = tmp_path / "ops.bin"
    ef.save_cache(small_cache, path)
    loaded = ef.load_cache(path, expected_key=small_cache.key)
    assert loaded.key == small_cache.key
    assert loaded.levels == small_cache.levels
    for level in small_cache.levels:
        _assert_models_equal(loaded.eims[level].radiating,
                             small_cache.eims[level].radiating)
        _assert_models_equal(loaded.eims[level].receiving,
                             small_cache.eims[level].receiving)
    assert sorted(loaded.m2m) == sorted(small_cache.m2m) == sorted(loaded.l2l)
    for level in small_cache.m2m:
        assert len(loaded.m2m[level].matrices) == len(small_cache.m2m[level].matrices)
        assert len(loaded.l2l[level].matrices) == len(small_cache.l2l[level].matrices)
        for got, expect in zip(loaded.m2m[level].matrices,
                               small_cache.m2m[level].matrices):
            assert np.array_equal(got, expect)
        for got, expect in zip(loaded.l2l[level].matrices,
                               small_cache.l2l[level].matrices):
            assert np.array_equal(got, expect)
    assert sorted(loaded.m2l) == sorted(small_cache.m2l)
    for level in small_cache.m2l:
        got_ops = loaded.m2l[level]
        expect_ops = small_cache.m2l[level]
        assert np.array_equal(got_ops.projector, expect_ops.projector)
        assert np.array_equal(got_ops.row_basis, expect_ops.row_basis)
        # a mirrored level loads its one basis as one array, as it is built
        assert ((got_ops.row_basis is got_ops.projector)
                == (expect_ops.row_basis is expect_ops.projector))
        assert got_ops.blocks.dtype == expect_ops.blocks.dtype == np.float64
        assert np.array_equal(got_ops.blocks, expect_ops.blocks)
    # a second save of the loaded cache reproduces the file byte for byte
    again = tmp_path / "ops2.bin"
    ef.save_cache(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    return loaded


def test_cache_round_trip_bitwise(small_cache, tmp_path):
    loaded = _assert_round_trip_bitwise(small_cache, tmp_path)
    # a symmetric kernel's level is mirrored: its row basis is its column
    # basis, and every block(t) comes back bitwise
    n = len(transfer_offsets(CONFIG.dimension))
    for level, ops in loaded.m2l.items():
        assert ops.row_basis is ops.projector
        assert len(ops.blocks) == n // 2
        for t in range(n):
            assert np.array_equal(ops.block(t), small_cache.m2l[level].block(t))


def test_transposed_receiving_models_share_the_cross_matrix(tmp_path):
    # A symmetric kernel's receiving model is derived from the radiating
    # model and solves through its cross matrix, transposed: built, rescaled
    # and loaded alike, so a loaded cache sums bitwise as the built one.
    kernel = ef.make_builtin_kernel("laplace")
    config = ef.TreeConfig(dimension=2, side=1.0, depth=4)
    built = ef.build_operator_cache(kernel, config, 1e-6, resolution=6, x_budget=512)
    path = tmp_path / "ops.bin"
    ef.save_cache(built, path)
    loaded = ef.load_cache(path)
    for cache in (built, loaded):
        for level in cache.levels:
            pair = cache.eims[level]
            assert pair.derived
            assert np.array_equal(pair.receiving.cross_matrix,
                                  pair.radiating.cross_matrix.T)
            _assert_models_equal(pair.receiving, built.eims[level].receiving)


def test_level_keeps_a_given_receiving_model(small_cache, drift_cache):
    # nothing is matched: a receiving model that is given is kept, even one
    # with the arrays of the radiating model's transpose
    rad = small_cache.eims[2].radiating
    twin = rad.transposed()
    copy = EimModel(twin.x_points, twin.y_points, twin.basis_matrix,
                    twin.pivot_matrix, twin.residual_history, twin.degenerate)
    for given in (twin, copy):
        pair = LevelEims(2, rad, given)
        assert pair.receiving is given and not pair.derived
    derived = LevelEims(2, rad)
    assert derived.derived
    _assert_models_equal(derived.receiving, twin)
    assert all(small_cache.eims[k].derived for k in small_cache.levels)
    assert not any(drift_cache.eims[k].derived for k in drift_cache.levels)
    # a rescaled level of a scaling kernel is derived too
    config = ef.TreeConfig(dimension=2, side=1.0, depth=3)
    assert ef.build_level_eims(LAPLACE, config, 2, 1e-3, 300, 6, 256).derived


def _record(*words, arrays=()):
    """Bytes as save_cache writes them: u64 count and flag words, then the
    arrays' values, with no shape words."""
    return struct.pack(f"<{len(words)}Q", *words) + b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)


def _model_record(model):
    """A model's record: its degenerate flag and term count, then its five
    arrays."""
    return _record(model.degenerate, model.d, arrays=(
        model.x_points, model.y_points, model.basis_matrix, model.pivot_matrix,
        model.residual_history))


def _transfer_record(ops):
    """A transfer record: its mirrored flag, rank and r_v, then its
    projector, its row basis unless mirrored, and its stored blocks."""
    mirrored = ops.row_basis is ops.projector
    return _record(mirrored, ops.rank, ops.row_basis.shape[1], arrays=(
        ops.projector, *[ops.row_basis][:not mirrored], ops.blocks))


def _two_model_bytes(cache):
    """Size of the file that would store both models of every level: the
    header, per level the receiving and operators flags and the records,
    and the checksum."""
    size = len(operators.CACHE_MAGIC) + 8 + len(operators._key_bytes(cache.key)) + 32
    for level in cache.levels:
        pair = cache.eims[level]
        size += 16 + len(_model_record(pair.radiating) + _model_record(pair.receiving))
        if level - 1 in cache.m2m:
            size += len(_record(arrays=cache.m2m[level - 1].matrices
                                + cache.l2l[level - 1].matrices))
        if level in cache.m2l:
            size += len(_transfer_record(cache.m2l[level]))
    return size


def test_symmetric_cache_stores_one_model_per_level(small_cache, drift_cache,
                                                    tmp_path):
    # a symmetric level's file record leaves out its derived receiving
    # model; a non-symmetric cache keeps both models of every level
    config = ef.TreeConfig(dimension=2, side=1.0, depth=4)
    rescaled = ef.build_operator_cache(LAPLACE, config, 1e-3, resolution=6,
                                       x_budget=256)
    for cache in (small_cache, rescaled, drift_cache):
        path = tmp_path / f"{cache.key.kernel_id}.bin"
        ef.save_cache(cache, path)
        left_out = sum(len(_model_record(cache.eims[k].receiving))
                       for k in cache.levels if cache.eims[k].derived)
        assert (left_out > 0) == (cache is not drift_cache)
        assert path.stat().st_size == _two_model_bytes(cache) - left_out


def test_nonsymmetric_cache_round_trip_bitwise(drift_cache, tmp_path):
    _assert_round_trip_bitwise(drift_cache, tmp_path)
    assert any(ops.row_basis.shape != ops.projector.shape
               or not np.array_equal(ops.row_basis, ops.projector)
               for ops in drift_cache.m2l.values())


def test_cache_refuses_version_2_file(small_cache, tmp_path):
    path = tmp_path / "ops.bin"
    ef.save_cache(small_cache, path)
    data = bytearray(path.read_bytes())
    offset = len(operators.CACHE_MAGIC)
    assert data[offset] == operators.CACHE_VERSION
    # version 10 stored both bases and every block of a symmetric level
    for old in sorted({2, 10, operators.CACHE_VERSION - 1}):
        data[offset] = old
        path.write_bytes(bytes(data))
        with pytest.raises(ef.CacheVersionError, match=f"version {old}"):
            ef.load_cache(path)


def test_cache_build_deterministic(tmp_path):
    paths = []
    for run in range(2):
        cache = ef.build_operator_cache(KERNEL, CONFIG, 1e-3, resolution=6,
                                        x_budget=256)
        path = tmp_path / f"run{run}.bin"
        ef.save_cache(cache, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def _changed(value):
    return value + "-other" if isinstance(value, str) else 2 * value


def test_cache_key_refuses_values_it_cannot_hold():
    # a count its type would truncate, or a tolerance that is not a positive
    # finite number, is refused before anything is built
    for name, value in (("max_terms", 3.5), ("x_budget", 256.5), ("resolution", "6")):
        settings = dict(max_terms=300, resolution=6, x_budget=256)
        settings[name] = value
        with pytest.raises(ValueError, match=f"CacheKey {name} must be a"):
            ef.build_operator_cache(KERNEL, CONFIG, 1e-3, **settings)
    one_point = ef.ParticleSystem(np.zeros((1, 2)), np.zeros((1, 2)), np.ones(1))
    for tolerance, compress_tol, name in ((np.nan, None, "tolerance"),
                                          (1e-3, np.inf, "compress_tol"),
                                          (1e-3, np.nan, "compress_tol"),
                                          (1e-3, 0.0, "compress_tol")):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            ef.build_operator_cache(KERNEL, CONFIG, tolerance, compress_tol)
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            ef.evaluate(KERNEL, one_point, CONFIG, tolerance, compress_tol=compress_tol)
    key = operators.make_cache_key(KERNEL, CONFIG, 1e-3)
    with pytest.raises(ValueError, match="CacheKey tolerance must be a float"):
        dataclasses.replace(key, tolerance=np.nan)
    # values the field types hold exactly are kept, converted
    key = operators.make_cache_key(KERNEL, CONFIG, np.float64(1e-3),
                                   max_terms=np.int64(9), resolution=6.0)
    assert type(key.resolution) is int and key.resolution == 6
    assert type(key.max_terms) is int and type(key.tolerance) is float


def test_cache_mismatch_refused(small_cache, tmp_path):
    path = tmp_path / "ops.bin"
    ef.save_cache(small_cache, path)
    key = small_cache.key
    # every field must reach the stored header
    for f in dataclasses.fields(ef.CacheKey):
        other = dataclasses.replace(key, **{f.name: _changed(getattr(key, f.name))})
        with pytest.raises(ef.CacheMismatchError):
            ef.load_cache(path, expected_key=other)
    # no expected key means any self-consistent file loads
    assert ef.load_cache(path).key == small_cache.key


class _FailingWriter:
    """File stand-in that raises once more than `budget` bytes are written."""

    def __init__(self, fh, budget):
        self.fh = fh
        self.budget = budget

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if len(data) > self.budget:
            self.fh.write(data[: self.budget])
            raise OSError("no space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)


def test_cache_save_interrupted_keeps_old_file(small_cache, tmp_path, monkeypatch):
    path = tmp_path / "ops.bin"
    ef.save_cache(small_cache, path)
    before = path.read_bytes()
    monkeypatch.setattr(
        operators, "open",
        lambda *args, **kw: _FailingWriter(open(*args, **kw), 100),
        raising=False,
    )
    with pytest.raises(OSError):
        ef.save_cache(small_cache, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert ef.load_cache(path, expected_key=small_cache.key).key == small_cache.key
    assert list(tmp_path.iterdir()) == [path]


# Byte offsets from the layout save_cache writes: the magic, the u64
# version, the u64-prefixed kernel name, one 8-byte word per other key field
# (dimension, side, ...), then per level a u64 receiving flag and a u64
# operators flag, and per stored model a u64 flag, its u64 term count d and
# its arrays, values only: no shape is stored; last, the 32-byte checksum.
_NAME_AT = len(operators.CACHE_MAGIC) + 16
_FIELDS_AT = _NAME_AT + len(KERNEL.name)
_FIRST_COUNT_AT = _FIELDS_AT + 8 * (len(dataclasses.fields(ef.CacheKey)) - 1) + 24
_FIRST_ARRAY_AT = _FIRST_COUNT_AT + 8
_CORRUPTION_CASES = [
    (3, ef.CacheVersionError),                                # magic
    (len(operators.CACHE_MAGIC) + 4, ef.CacheVersionError),   # version word
    (_NAME_AT + 1, ef.CacheCorruptError),                     # kernel name
    (_FIELDS_AT + 8, ef.CacheCorruptError),                   # side field
    (_FIRST_COUNT_AT, ef.CacheCorruptError),                  # first term count
    (-33, ef.CacheCorruptError),                              # last array body
    (-3, ef.CacheCorruptError),                               # checksum
]


@pytest.mark.parametrize("position,expected", _CORRUPTION_CASES)
def test_cache_rejects_flipped_byte(small_cache, tmp_path, position, expected):
    path = tmp_path / "ops.bin"
    ef.save_cache(small_cache, path)
    data = bytearray(path.read_bytes())
    data[position] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(expected):
        ef.load_cache(path)


def test_cache_rejects_truncation_and_trailing(small_cache, tmp_path):
    path = tmp_path / "ops.bin"
    ef.save_cache(small_cache, path)
    data = path.read_bytes()
    for mangled in (data[:100], data[:-9], data + b"\x00"):
        path.write_bytes(mangled)
        with pytest.raises(ef.CacheCorruptError):
            ef.load_cache(path)


def _resigned(path, body):
    """Write body under its own valid checksum, as save_cache would."""
    path.write_bytes(body + hashlib.sha256(body).digest())


def test_cache_refuses_read_past_end_under_valid_checksum(small_cache, tmp_path):
    # a cut body, and a first term count of 2^31, whose cross factors would
    # claim 2^62 values: each length is checked against the bytes left
    # before anything is allocated
    path = tmp_path / "ops.bin"
    ef.save_cache(small_cache, path)
    body = path.read_bytes()[:-32]
    huge = struct.pack("<Q", 2**31)
    for mangled in (body[:_FIRST_ARRAY_AT + 8],
                    body[:_FIRST_COUNT_AT] + huge + body[_FIRST_ARRAY_AT:]):
        _resigned(path, mangled)
        with pytest.raises(ef.CacheCorruptError, match="cache file is truncated"):
            ef.load_cache(path)


def test_cache_refuses_undecodable_kernel_name(small_cache, tmp_path):
    path = tmp_path / "ops.bin"
    ef.save_cache(small_cache, path)
    body = path.read_bytes()[:-32]
    _resigned(path, body[:_NAME_AT] + b"\xff" * len(KERNEL.name) + body[_FIELDS_AT:])
    with pytest.raises(ef.CacheCorruptError, match="undecodable kernel name in cache file"):
        ef.load_cache(path)


def test_cache_refuses_key_values_no_build_writes(small_cache, tmp_path):
    # each file is re-signed, so only the key's own rules can refuse it: a
    # NaN side or tolerance, and a tolerance or compress_tol that
    # make_cache_key refuses, are corrupt files, named by field
    path = tmp_path / "ops.bin"
    ef.save_cache(small_cache, path)
    body = path.read_bytes()[:-32]
    names = [f.name for f in dataclasses.fields(ef.CacheKey)]
    for name, value in (("side", np.nan), ("tolerance", np.nan), ("compress_tol", np.nan),
                        ("tolerance", 0.0), ("tolerance", np.inf), ("compress_tol", -1.0),
                        ("side", np.inf)):
        at = _FIELDS_AT + 8 * (names.index(name) - 1)
        assert body[at:at + 8] == struct.pack("<d", getattr(small_cache.key, name))
        _resigned(path, body[:at] + struct.pack("<d", value) + body[at + 8:])
        with pytest.raises(ef.CacheCorruptError, match=f"CacheKey {name} must be"):
            ef.load_cache(path)


def test_cache_key_refuses_counts_no_build_takes(small_cache, tmp_path):
    # a resolution below 2, an x budget below 1 and a max_terms below 1 are
    # refused by name, when a key is made and when a re-signed file holds
    # one: loaded, a max_terms of 0 would let its models hold more terms
    # than the key allows
    for name, value in (("resolution", 1), ("resolution", 0), ("x_budget", 0),
                        ("max_terms", 0), ("max_terms", -3)):
        settings = {"max_terms": 300, "resolution": 6, "x_budget": 256, name: value}
        with pytest.raises(ValueError, match=f"^CacheKey {name} must be at least"):
            operators.make_cache_key(KERNEL, CONFIG, 1e-3, **settings)
        with pytest.raises(ValueError, match=f"^CacheKey {name} must be at least"):
            dataclasses.replace(small_cache.key, **{name: value})
    path = tmp_path / "ops.bin"
    ef.save_cache(small_cache, path)
    body = path.read_bytes()[:-32]
    names = [f.name for f in dataclasses.fields(ef.CacheKey)]
    for name, value in (("resolution", 1), ("x_budget", 0), ("max_terms", 0)):
        at = _FIELDS_AT + 8 * (names.index(name) - 1)
        assert body[at:at + 8] == struct.pack("<Q", getattr(small_cache.key, name))
        _resigned(path, body[:at] + struct.pack("<Q", value) + body[at + 8:])
        with pytest.raises(ef.CacheCorruptError,
                           match=f"CacheKey {name} must be at least"):
            ef.load_cache(path)


def test_cache_checks_layout_under_valid_checksum(small_cache, tmp_path):
    # each file below is re-signed, so only the structure checks can refuse it
    path = tmp_path / "ops.bin"
    ef.save_cache(small_cache, path)
    body = path.read_bytes()[:-32]
    assert body[_NAME_AT:_FIELDS_AT] == KERNEL.name.encode()
    first = small_cache.eims[2].radiating
    recv_at, own_at, flag_at = (_FIRST_COUNT_AT - k for k in (24, 16, 8))
    # the receiving and operators flags, then the first model's record: no
    # shape word
    assert body[recv_at:].startswith(_record(1, 1) + _model_record(first))
    assert body[_FIRST_ARRAY_AT:].startswith(first.x_points.tobytes())
    cases = [
        (body[:recv_at] + struct.pack("<Q", 2) + body[recv_at + 8:], "receiving flag"),
        (body[:own_at] + struct.pack("<Q", 2) + body[own_at + 8:], "operators flag"),
        (body[:flag_at] + struct.pack("<Q", 2) + body[flag_at + 8:], "model flag"),
        (body + np.ones(4).tobytes(), "trailing"),
    ]
    for mangled, reason in cases:
        _resigned(path, mangled)
        with pytest.raises(ef.CacheCorruptError, match=reason):
            ef.load_cache(path)


def test_cache_refuses_missing_deepest_transfer_under_valid_checksum(tmp_path):
    # the deepest level's record ends the body: its flags, its model, the
    # M2M/L2L from the level above and its transfer record.  Every level
    # runs those when it has no operators of its own (level 2 here), so a
    # file whose deepest level has none is refused
    config = ef.TreeConfig(dimension=2, side=1.0, depth=3)
    cache = ef.build_operator_cache(LAPLACE, config, 1e-3, resolution=6, x_budget=256)
    path = tmp_path / "ops.bin"
    ef.save_cache(cache, path)
    body = path.read_bytes()[:-32]
    model = _model_record(cache.eims[config.depth].radiating)
    own = _record(arrays=cache.m2m[2].matrices + cache.l2l[2].matrices) + _transfer_record(
        cache.m2l[config.depth])
    assert body.endswith(_record(1, 1) + model + own)
    flags_at = len(body) - len(model + own) - 16
    # level 2 has no operators of its own, and no M2M/L2L above it
    level2 = _record(1, 0) + _model_record(cache.eims[2].radiating)
    assert body[:flags_at].endswith(level2)
    cases = [
        (body[:flags_at] + _record(1, 0) + model, "no deepest-level transfer"),
        (body[:flags_at] + _record(1, 2) + body[flags_at + 16:], "operators flag"),
    ]
    for mangled, reason in cases:
        _resigned(path, mangled)
        with pytest.raises(ef.CacheCorruptError, match=reason):
            ef.load_cache(path)


def test_save_refuses_arrays_their_counts_do_not_give(drift_cache, tmp_path):
    # A file stores counts, not shapes: an array that does not fit them
    # would load in another shape, its values scrambled.  save_cache refuses
    # it, naming the level whose record holds it (the M2M/L2L from the level
    # above sit in the deeper level's record), and leaves an earlier file.
    path = tmp_path / "ops.bin"
    ef.save_cache(drift_cache, path)
    before = path.read_bytes()
    mats = list(drift_cache.m2m[2].matrices)
    mats[1] = mats[1].T
    assert mats[1].shape[0] != mats[1].shape[1]
    ops = drift_cache.m2l[3]
    cut = dataclasses.replace(ops, projector=ops.projector[1:])
    model = drift_cache.eims[3].receiving
    short = EimModel(model.x_points, model.y_points, model.basis_matrix,
                     model.pivot_matrix, model.residual_history[:-1], model.degenerate)
    cases = [
        ({"m2m": {2: operators.TranslationOperators(mats)}}, mats[1]),
        ({"m2l": {**drift_cache.m2l, 3: cut}}, cut.projector),
        ({"eims": {**drift_cache.eims, 3: LevelEims(3, drift_cache.eims[3].radiating, short)}},
         short.residual_history),
    ]
    for changed, wrong in cases:
        with pytest.raises(ValueError, match=re.escape(f"level 3: shape {wrong.shape}, not")):
            ef.save_cache(dataclasses.replace(drift_cache, **changed), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


def test_save_refuses_borrowed_translations_unlike_the_deepest(tmp_path):
    # A laplace level without operators of its own loads the M2M/L2L
    # between the two deepest levels: a stepped cache's copy held there
    # must be that pair, bitwise, or the file would sum otherwise than the
    # cache it was saved from.
    config = ef.TreeConfig(dimension=2, side=1.0, depth=4)
    stepped = _stepped_cache(LAPLACE, config, 1e-3, 5, 256)
    path = tmp_path / "ops.bin"
    ef.save_cache(stepped, path)
    before = path.read_bytes()
    mats = list(stepped.l2l[2].matrices)
    mats[1] = 2.0 * mats[1]
    doubled = dataclasses.replace(
        stepped, l2l={**stepped.l2l, 2: operators.TranslationOperators(mats)})
    with pytest.raises(ValueError, match="level 2: M2M/L2L unlike the deepest"):
        ef.save_cache(doubled, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_save_refuses_translations_of_another_count(tmp_path):
    # A level's M2M and L2L hold one matrix per child parity, 2^D: the file
    # stores no count for them, so another number would load as a truncated
    # or misread file.  save_cache refuses it, naming the level, and leaves
    # no file behind.
    config = ef.TreeConfig(dimension=2, side=1.0, depth=4)
    built = ef.build_operator_cache(LAPLACE, config, 1e-3, resolution=5, x_budget=256)
    path = tmp_path / "ops.bin"
    for held in ("m2m", "l2l"):
        mats = getattr(built, held)[3].matrices
        assert len(mats) == 4
        for count in (5, 3):
            changed = {3: operators.TranslationOperators((mats + mats)[:count])}
            with pytest.raises(ValueError,
                               match="level 3: not 4 M2M/L2L matrices"):
                ef.save_cache(dataclasses.replace(built, **{held: changed}), path)
            assert list(tmp_path.iterdir()) == []


def test_save_into_a_missing_directory_names_it(small_cache, tmp_path):
    # the error names the directory, as load_or_build_cache's does, not a
    # temporary file that never existed
    missing = tmp_path / "nodir"
    with pytest.raises(FileNotFoundError,
                       match=f"^cache directory {re.escape(repr(str(missing)))} "
                             "does not exist$"):
        ef.save_cache(small_cache, missing / "ops.bin")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["gaussian", "laplace"])
def test_cache_refuses_a_first_count_off_by_one_before_any_arithmetic(name, tmp_path):
    # Each file below is re-signed: its first model's term count is one off,
    # so every array after it is misread.  load_cache builds no model until
    # the whole file has parsed, so the file is refused as corrupt, with no
    # numpy warning from arithmetic on the misread values.
    kernel = ef.make_builtin_kernel(name)
    cache = ef.build_operator_cache(kernel, CONFIG, 1e-3, resolution=6, x_budget=256)
    path = tmp_path / "ops.bin"
    ef.save_cache(cache, path)
    body = path.read_bytes()[:-32]
    first_at = _FIRST_COUNT_AT + len(name) - len(KERNEL.name)
    d = cache.eims[2].radiating.d
    assert struct.unpack_from("<Q", body, first_at) == (d,)
    for count in (d - 1, d + 1):
        _resigned(path, body[:first_at] + struct.pack("<Q", count) + body[first_at + 8:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ef.CacheCorruptError):
                ef.load_cache(path)


def _drift_kernel(dimension):
    """A Gaussian centred off the origin in any dimension: K(x, y) != K(y, x)."""
    bias = np.array([0.35, -0.2, 0.1][:dimension])

    def profile(disp):
        d = np.asarray(disp, dtype=float) + bias
        return np.exp(-np.sum(d * d, axis=-1))

    return ef.Kernel("drift-gauss", profile, is_symmetric=False)


@pytest.mark.parametrize("dimension", [2, 3])
@pytest.mark.parametrize("name", ["gaussian", "drift-gauss", "laplace"])
def test_loaded_arrays_take_the_shapes_their_counts_give(name, dimension, tmp_path):
    # No shape is stored: a symmetric, a non-symmetric and a scaling
    # kernel's operators come back bitwise, each array in the shape its
    # level's term counts and transfer ranks give, so a loaded operator
    # always fits its models.
    kernel = (_drift_kernel(dimension) if name == "drift-gauss"
              else ef.make_builtin_kernel(name))
    config = ef.TreeConfig(dimension=dimension, side=1.0, depth={2: 4, 3: 3}[dimension])
    built = ef.build_operator_cache(kernel, config, 1e-3, resolution=6, x_budget=256)
    loaded = _assert_round_trip_bitwise(built, tmp_path)
    assert loaded.levels == list(range(2, config.depth + 1))
    # a scaling kernel's M2M/L2L sit between the two deepest levels only
    assert sorted(loaded.m2m) == ([config.depth - 1] if kernel.scaling is not None
                                  else list(range(2, config.depth)))
    d = {k: (pair.radiating.d, pair.receiving.d) for k, pair in loaded.eims.items()}
    for level, pair in loaded.eims.items():
        for model, terms in zip((pair.radiating, pair.receiving), d[level]):
            shapes = [(terms, dimension)] * 2 + [(terms, terms)] * 2 + [(terms + 1,)]
            assert [a.shape for a in (model.x_points, model.y_points, model.basis_matrix,
                                      model.pivot_matrix, model.residual_history)] == shapes
    for k in loaded.m2m:
        assert len(loaded.m2m[k].matrices) == len(loaded.l2l[k].matrices) == 2**dimension
        assert all(m.shape == (d[k][0], d[k + 1][0]) for m in loaded.m2m[k].matrices)
        assert all(m.shape == (d[k + 1][1], d[k][1]) for m in loaded.l2l[k].matrices)
    n = len(transfer_offsets(dimension))
    for k, ops in loaded.m2l.items():
        rank, r_v = ops.rank, ops.row_basis.shape[1]
        assert ops.projector.shape == (d[k][1], rank)
        assert ops.row_basis.shape == (d[k][0], r_v)
        assert (ops.row_basis is ops.projector) == kernel.is_symmetric
        assert ops.blocks.shape == (n // 2 if kernel.is_symmetric else n, rank, r_v)
    assert sorted(loaded.m2l) == ([config.depth] if kernel.scaling is not None
                                  else loaded.levels)


@pytest.mark.parametrize("name", ["gaussian", "drift-gauss", "laplace"])
def test_cache_refuses_altered_count_words_under_valid_checksum(name, tmp_path):
    # Each file below is re-signed, so only the counts' fit to the bytes can
    # refuse it: a count that asks for more values than remain leaves the
    # file truncated, one that asks for fewer leaves bytes behind.
    kernel = _drift_kernel(2) if name == "drift-gauss" else ef.make_builtin_kernel(name)
    cache = ef.build_operator_cache(kernel, CONFIG, 1e-3, resolution=6, x_budget=256)
    path = tmp_path / "ops.bin"
    ef.save_cache(cache, path)
    body = path.read_bytes()[:-32]
    ops = cache.m2l[CONFIG.depth]
    rank, r_v = ops.rank, ops.row_basis.shape[1]
    assert rank > 1 and r_v > 1
    # the deepest transfer record ends the body, behind the M2M/L2L from the
    # level above, and opens with its mirrored flag and counts
    assert body.endswith(_record(arrays=cache.m2m[2].matrices + cache.l2l[2].matrices)
                         + _transfer_record(ops))
    rank_at = len(body) - len(_transfer_record(ops)) + 8
    first_at = _FIRST_COUNT_AT + len(name) - len(KERNEL.name)
    assert struct.unpack_from("<Q", body, first_at) == (cache.eims[2].radiating.d,)

    def with_words(at, *values):
        return body[:at] + struct.pack(f"<{len(values)}Q", *values) + body[at + 8 * len(values):]

    # a mirrored record holds r_v = rank: both counts move together
    cases = [
        (with_words(rank_at, rank + 1, r_v + 1), "cache file is truncated"),
        (with_words(rank_at, rank - 1, r_v - 1), "trailing bytes in cache file"),
        (with_words(rank_at, 2**40, 2**40), "cache file is truncated"),
        (with_words(first_at, 2**40), "cache file is truncated"),
    ]
    if not kernel.is_symmetric:
        cases += [(with_words(rank_at, rank + 1), "cache file is truncated"),
                  (with_words(rank_at + 8, r_v - 1), "trailing bytes in cache file")]
    for mangled, reason in cases:
        _resigned(path, mangled)
        with pytest.raises(ef.CacheCorruptError, match=reason):
            ef.load_cache(path)


def test_cache_refuses_mirrored_records_it_cannot_hold(small_cache, drift_cache,
                                                       tmp_path):
    # Each file below is re-signed, so only the record's own rules can
    # refuse it: a mirrored flag above 1, a mirrored record on a level that
    # stores its receiving model, and a mirrored record whose r_v is not its
    # rank.  save_cache writes no mirrored record beside a stored
    # receiving model.
    path = tmp_path / "ops.bin"
    bodies = {}
    for cache in (small_cache, drift_cache):
        ef.save_cache(cache, path)
        body = path.read_bytes()[:-32]
        ops = cache.m2l[CONFIG.depth]
        assert body.endswith(_transfer_record(ops))
        bodies[cache.key.kernel_id] = body, len(body) - len(_transfer_record(ops)), ops
    body, flag_at, ops = bodies[KERNEL.name]
    assert ops.row_basis is ops.projector
    drift_body, drift_flag_at, drift_ops = bodies[drift_cache.key.kernel_id]
    assert drift_ops.row_basis is not drift_ops.projector

    def with_word(data, at, value):
        return data[:at] + struct.pack("<Q", value) + data[at + 8:]

    cases = [
        (with_word(body, flag_at, 2), "bad mirrored flag 2"),
        (with_word(drift_body, drift_flag_at, 1),
         "level 3: mirrored transfer record with a stored receiving model"),
        (with_word(body, flag_at + 16, ops.rank - 1),
         f"level 3: mirrored transfer record with r_v {ops.rank - 1} != rank {ops.rank}"),
    ]
    for mangled, reason in cases:
        _resigned(path, mangled)
        with pytest.raises(ef.CacheCorruptError, match=reason):
            ef.load_cache(path)
    rad = small_cache.eims[3].radiating
    twin = rad.transposed()
    given = LevelEims(3, rad, EimModel(twin.x_points, twin.y_points, twin.basis_matrix,
                                       twin.pivot_matrix, twin.residual_history,
                                       twin.degenerate))
    ef.save_cache(small_cache, path)
    with pytest.raises(ValueError, match="level 3: mirrored transfer operators beside"):
        ef.save_cache(dataclasses.replace(
            small_cache, eims={**small_cache.eims, 3: given}), path)
    assert ef.load_cache(path).key == small_cache.key
