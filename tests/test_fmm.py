"""Summation engine against quadratic-cost oracles on small 2D clouds."""

import dataclasses
import os
import re
import sys
import threading
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy.linalg

import eimfmm as ef
from eimfmm.eim import EimModel
from eimfmm.fmm import load_or_build_cache
from eimfmm.operators import M2lOperators, OperatorCache, make_cache_key
from eimfmm.tree import child_offsets

KERNEL = ef.make_builtin_kernel("gaussian")
CONFIG = ef.TreeConfig(dimension=2, side=1.0, depth=3)
TOL = 1e-5


@pytest.fixture(scope="module")
def cache():
    return ef.build_operator_cache(KERNEL, CONFIG, TOL, resolution=8, x_budget=1024)


DRIFT_CONFIG = ef.TreeConfig(dimension=3, side=1.0, depth=3)
DRIFT_TOL = 1e-4


def _drift_profile(disp):
    """exp(-r) (1 + 0.5 x_0): K(x, y) != K(y, x) through the first
    displacement component."""
    r = np.sqrt(np.einsum("...k,...k->...", disp, disp))
    return np.exp(-r) * (1.0 + 0.5 * disp[..., 0])


DRIFT_3D = ef.Kernel("drift-exp-3d", _drift_profile, is_symmetric=False)


@pytest.fixture(scope="module")
def drift_cache():
    return ef.build_operator_cache(DRIFT_3D, DRIFT_CONFIG, DRIFT_TOL)


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(99)
    points = rng.uniform(-0.5, 0.5, size=(800, 2))
    weights = rng.uniform(-1.0, 1.0, size=800)
    return points, weights


def _fields(plan, weights):
    """One far pass of plan on weights that records every level: its far
    field, and its four per-level dicts by name."""
    dicts = {name: {} for name in ("source_moments", "transfer_sums",
                                   "local_moments", "local_coeffs")}
    far = plan._far_pass(plan._sorted_weights(weights),
                         dict.fromkeys(ef.fmm.FAR_PHASES, 0.0), list(dicts.values()))
    return far, types.SimpleNamespace(**dicts)


def _naive_sum(kernel, targets, sources, weights):
    """Full-matrix oracle with coincident pairs zeroed."""
    disp = targets[:, None, :] - sources[None, :, :]
    values = kernel.from_displacements(disp)
    dist2 = np.sum(disp * disp, axis=-1)
    return np.where(dist2 == 0.0, 0.0, values) @ weights


def _leaf_indices(points, config):
    width = 2.0 * config.half_width(config.depth)
    n = 2**config.depth
    shifted = points - config.center_array()
    return np.clip(((shifted + 0.5 * config.side) // width).astype(np.int64), 0, n - 1)


def test_particle_system_validation():
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError):
        ef.ParticleSystem(targets=pts, sources=pts, potentials=np.ones(3))
    with pytest.raises(ValueError, match="potential 2 is not finite"):
        ef.ParticleSystem(targets=pts, sources=pts,
                          potentials=[1.0, 0.0, np.inf, 1.0])
    with pytest.raises(ValueError, match="source 0 is not finite"):
        ef.ParticleSystem(targets=pts[:1], sources=[[np.nan, 0.0]],
                          potentials=[1.0])
    system = ef.ParticleSystem(
        targets=[[0.0, 0.0]], sources=[[0.1, 0.2]], potentials=[2.0]
    )
    assert system.sources.shape == (1, 2)
    assert system.potentials.dtype == float


@pytest.mark.parametrize("targets, sources", [
    (np.zeros((4, 3)), np.zeros((5, 2))),
    (np.zeros((4, 1, 3)), np.zeros((5, 3))),
    (np.zeros((4, 3)), np.zeros((5, 1, 3))),
])
def test_particle_system_rejects_mismatched_shapes(targets, sources):
    # refused where the arrays enter, naming both shapes, not later inside
    # the broadcast of direct_sum or the tree build
    shapes = f"targets {targets.shape} and sources {sources.shape}"
    with pytest.raises(ValueError, match=re.escape(shapes)):
        ef.ParticleSystem(targets, sources, np.ones(5))


def test_direct_sum_matches_naive(cloud):
    points, weights = cloud
    targets = points[:300]
    sources = points[300:]
    system = ef.ParticleSystem(targets, sources, weights[300:])
    got = ef.direct_sum(KERNEL, system)
    expect = _naive_sum(KERNEL, targets, sources, weights[300:])
    scale = np.abs(expect).max()
    assert np.abs(got - expect).max() <= 1e-14 * scale


def test_direct_sum_masks_coincident_pairs():
    # row 2 duplicates row 0, and every point meets itself
    pts = np.array([[0.1, 0.2], [-0.3, 0.4], [0.1, 0.2]])
    w = np.array([1.0, 2.0, 4.0])
    laplace = ef.make_builtin_kernel("laplace")
    system = ef.ParticleSystem(pts, pts, w)
    got = ef.direct_sum(laplace, system)
    assert np.isfinite(got).all()
    expect = _naive_sum(laplace, pts, pts, w)
    assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()


def _restricted_sum(kernel, targets, sources, weights):
    """Dense near-field oracle: coincident pairs zeroed, and only sources in
    a neighbor leaf (own leaf included) of the target's."""
    tleaf = _leaf_indices(targets, CONFIG)
    sleaf = _leaf_indices(sources, CONFIG)
    near_mask = np.abs(tleaf[:, None, :] - sleaf[None, :, :]).max(axis=2) <= 1
    disp = targets[:, None, :] - sources[None, :, :]
    values = kernel.from_displacements(disp)
    dist2 = np.sum(disp * disp, axis=-1)
    values = np.where(dist2 == 0.0, 0.0, values)
    return (values * near_mask) @ weights, (values * ~near_mask) @ weights


def test_near_field_matches_restricted_direct(cloud, cache):
    points, weights = cloud
    got = ef.SummationPlan(KERNEL, points, points, CONFIG, cache).apply_near(weights)

    expect, far_expect = _restricted_sum(KERNEL, points, points, weights)
    scale = np.abs(expect).max()
    assert np.abs(got - expect).max() <= 1e-13 * scale

    # the near mask's complement is exactly the far set: partition identity
    total = _naive_sum(KERNEL, points, points, weights)
    assert np.abs(got + far_expect - total).max() <= 1e-13 * np.abs(total).max()


@pytest.fixture(scope="module")
def coarse_caches(drift_kernel):
    """Cheap caches under CONFIG for the other 2D kernels: the near field
    reads no operator, so any cache that matches the kernel will do."""
    return {kernel.name: ef.build_operator_cache(kernel, CONFIG, 1e-2)
            for kernel in (drift_kernel, ef.make_builtin_kernel("laplace"))}


@pytest.mark.parametrize("case", ["drift-shared", "distinct-clouds",
                                  "laplace-duplicates-shared",
                                  "laplace-duplicates-two-trees"])
def test_near_field_cases_match_restricted_direct(cloud, drift_kernel, cache,
                                                  coarse_caches, case):
    points, weights = cloud
    kernel = KERNEL
    targets = sources = points[:400]
    sigma = weights[:400]
    source_tree = None
    if case == "drift-shared":
        # K(x, y) != K(y, x): keeping half of the mirrored pairs is wrong here
        kernel = drift_kernel
    elif case == "distinct-clouds":
        sources, sigma = points[400:], weights[400:]
    else:
        kernel = ef.make_builtin_kernel("laplace")
        targets = sources = np.concatenate([points[:300], points[:100]])
        if case == "laplace-duplicates-two-trees":
            source_tree = ef.build_tree(sources, CONFIG)
    ops = coarse_caches.get(kernel.name, cache)
    plan = ef.SummationPlan(kernel, targets, sources, CONFIG, ops,
                            source_tree=source_tree)
    got = plan.apply_near(sigma)
    expect, _ = _restricted_sum(kernel, targets, sources, sigma)
    assert np.isfinite(got).all()
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


def test_shared_tree_stores_half_the_near_pairs(cube_cloud, cache_store):
    points, weights = cube_cloud
    points, weights = points[:2000], weights[:2000]
    config = ef.TreeConfig(dimension=3, side=1.0, depth=3)
    cache = cache_store("gaussian", 3, 1e-4)
    kernel = ef.make_builtin_kernel("gaussian")
    shared = ef.SummationPlan(kernel, points, points.copy(), config, cache)
    full = ef.SummationPlan(kernel, points, points, config, cache,
                            source_tree=ef.build_tree(points, config))
    assert shared.src_tree is shared.tgt_tree
    assert full.src_tree is not full.tgt_tree
    near_shared = shared.apply_near(weights)
    near_full = full.apply_near(weights)
    assert np.abs(near_shared - near_full).max() <= 1e-13 * np.abs(near_full).max()
    assert shared._near.nnz <= 0.55 * full._near.nnz


def _assert_same_transfer_groups(shared, full):
    """The per-offset groups are built one way on either tree: every
    offset, equal array for array, at 8 B per pair (two int32 positions)."""
    assert shared._half and not full._half
    n = len(ef.transfer_offsets(full.config.dimension))
    assert shared._transfer_groups.keys() == full._transfer_groups.keys()
    for level, groups in full._transfer_groups.items():
        assert sorted(groups) == sorted(shared._transfer_groups[level]) == list(range(n))
        for t, group in groups.items():
            for got, expect in zip(shared._transfer_groups[level][t], group):
                assert got.dtype == expect.dtype == np.int32
                assert np.array_equal(got, expect)
    assert any(tpos.size for groups in full._transfer_groups.values()
               for tpos, _ in groups.values())


def _parent_pair_bytes(plan):
    return sum(rows.nbytes for blocks in plan._siblings.values()
               for _, tpar, spar in blocks for rows in (tpar, spar))


def test_shared_tree_stores_half_the_transfer_pairs(cube_cloud, cache_store,
                                                    drift_cache):
    points, weights = cube_cloud
    points, weights = points[:3000], weights[:3000]
    config = ef.TreeConfig(dimension=3, side=1.0, depth=4)
    cache = cache_store("gaussian", 4, 1e-4)
    kernel = ef.make_builtin_kernel("gaussian")
    shared = ef.SummationPlan(kernel, points, points, config, cache)
    full = ef.SummationPlan(kernel, points, points, config, cache,
                            source_tree=ef.build_tree(points, config))
    assert shared.src_tree is shared.tgt_tree
    assert full.src_tree is not full.tgt_tree
    far_shared, fields_shared = _fields(shared, weights)
    far_full, fields_full = _fields(full, weights)
    assert np.abs(far_shared - far_full).max() <= 1e-13 * np.abs(far_full).max()
    for level, sums in fields_full.transfer_sums.items():
        got = fields_shared.transfer_sums[level]
        assert np.abs(got - sums).max() <= 1e-13 * np.abs(sums).max()
    _assert_same_transfer_groups(shared, full)
    # the parent pairs of the sibling blocks are stored half: 13 of the 26
    # parent offsets at level 2, where all 8 level-1 boxes are complete
    parent_pairs = sum(tpar.size for blocks in full._siblings.values()
                       for _, tpar, _ in blocks)
    assert 2 * _parent_pair_bytes(shared) == _parent_pair_bytes(full) == 8 * parent_pairs
    assert len(shared._siblings[2]) == 13 and len(full._siblings[2]) == 26

    # a non-symmetric kernel on a shared tree keeps every offset
    drift = ef.SummationPlan(DRIFT_3D, points, points, DRIFT_CONFIG, drift_cache)
    assert drift.src_tree is drift.tgt_tree
    n = len(ef.transfer_offsets(3))
    for groups in drift._transfer_groups.values():
        assert sorted(groups) == list(range(n))
    assert len(drift._siblings[2]) == 26


@pytest.mark.parametrize("dim", [2, 1])
def test_shared_tree_builds_the_transfer_groups_of_a_source_tree(dim, cache):
    # few points, so that some parents miss a child and their pairs stay
    # in the per-offset groups
    points = np.random.default_rng(9).uniform(-0.5, 0.5, size=(60 * dim, dim))
    if dim == 2:
        config, ops = CONFIG, cache
    else:
        config = ef.TreeConfig(dimension=1, side=1.0, depth=5)
        ops = ef.build_operator_cache(KERNEL, config, 1e-6)
    shared = ef.SummationPlan(KERNEL, points, points, config, ops)
    full = ef.SummationPlan(KERNEL, points, points, config, ops,
                            source_tree=ef.build_tree(points, config))
    _assert_same_transfer_groups(shared, full)


def test_multilevel_matches_direct(cloud, cache):
    points, weights = cloud
    system = ef.ParticleSystem(points, points, weights)
    t0 = time.perf_counter()
    result = ef.evaluate(KERNEL, system, CONFIG, TOL, resolution=8, x_budget=1024)
    wall = time.perf_counter() - t0
    expect = ef.direct_sum(KERNEL, system)
    rel = np.linalg.norm(result.total - expect) / np.linalg.norm(expect)
    assert rel <= 100.0 * TOL
    assert np.array_equal(result.total, result.far_field + result.near_field)
    # the plan is timed as one phase, and the phases never overlap
    assert set(result.timings) == set(ef.fmm.ALL_PHASES)
    assert result.timings["plan"] > 0
    assert sum(result.timings.values()) + result.cache_build_seconds <= wall


def test_monolevel_equals_multilevel(cloud, cache, monolevel_far_field):
    points, weights = cloud
    tree = ef.build_tree(points, CONFIG)
    mono = monolevel_far_field(KERNEL, tree, tree, weights, cache.eims[3])
    plan = ef.SummationPlan(KERNEL, points, points, CONFIG, cache, target_tree=tree)
    multi, _, _ = plan.apply_far(weights)
    scale = np.abs(multi).max()
    assert np.abs(mono - multi).max() <= 100.0 * TOL * scale


def test_nonsymmetric_kernel_oracle_accuracy(cube_cloud, drift_cache):
    # the two directional models pick different term counts, which the
    # two-sided transfer compression has to absorb
    assert any(pair.radiating.d != pair.receiving.d
               for pair in drift_cache.eims.values())
    points, weights = cube_cloud
    system = ef.ParticleSystem(points, points, weights)
    plan = ef.SummationPlan(DRIFT_3D, points, points, DRIFT_CONFIG, drift_cache)
    far, _, _ = plan.apply_far(weights)
    total = far + plan.apply_near(weights)
    expect = ef.direct_sum(DRIFT_3D, system)
    rel = np.linalg.norm(total - expect) / np.linalg.norm(expect)
    assert rel <= 100.0 * DRIFT_TOL


def test_nonsymmetric_monolevel_equals_multilevel(cube_cloud, drift_cache,
                                                  monolevel_far_field):
    points, weights = cube_cloud[0][:2000], cube_cloud[1][:2000]
    tree = ef.build_tree(points, DRIFT_CONFIG)
    mono = monolevel_far_field(DRIFT_3D, tree, tree, weights, drift_cache.eims[3])
    plan = ef.SummationPlan(DRIFT_3D, points, points, DRIFT_CONFIG, drift_cache,
                            target_tree=tree)
    multi, _, _ = plan.apply_far(weights)
    gap = np.abs(mono - multi).max() / np.abs(multi).max()
    assert gap <= 100.0 * DRIFT_TOL


def test_nonsymmetric_2d_evaluate_matches_direct(drift_kernel):
    rng = np.random.default_rng(3)
    points = rng.uniform(-0.5, 0.5, size=(4000, 2))
    system = ef.ParticleSystem(points, points, rng.uniform(-1.0, 1.0, 4000))
    config = ef.TreeConfig(dimension=2, side=1.0, depth=4)
    result = ef.evaluate(drift_kernel, system, config, 1e-6)
    expect = ef.direct_sum(drift_kernel, system)
    rel = np.linalg.norm(result.total - expect) / np.linalg.norm(expect)
    assert rel <= 100.0 * 1e-6


def test_monolevel_needs_leaf_models(cloud, cache, monolevel_far_field):
    points, weights = cloud
    tree = ef.build_tree(points, CONFIG)
    with pytest.raises(ValueError, match="leaf-level models"):
        monolevel_far_field(KERNEL, tree, tree, weights, cache.eims[2])


def test_plan_reuse_is_deterministic(cloud, cache):
    points, weights = cloud
    other = np.cos(np.arange(800))
    plan = ef.SummationPlan(KERNEL, points, points, CONFIG, cache)
    far_a, _, _ = plan.apply_far(weights)
    far_b, _, _ = plan.apply_far(other)
    near_b = plan.apply_near(other)

    fresh = ef.SummationPlan(KERNEL, points, points, CONFIG, cache)
    far_fresh, _, _ = fresh.apply_far(other)
    assert np.array_equal(far_b, far_fresh)
    assert np.array_equal(near_b, fresh.apply_near(other))
    # and the first sweep was not disturbed by the second
    again, _, _ = fresh.apply_far(weights)
    assert np.array_equal(far_a, again)


def _arrays(value, path="plan"):
    """Every array reachable from value through attributes, dicts, lists
    and tuples, with its path."""
    if isinstance(value, np.ndarray):
        yield path, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _arrays(item, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _arrays(item, f"{path}[{i}]")
    elif hasattr(value, "__dict__") and not callable(value):
        for key, item in vars(value).items():
            yield from _arrays(item, f"{path}.{key}")


def test_plan_does_not_change_after_construction(cloud, cache):
    points, weights = cloud
    plan = ef.SummationPlan(KERNEL, points, points, CONFIG, cache)
    attributes = dict(vars(plan))
    arrays = {path: (array, array.copy()) for path, array in _arrays(plan)}
    assert "plan._near.data" in arrays
    plan.apply_far(weights)
    plan.apply_near(weights)
    assert vars(plan).keys() == attributes.keys()
    assert all(vars(plan)[name] is value for name, value in attributes.items())
    after = dict(_arrays(plan))
    assert after.keys() == arrays.keys()
    for path, (array, copy) in arrays.items():
        assert after[path] is array, path
        assert array.dtype == copy.dtype and array.tobytes() == copy.tobytes(), path


def test_far_and_near_are_linear(cloud, cache):
    points, weights = cloud
    rng = np.random.default_rng(3)
    other = rng.uniform(-1.0, 1.0, 800)
    plan = ef.SummationPlan(KERNEL, points, points, CONFIG, cache)
    far_w, _, _ = plan.apply_far(weights)
    far_o, _, _ = plan.apply_far(other)
    far_mix, _, _ = plan.apply_far(2.0 * weights - 3.0 * other)
    scale = np.abs(far_mix).max()
    assert np.abs(far_mix - (2.0 * far_w - 3.0 * far_o)).max() <= 1e-13 * scale
    near_mix = plan.apply_near(2.0 * weights - 3.0 * other)
    combo = 2.0 * plan.apply_near(weights) - 3.0 * plan.apply_near(other)
    assert np.abs(near_mix - combo).max() <= 1e-12 * np.abs(near_mix).max()


def test_translation_is_bitwise_exact(cloud, cache):
    points, weights = cloud
    shift = np.array([0.25, -0.125])  # dyadic, so recentering stays exact
    moved = ef.TreeConfig(dimension=2, side=1.0, depth=3, center=tuple(shift))
    base_plan = ef.SummationPlan(KERNEL, points, points, CONFIG, cache)
    moved_plan = ef.SummationPlan(KERNEL, points + shift, points + shift, moved, cache)
    base_far, _, _ = base_plan.apply_far(weights)
    moved_far, _, _ = moved_plan.apply_far(weights)
    assert np.array_equal(base_far, moved_far)
    assert np.array_equal(base_plan.apply_near(weights), moved_plan.apply_near(weights))


def test_separate_source_and_target_clouds(cache):
    rng = np.random.default_rng(17)
    targets = rng.uniform(-0.5, 0.5, size=(300, 2))
    sources = rng.uniform(-0.5, 0.5, size=(500, 2))
    weights = rng.uniform(-1.0, 1.0, size=500)
    system = ef.ParticleSystem(targets, sources, weights)
    result = ef.evaluate(KERNEL, system, CONFIG, TOL, resolution=8, x_budget=1024)
    expect = ef.direct_sum(KERNEL, system)
    rel = np.linalg.norm(result.total - expect) / np.linalg.norm(expect)
    assert rel <= 100.0 * TOL


def test_field_data_shapes(cloud, cache):
    points, weights = cloud
    plan = ef.SummationPlan(KERNEL, points, points, CONFIG, cache)
    tree = plan.tgt_tree
    _, fields = _fields(plan, weights)
    terms = cache.terms_per_level()
    for level in (2, 3):
        boxes = tree.level_flat[level].size
        assert fields.source_moments[level].shape == (boxes, terms[level])
        assert fields.transfer_sums[level].shape == (boxes, terms[level])
        assert fields.local_moments[level].shape == (boxes, terms[level])
    assert list(fields.local_coeffs) == [CONFIG.depth]


def _interaction_pairs(target_tree, source_tree, level):
    """(target position, offset index, source position) for every
    interaction-list entry of every target box that is an occupied source
    box."""
    src_pos = {flat: i for i, flat in enumerate(source_tree.level_flat[level].tolist())}
    grid = (2**level,) * target_tree.config.dimension
    expect = set()
    for i, multi in enumerate(target_tree.level_multi[level].tolist()):
        for box, t in ef.interaction_list(target_tree, ef.BoxId(level, tuple(multi))):
            flat = int(np.ravel_multi_index(box.multi_index, grid))
            if flat in src_pos:
                expect.add((i, t, src_pos[flat]))
    return expect


def _sibling_pairs(plan, level):
    """(target position, offset index, source position) for every child
    pair a sibling block applies at level: sub-block (c_t, c_s) of each
    parent pair, and on a half plan the same pairs back."""
    n = len(ef.transfer_offsets(plan.config.dimension))
    tgt_kids, src_kids = plan.tgt_tree.children[level], plan.src_tree.children[level]
    pairs = []
    for layout, tpar, spar in plan._siblings[level]:
        for (c_t, c_s), t in np.ndenumerate(layout):
            if t >= 0:
                tpos, spos = tgt_kids[tpar, c_t].tolist(), src_kids[spar, c_s].tolist()
                pairs += zip(tpos, [t] * len(tpos), spos)
                if plan._half:
                    pairs += zip(spos, [n - 1 - t] * len(spos), tpos)
    return pairs


@pytest.mark.parametrize("case", ["shared-3d-depth4", "clustered-sources-3d",
                                  "2d-distinct"])
def test_transfer_groups_match_interaction_list(case, cube_cloud, cache_store, cache):
    points = cube_cloud[0][:3000]
    if case == "2d-distinct":
        config, ops = CONFIG, cache
        rng = np.random.default_rng(5)
        targets = rng.uniform(-0.5, 0.5, size=(300, 2))
        sources = rng.uniform(-0.5, 0.5, size=(200, 2))
    else:
        config = ef.TreeConfig(dimension=3, side=1.0, depth=4)
        ops = cache_store("gaussian", 4, 1e-4)
        targets = sources = points
        if case == "clustered-sources-3d":
            # a tight blob and a sparse sprinkle: many empty source boxes
            rng = np.random.default_rng(6)
            blob = 0.3 + 0.05 * rng.standard_normal((400, 3))
            sources = np.vstack([np.clip(blob, -0.5, 0.5), points[:30]])
    plan = ef.SummationPlan(KERNEL, targets, sources, config, ops)
    shared = case == "shared-3d-depth4"
    assert (plan.src_tree is plan.tgt_tree) == shared == plan._half
    n = len(ef.transfer_offsets(config.dimension))
    parities = child_offsets(config.dimension)
    for level in range(2, config.depth + 1):
        groups = plan._transfer_groups[level]
        # every offset, on a shared tree too, and no pair sent back
        assert sorted(groups) == list(range(n))
        got = []
        for t, (tpos, spos) in groups.items():
            assert tpos.dtype == spos.dtype == np.int32
            # the transfer pass scatter-adds per offset: each target once
            assert np.all(np.diff(tpos) > 0)
            got += zip(tpos.tolist(), [t] * tpos.size, spos.tolist())
        # the sibling blocks join complete parents only: each children row
        # they read holds the 2^D children of one parent, in parity order
        blocks = plan._siblings[level]
        for tree, side in ((plan.tgt_tree, 1), (plan.src_tree, 2)):
            rows = np.concatenate([[]] + [block[side] for block in blocks]).astype(int)
            kids = tree.children[level][rows]
            assert kids.dtype == np.int32 and np.all(kids >= 0)
            multi = tree.level_multi[level][kids]
            assert np.array_equal(multi >> 1, np.repeat(multi[:, :1] >> 1, len(parities), 1))
            assert np.array_equal(multi & 1, np.broadcast_to(parities, multi.shape))
        for _, tpar, spar in blocks:
            assert tpar.dtype == spar.dtype == np.int32
            # a block scatters to the children of distinct parents
            assert np.unique(tpar).size == tpar.size and np.unique(spar).size == spar.size
        got += _sibling_pairs(plan, level)
        assert len(set(got)) == len(got)
        assert set(got) == _interaction_pairs(plan.tgt_tree, plan.src_tree, level)
        assert got


def _pairwise_transfer_sums(plan, fields):
    """Per level, (boxes, terms): C_t of every interaction pair applied to
    the source's projected moments, summed per target, then projected."""
    sums = {}
    for level in plan.cache.levels:
        ops = plan.cache.transfer(level)
        projected = fields.source_moments[level] @ plan._folded[level]
        by_offset = {}
        for i, t, j in _interaction_pairs(plan.tgt_tree, plan.src_tree, level):
            by_offset.setdefault(t, []).append((i, j))
        gathered = np.zeros((plan.tgt_tree.level_flat[level].size, ops.rank))
        for t, pairs in by_offset.items():
            i, j = np.array(pairs).T
            np.add.at(gathered, i, projected[j] @ ops.blocks[t].T)
        sums[level] = gathered @ ops.projector.T
    return sums


@pytest.mark.parametrize("case", ["shared-3d", "distinct-3d", "drift-3d", "2d", "1d"])
def test_transfer_sums_match_pairwise_reference(case, cube_cloud, cache_store, cache,
                                                drift_cache):
    points, weights = cube_cloud
    kernel, targets, sources = KERNEL, points[:1200], points[:1200]
    if case in ("shared-3d", "distinct-3d"):
        config = ef.TreeConfig(dimension=3, side=1.0, depth=4)
        ops = cache_store("gaussian", 4, 1e-4)
        if case == "distinct-3d":
            sources = points[1200:2000]
    elif case == "drift-3d":
        kernel, config, ops = DRIFT_3D, DRIFT_CONFIG, drift_cache
        targets = sources = points[:600]
    elif case == "2d":
        config, ops = CONFIG, cache
        targets = sources = np.random.default_rng(7).uniform(-0.5, 0.5, size=(120, 2))
    else:
        config = ef.TreeConfig(dimension=1, side=1.0, depth=5)
        ops = ef.build_operator_cache(KERNEL, config, 1e-6)
        targets = sources = np.random.default_rng(8).uniform(-0.5, 0.5, size=(60, 1))
    plan = ef.SummationPlan(kernel, targets, sources, config, ops)
    assert plan._half == (case in ("shared-3d", "2d", "1d"))
    # some level holds complete and incomplete parents side by side, so
    # both the sibling blocks and the per-offset groups carry pairs there
    assert any(plan._siblings[level]
               and any(tpos.size for tpos, _ in plan._transfer_groups[level].values())
               for level in plan._siblings)
    _, fields = _fields(plan, weights[: sources.shape[0]])
    for level, expect in _pairwise_transfer_sums(plan, fields).items():
        got = fields.transfer_sums[level]
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


def test_vertical_passes_match_indexed_add_reference(cloud, cache):
    # M2M and L2L add each parity's rows at distinct positions; np.add.at
    # per parity, in the same order, rounds every sum the same way
    points, weights = cloud
    plan = ef.SummationPlan(KERNEL, points[:500], points[500:], CONFIG, cache)
    _, fields = _fields(plan, weights[500:])
    for level in range(2, CONFIG.depth):
        up = np.zeros_like(fields.source_moments[level])
        down = fields.transfer_sums[level + 1].copy()
        for parity in range(2**CONFIG.dimension):
            kids = plan.src_tree.children[level + 1][:, parity]
            have = np.flatnonzero(kids >= 0)
            np.add.at(up, have, fields.source_moments[level + 1][kids[have]]
                      @ cache.m2m[level].matrices[parity].T)
            kids = plan.tgt_tree.children[level + 1][:, parity]
            have = np.flatnonzero(kids >= 0)
            np.add.at(down, kids[have], fields.local_moments[level][have]
                      @ cache.l2l[level].matrices[parity].T)
        assert np.array_equal(fields.source_moments[level], up)
        assert np.array_equal(fields.local_moments[level + 1], down)


def test_far_pass_independent_of_chunk_size(cache, monkeypatch):
    # clustered, so that small leaves share chunks and big ones exceed one
    rng = np.random.default_rng(8)
    blob = np.clip(0.2 + 0.08 * rng.standard_normal((500, 2)), -0.5, 0.5)
    points = np.vstack([blob, rng.uniform(-0.5, 0.5, size=(100, 2))])
    weights = rng.uniform(-1.0, 1.0, size=600)
    plan = ef.SummationPlan(KERNEL, points, points, CONFIG, cache)
    far, fields = _fields(plan, weights)

    # dense per-point references for the two leaf passes
    tree, depth = plan.tgt_tree, CONFIG.depth
    leaf_of = np.empty(tree.n_points, dtype=np.int64)
    leaf_of[tree.order] = np.repeat(np.arange(tree.leaf_counts.size), tree.leaf_counts)
    leaf_multi = _leaf_indices(points, CONFIG)
    assert np.array_equal(tree.level_multi[depth][leaf_of], leaf_multi)
    half = CONFIG.half_width(depth)
    local = points - ((2 * leaf_multi + 1) * half - 0.5 * CONFIG.side)
    eims = cache.eims[depth]
    moments = np.zeros((tree.leaf_counts.size, eims.radiating.d))
    np.add.at(moments, leaf_of,
              KERNEL.pairwise(eims.radiating.x_points, local).T * weights[:, None])
    coeffs = fields.local_coeffs[depth][leaf_of]
    values = np.einsum("ij,ij->i", KERNEL.pairwise(local, eims.receiving.y_points), coeffs)
    scale = np.abs(moments).max()
    assert np.abs(fields.source_moments[depth] - moments).max() <= 1e-13 * scale
    assert np.abs(far - values).max() <= 1e-13 * np.abs(values).max()

    # five points per chunk against the leaf models' nodes
    terms = eims.radiating.d
    assert eims.receiving.d == terms
    monkeypatch.setattr(ef.kernels, "_EVAL_CHUNK", 5 * terms)
    chunks = list(ef.fmm._leaf_chunks(tree, terms))
    counts = tree.leaf_counts
    assert any(l1 - l0 > 1 for l0, l1, _, _ in chunks)
    assert any(l1 - l0 == 1 and counts[l0] > 5 for l0, l1, _, _ in chunks)
    assert all(p1 - p0 <= 5 or l1 - l0 == 1 for l0, l1, p0, p1 in chunks)
    small_far, small_fields = _fields(plan, weights)
    assert np.abs(small_far - far).max() <= 1e-13 * np.abs(far).max()
    for name in ("source_moments", "transfer_sums", "local_moments",
                 "local_coeffs"):
        big, small = getattr(fields, name), getattr(small_fields, name)
        assert list(small) == list(big)
        for level in big:
            assert small[level].shape == big[level].shape
            scale = np.abs(big[level]).max()
            assert np.abs(small[level] - big[level]).max() <= 1e-13 * scale


def test_recording_far_pass_matches_the_sweep(cloud, cache):
    # the sweep keeps no per-level vectors; a pass that records them sums
    # the same far field, and its leaf coefficients give that field
    points, weights = cloud
    plan = ef.SummationPlan(KERNEL, points, points, CONFIG, cache)
    unread, none, _ = plan.apply_far(weights)
    assert none is None
    far, fields = _fields(plan, weights)
    assert far.tobytes() == unread.tobytes()
    depth = CONFIG.depth
    recv = cache.eims[depth].receiving
    assert ef.fmm._leaf_values(KERNEL, plan.tgt_tree, recv.y_points,
                               fields.local_coeffs[depth]).tobytes() == far.tobytes()


def test_far_pass_holds_its_levels_only_until_read(cube_cloud, cache_store):
    # Laplace keeps 92 terms at every level at 1e-4, so each level's array
    # is as wide as the deepest.  A pass that kept moments, transfer sums
    # and locals of every level (and the leaf coefficients) peaked at 9.5
    # deepest arrays here; holding each only until the step that reads it,
    # with the leaf solve in place, peaks under 3.
    points, weights = cube_cloud[0][:3000], cube_cloud[1][:3000]
    kernel = ef.make_builtin_kernel("laplace")
    config = ef.TreeConfig(dimension=3, side=1.0, depth=5)
    cache = cache_store("laplace", 5, 1e-4)
    plan = ef.SummationPlan(kernel, points, points, config, cache)
    depth = config.depth
    deepest = 8 * plan.tgt_tree.level_flat[depth].size * cache.eims[depth].receiving.d
    plan.apply_far(weights)
    tracemalloc.start()
    try:
        far, _, _ = plan.apply_far(weights)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * deepest
    assert held <= far.nbytes + 8 * points.shape[0] + 2**16


@pytest.mark.parametrize("name", ["gaussian", "laplace"])
def test_built_and_loaded_caches_sum_bitwise_alike(name, cube_cloud, cache_store,
                                                   tmp_path):
    # every operator array of a built cache is laid out as load_cache
    # returns it, so both run the same BLAS paths
    points, weights = cube_cloud
    kernel = ef.make_builtin_kernel(name)
    config = ef.TreeConfig(dimension=3, side=1.0, depth=4)
    built = cache_store(name, 4, 1e-4)
    ef.save_cache(built, tmp_path / "ops.bin")
    loaded = ef.load_cache(tmp_path / "ops.bin")
    for level, ops in built.m2m.items():
        for mat in ops.matrices + built.l2l[level].matrices:
            assert mat.flags.c_contiguous
    far_built, _, _ = ef.SummationPlan(kernel, points, points, config,
                                       built).apply_far(weights)
    far_loaded, _, _ = ef.SummationPlan(kernel, points, points, config,
                                        loaded).apply_far(weights)
    assert far_built.tobytes() == far_loaded.tobytes()


@pytest.mark.parametrize("case", ["gaussian-2d", "laplace-3d", "drift-3d"])
def test_folded_projection_matches_solve_then_project(case, cloud, cache,
                                                      cube_cloud, cache_store,
                                                      drift_cache):
    # the plan's folded matrices stand for the radiating solve followed by
    # the transfer projection, level by level.  The products cancel heavily
    # (the pivot factors' condition numbers reach 2e5), so the rounding is
    # measured against the magnitudes summed, |moments| @ |folded|.
    if case == "gaussian-2d":
        points, weights = cloud
        kernel, config, ops = KERNEL, CONFIG, cache
    elif case == "laplace-3d":
        points, weights = cube_cloud[0][:3000], cube_cloud[1][:3000]
        kernel = ef.make_builtin_kernel("laplace")
        config = ef.TreeConfig(dimension=3, side=1.0, depth=4)
        ops = cache_store("laplace", 4, 1e-4)
    else:
        points, weights = cube_cloud[0][:3000], cube_cloud[1][:3000]
        kernel, config, ops = DRIFT_3D, DRIFT_CONFIG, drift_cache
    plan = ef.SummationPlan(kernel, points, points, config, ops)
    _, fields = _fields(plan, weights)
    assert sorted(fields.source_moments) == list(range(2, config.depth + 1))
    for level, moments in fields.source_moments.items():
        # the solve of the level the transfer operators were built at
        trans = ops.transfer(level)
        coeffs = ops.eims[trans.level].radiating.coefficients(moments.T)
        expect = coeffs.T @ trans.row_basis
        folded = plan._folded[level]
        got = moments @ folded
        scale = np.abs(moments) @ np.abs(folded)
        assert np.all(np.abs(got - expect) <= 1e-13 * scale)


def test_scaling_kernel_shared_transfer_matches_rescaled_copies(cube_cloud):
    # Every level of laplace runs the deepest level's transfer operators,
    # folded with the deepest radiating model.  Each coarser level's own
    # blocks, rescaled by the exact gain a^p and folded with that level's
    # rescaled models, give the same products: powers of two cancel.
    points, weights = cube_cloud[0][:3000], cube_cloud[1][:3000]
    kernel = ef.make_builtin_kernel("laplace")
    config = ef.TreeConfig(dimension=3, side=1.0, depth=4)
    shared = ef.build_operator_cache(kernel, config, 1e-4, resolution=5,
                                     x_budget=512)
    deepest = shared.m2l[config.depth]
    copies = {}
    for level in shared.levels:
        gain = 2.0 ** ((config.depth - level) * kernel.scaling)
        copies[level] = M2lOperators(level, deepest.projector, deepest.row_basis,
                                     deepest.blocks * gain)
    rescaled = OperatorCache(shared.key, shared.eims, shared.m2m, shared.l2l, copies)
    results = [_fields(ef.SummationPlan(kernel, points, points, config, c), weights)
               for c in (shared, rescaled)]
    (far, fields), (ref_far, ref_fields) = results
    assert far.tobytes() == ref_far.tobytes()
    assert sorted(fields.transfer_sums) == [2, 3, 4]
    for level, sums in fields.transfer_sums.items():
        assert sums.tobytes() == ref_fields.transfer_sums[level].tobytes()


def test_warm_far_pass_solves_only_for_the_leaf_receiving_model(cloud, cache,
                                                                monkeypatch):
    points, weights = cloud
    plan = ef.SummationPlan(KERNEL, points, points, CONFIG, cache)
    calls = []
    for name in ("coefficients", "coefficients_t"):
        original = getattr(EimModel, name)

        def counted(model, rhs, name=name, original=original):
            calls.append((name, model))
            return original(model, rhs)

        monkeypatch.setattr(EimModel, name, counted)
    plan.apply_far(weights)
    assert len(calls) == 1
    name, model = calls[0]
    assert name == "coefficients"
    assert model is cache.eims[CONFIG.depth].receiving


def test_displacements_are_coordinate_planes():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((7, 1, 3))
    y = rng.standard_normal((1, 5, 3))
    disp = ef.kernels._displacements(x, y)
    assert disp.shape == (7, 5, 3)
    assert np.array_equal(disp, x - y)
    # a view of one contiguous (7, 5) plane per coordinate
    assert disp.base.shape == (3, 7, 5)
    assert disp.base.flags.c_contiguous


def test_near_matrix_independent_of_chunk_budget(cloud, monkeypatch):
    points, _ = cloud
    tree = ef.build_tree(points, CONFIG)
    # the shared tree stores half the pairs, the second tree all of them
    for source_tree in (tree, ef.build_tree(points, CONFIG)):
        half = source_tree is tree
        neighbors = ef.fmm._neighbor_tables(tree, source_tree, half)
        full = ef.fmm._near_matrix(KERNEL, tree, source_tree, half, neighbors[CONFIG.depth])
        assert np.diff(full.indptr).max() > 50
        # one row per chunk, then several rows per chunk
        for budget in (50, 1000):
            monkeypatch.setattr(ef.kernels, "_EVAL_CHUNK", budget)
            small = ef.fmm._near_matrix(KERNEL, tree, source_tree, half,
                                        neighbors[CONFIG.depth])
            assert np.array_equal(small.indptr, full.indptr)
            assert np.array_equal(small.indices, full.indices)
            assert np.all(np.abs(small.data - full.data)
                          <= np.spacing(np.abs(full.data)))
        monkeypatch.undo()


def test_near_field_refuses_more_pairs_than_memory(cache, monkeypatch):
    # 200k points in one depth-3 leaf: every pair is a near pair, 4e10 of
    # them stored at 16 B each.  The plan refuses the count before anything
    # of that size is allocated: an np.empty of more than n entries (the
    # plan's own tables are sized by the few boxes) fails the test.
    n = 200_000
    points = np.random.default_rng(21).uniform(0.01, 0.1, size=(n, 2))
    tree = ef.build_tree(points, CONFIG)
    assert tree.leaf_counts.tolist() == [n]
    empty = np.empty

    def small_empty(shape, *args, **kwargs):
        if np.prod(shape) > n:
            raise AssertionError(f"np.empty of shape {shape}")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", small_empty)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    message = (f"{n * n} pairs in {16 * n * n} bytes, more than the {memory} "
               "bytes of physical memory; a deeper tree stores fewer pairs")
    with pytest.raises(ValueError, match=re.escape(message)):
        ef.SummationPlan(KERNEL, points, points, CONFIG, cache, target_tree=tree)


def test_runs_same_for_int32_and_int64_ends():
    ends = np.cumsum(np.random.default_rng(5).integers(0, 40, size=500))
    for budget in (1, 37, 100, 10_000):
        wide = list(ef.fmm._runs(ends, budget))
        assert list(ef.fmm._runs(ends.astype(np.int32), budget)) == wide
        assert (wide[-1][1], wide[-1][3]) == (ends.size, ends[-1])


@pytest.mark.parametrize("shared", [True, False])
def test_near_field_keeps_the_coincident_rule(cache, shared):
    # Every point lies in the four leaves around the origin, all neighbors of
    # each other, so the near field is the whole sum, and it must zero the
    # pairs that direct_sum zeroes: those with r^2 < 1e-300, r^2 reduced over
    # the displacement planes.  The near build takes r^2 only where |d_0| <
    # 2e-150, and some pairs below sit at that edge.  Binning adds the half
    # side, so x_0 = +-1e-200 round into one leaf column.
    rng = np.random.default_rng(8)
    special = np.array([
        [0.03, -0.02], [0.03, -0.02],        # a duplicated point
        [1e-200, 0.05], [-1e-200, 0.05],     # r^2 = 4e-400 underflows: coincident
        [0.06, 1e-200], [0.06, -1e-200],     # d_0 = 0, tiny d_1: coincident
        [0.45e-150, 0.08], [-0.45e-150, 0.08],  # r^2 = 8.1e-301: coincident
        [0.75e-150, -0.07], [-0.75e-150, -0.07],  # r^2 = 2.25e-300: kept
        [1e-200, -0.09],                     # tiny d_0 to the others, other leaf
    ])
    points = np.concatenate([special, rng.uniform(-0.1, 0.1, size=(60, 2))])
    weights = rng.uniform(0.5, 1.5, size=points.shape[0])
    assert np.ptp(_leaf_indices(points, CONFIG), axis=0).tolist() == [1, 1]
    disp = ef.kernels._displacements(points[:, None, :], points[None, :, :])
    coincident = np.einsum("...k,...k->...", disp, disp) < 1e-300
    assert np.count_nonzero(coincident) == points.shape[0] + 2 * 4
    expect = np.where(coincident, 0.0, KERNEL.from_displacements(disp)) @ weights
    system = ef.ParticleSystem(points, points, weights)
    # a gaussian pair zeroed or kept wrongly moves its rows by about 0.5
    assert np.abs(ef.direct_sum(KERNEL, system) - expect).max() <= 1e-13 * expect.max()
    source_tree = None if shared else ef.build_tree(points, CONFIG)
    plan = ef.SummationPlan(KERNEL, points, points, CONFIG, cache,
                            source_tree=source_tree)
    assert plan._half == shared
    assert np.abs(plan.apply_near(weights) - expect).max() <= 1e-13 * expect.max()


@pytest.mark.parametrize("shared", [True, False])
def test_near_matrix_masks_a_coincident_pair_across_a_leaf_face(shared):
    # In a domain of side 1e-140 binning resolves x_0 = +-3e-151, so this
    # coincident pair (r^2 = 3.6e-301) straddles the x_0 = 0 leaf face.  At
    # this scale every gaussian value is 1: the near field counts the
    # weights of the pairs that are not coincident.
    config = ef.TreeConfig(dimension=2, side=1e-140, depth=3)
    rng = np.random.default_rng(9)
    points = np.concatenate([[[3e-151, 1e-141], [-3e-151, 1e-141], [5e-142, 0.0],
                              [5e-142, 0.0]],
                             rng.uniform(-1e-141, 1e-141, size=(30, 2))])
    weights = rng.uniform(0.5, 1.5, size=points.shape[0])
    tree = ef.build_tree(points, config)
    leaf_of = np.empty(tree.n_points, dtype=np.int64)
    leaf_of[tree.order] = np.repeat(np.arange(tree.leaf_counts.size), tree.leaf_counts)
    assert leaf_of[0] != leaf_of[1]
    source_tree = tree if shared else ef.build_tree(points, config)
    neighbors = ef.fmm._neighbor_tables(tree, source_tree, shared)[config.depth]
    near = ef.fmm._near_matrix(KERNEL, tree, source_tree, shared, neighbors)
    sigma = weights[source_tree.order]
    got = np.empty(tree.n_points)
    got[tree.order] = near @ sigma + (near.T @ sigma if shared else 0.0)
    disp = ef.kernels._displacements(points[:, None, :], points[None, :, :])
    coincident = np.einsum("...k,...k->...", disp, disp) < 1e-300
    assert np.count_nonzero(coincident) == points.shape[0] + 2 * 2
    expect = (~coincident) @ weights
    assert np.abs(got - expect).max() <= 1e-13 * expect.max()


class _NearBuildError(RuntimeError):
    pass


def test_near_build_reraises_a_kernel_error_and_leaves_no_thread(cloud, cache,
                                                                 monkeypatch):
    # The kernel fails in the first pool thread to evaluate, while the
    # calling thread waits for that; with no pool thread (a single CPU), in
    # the calling thread's third run.
    points, _ = cloud
    pooled = ef.fmm._process_cores() > 1
    pool_failed, calls = threading.Event(), []

    def profile(disp):
        # (pairs, D) displacements come from the near build only: every
        # other evaluation passes a 3-D block
        if disp.ndim == 2:
            if threading.current_thread() is not threading.main_thread():
                pool_failed.set()
                raise _NearBuildError("kernel refused a run")
            calls.append(disp.shape[0])
            if pooled:
                assert pool_failed.wait(timeout=60)
            elif len(calls) > 2:
                raise _NearBuildError("kernel refused a run")
        return KERNEL.from_displacements(disp)

    failing = ef.Kernel(KERNEL.name, profile, is_symmetric=True)
    # many runs, so that every thread of the pool takes some
    monkeypatch.setattr(ef.kernels, "_EVAL_CHUNK", 500)
    before = threading.active_count()
    with pytest.raises(_NearBuildError, match="^kernel refused a run$"):
        ef.SummationPlan(failing, points, points, CONFIG, cache)
    assert threading.active_count() == before
    plan = ef.SummationPlan(KERNEL, points, points, CONFIG, cache)
    assert threading.active_count() == before
    assert plan._near.nnz > 20 * 500


def test_near_build_is_bitwise_the_same_on_any_thread_count(cloud, cache,
                                                            monkeypatch):
    # Two builds on eight threads switching every microsecond, and one on
    # the calling thread alone: a run lost or torn between threads would
    # leave the matrices different.
    points, _ = cloud
    monkeypatch.setattr(ef.kernels, "_EVAL_CHUNK", 500)
    interval = sys.getswitchinterval()
    for source_tree in (None, ef.build_tree(points, CONFIG)):
        builds = []
        for cores in (1, 8, 8):
            monkeypatch.setattr(ef.fmm, "_process_cores", lambda n=cores: n)
            sys.setswitchinterval(1e-6)
            try:
                builds.append(ef.SummationPlan(KERNEL, points, points, CONFIG, cache,
                                               source_tree=source_tree)._near)
            finally:
                sys.setswitchinterval(interval)
        assert builds[0].nnz > 20 * 500
        for near in builds[1:]:
            for name in ("data", "indices", "indptr"):
                a, b = getattr(builds[0], name), getattr(near, name)
                assert a.dtype == b.dtype and np.array_equal(a, b)


def test_depth_11_plan_holds_setup_memory_to_the_occupied_boxes(monkeypatch):
    # A 3D depth-11 grid has 2^33 boxes; 200 clustered points occupy a few
    # hundred per level.  Neighbors come from the tree, so plan and sweep
    # stay small: large np.full requests (any array sized by a level's
    # grid) fail the test at once, and tracemalloc bounds the peak.
    config = ef.TreeConfig(dimension=3, side=1.0, depth=11)
    cache = ef.build_operator_cache(KERNEL, config, 1e-4, resolution=2, x_budget=64)
    rng = np.random.default_rng(11)
    points = 0.03 * rng.standard_normal((200, 3))
    weights = rng.uniform(0.5, 1.5, size=200)
    full = np.full

    def small_full(shape, *args, **kwargs):
        if np.prod(shape) > 10**6:
            raise AssertionError(f"np.full of shape {shape}")
        return full(shape, *args, **kwargs)

    monkeypatch.setattr(np, "full", small_full)
    tracemalloc.start()
    try:
        plan = ef.SummationPlan(KERNEL, points, points, config, cache)
        total = plan.apply_far(weights)[0] + plan.apply_near(weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    exact = ef.direct_sum(KERNEL, ef.ParticleSystem(points, points, weights))
    assert np.linalg.norm(total - exact) <= 100 * 1e-4 * np.linalg.norm(exact)


def test_symmetric_kernel_refuses_a_non_symmetric_cache():
    # the key does not record symmetry: a profile built as non-symmetric
    # has two transfer bases, and a plan declaring it symmetric would apply
    # M_P^T = M_{-P} across them
    def profile(disp):
        return np.exp(-np.einsum("...k,...k->...", disp, disp))

    one_way = ef.Kernel("gauss-profile", profile, is_symmetric=False)
    both_ways = ef.Kernel("gauss-profile", profile, is_symmetric=True)
    points = np.random.default_rng(8).uniform(-0.5, 0.5, size=(300, 2))
    weights = np.ones(300)
    built_one_way = ef.build_operator_cache(one_way, CONFIG, 1e-4,
                                            resolution=6, x_budget=256)
    with pytest.raises(ef.CacheMismatchError, match="level 3 transfer bases differ"):
        ef.SummationPlan(both_ways, points, points, CONFIG, built_one_way)
    # a symmetric build serves a kernel declared either way
    built_both_ways = ef.build_operator_cache(both_ways, CONFIG, 1e-4,
                                              resolution=6, x_budget=256)
    far = [ef.SummationPlan(kernel, points, points, CONFIG,
                            built_both_ways).apply_far(weights)[0]
           for kernel in (both_ways, one_way)]
    assert np.allclose(far[1], far[0], rtol=0, atol=1e-12 * np.abs(far[0]).max())


def test_kernel_without_scaling_runs_no_borrowed_operators(cloud):
    # A kernel that declares no scaling has operators of its own at every
    # level; another level's would sum quietly wrong (or fail on a shape),
    # so a plan refuses a cache with a hole, naming the level.  laplace
    # declares its scaling, and every level runs its deepest operators.
    points, weights = cloud
    config = ef.TreeConfig(dimension=2, side=1.0, depth=4)
    laplace = ef.make_builtin_kernel("laplace")
    per_level = ef.Kernel("laplace-per-level", laplace.from_displacements,
                          is_symmetric=True)
    fars = {}
    for kernel in (KERNEL, per_level, laplace):
        full = ef.build_operator_cache(kernel, config, 1e-3, resolution=5, x_budget=256)
        fars[kernel.name] = ef.SummationPlan(kernel, points, points, config,
                                             full).apply_far(weights)[0]
        if kernel is laplace:
            assert sorted(full.m2l) == [4] and sorted(full.m2m) == sorted(full.l2l) == [3]
            continue
        for held, level in (("m2l", 3), ("m2m", 2), ("l2l", 3)):
            ops = dict(getattr(full, held))
            del ops[level]
            holed = dataclasses.replace(full, **{held: ops})
            with pytest.raises(ef.CacheMismatchError,
                               match=f"holds no level {level} M2L, M2M or L2L of its own"):
                ef.SummationPlan(kernel, points, points, config, holed)
    scale = np.abs(fars["laplace-per-level"]).max()
    assert np.abs(fars["laplace"] - fars["laplace-per-level"]).max() <= 1e-10 * scale


def test_add_rows_matches_fancy_add():
    rng = np.random.default_rng(4)
    for width in (3, 0):
        target = rng.standard_normal((10, width))
        pos = np.array([1, 4, 5, 9])
        values = rng.standard_normal((4, width))
        expect = target.copy()
        expect[pos] += values
        ef.fmm._add_rows(target, pos, values)
        assert np.array_equal(target, expect)


def test_plan_rejects_foreign_cache(cloud, cache):
    points, weights = cloud
    deeper = ef.TreeConfig(dimension=2, side=1.0, depth=4)
    with pytest.raises(ef.CacheMismatchError):
        ef.SummationPlan(KERNEL, points, points, deeper, cache)
    laplace = ef.make_builtin_kernel("laplace")
    with pytest.raises(ef.CacheMismatchError):
        ef.SummationPlan(laplace, points, points, CONFIG, cache)


def test_trees_of_another_config_are_refused(cloud, cache):
    # a tree binned under another side or depth would misplace every point
    # (quietly, or in a broadcast error): the plan, the one path that takes
    # a tree, names both configs instead
    points, _ = cloud
    for other in (ef.TreeConfig(dimension=2, side=2.0, depth=3),
                  ef.TreeConfig(dimension=2, side=1.0, depth=4)):
        foreign = ef.build_tree(points, other)
        calls = [
            lambda: ef.SummationPlan(KERNEL, points, points, CONFIG, cache,
                                     target_tree=foreign),
            lambda: ef.SummationPlan(KERNEL, points, points, CONFIG, cache,
                                     source_tree=foreign),
        ]
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(other) in str(err.value) and str(CONFIG) in str(err.value)


def test_trees_of_other_points_are_refused(cloud, cache):
    # a tree binning other points (or the same points in another order)
    # misplaces the weights or the results, quietly: the plan checks each
    # tree it is passed against the points it comes with
    points, _ = cloud
    ours = ef.build_tree(points, CONFIG)
    rng = np.random.default_rng(17)
    others = [rng.uniform(-0.5, 0.5, size=points.shape), points[::-1],
              points[:-1]]
    for other in others:
        foreign = ef.build_tree(other, CONFIG)
        for name in ("target", "source"):
            with pytest.raises(ValueError, match=f"{name} tree does not bin"):
                ef.SummationPlan(KERNEL, points, points, CONFIG, cache,
                                 **{f"{name}_tree": foreign})
    # the tree of the points themselves passes, on both sides
    ef.SummationPlan(KERNEL, points, points.copy(), CONFIG, cache,
                     target_tree=ours, source_tree=ours)


def test_plan_rejects_non_finite_weights(cloud, cache):
    points, weights = cloud
    plan = ef.SummationPlan(KERNEL, points, points, CONFIG, cache)
    bad = weights.copy()
    bad[7] = np.inf
    for apply in (plan.apply_far, plan.apply_near):
        with pytest.raises(ValueError, match="potential 7 is not finite"):
            apply(bad)


def test_particle_system_refuses_complex_inputs():
    # np.asarray(..., dtype=float) would keep the real parts with only a
    # ComplexWarning
    pts = np.zeros((2, 2))
    with pytest.raises(ValueError, match="potential values must be real, not complex128"):
        ef.ParticleSystem(pts, pts, np.array([1 + 1j, 2]))
    with pytest.raises(ValueError, match="target values must be real"):
        ef.ParticleSystem(pts + 0.1j, pts, np.ones(2))
    with pytest.raises(ValueError, match="source values must be real"):
        ef.ParticleSystem(pts, [[0.1j, 0.0], [0.0, 0.0]], np.ones(2))


def test_plan_refuses_complex_weights(cloud, cache):
    # the far pass would otherwise return the far field of the real parts
    points, weights = cloud
    plan = ef.SummationPlan(KERNEL, points, points, CONFIG, cache)
    for apply in (plan.apply_far, plan.apply_near):
        with pytest.raises(ValueError, match="potential values must be real"):
            apply(weights + 1j * weights)


def test_plan_refuses_complex_points_with_their_trees(cloud, cache):
    # complex points whose real parts the given tree bins are not its points
    points, _ = cloud
    tree = ef.build_tree(points, CONFIG)
    with pytest.raises(ValueError, match="target values must be real"):
        ef.SummationPlan(KERNEL, points + 0.1j, points, CONFIG, cache, target_tree=tree)
    with pytest.raises(ValueError, match="source values must be real"):
        ef.SummationPlan(KERNEL, points, points + 0.1j, CONFIG, cache, source_tree=tree)


def test_plan_rejects_wrong_length_weights(cloud, cache):
    # both passes need exactly one weight per source: a longer vector is
    # not truncated, a column vector is not flattened
    points, weights = cloud
    plan = ef.SummationPlan(KERNEL, points, points, CONFIG, cache)
    n = weights.size
    for bad in (np.append(weights, np.ones(7)), weights[:-1], weights[:, None]):
        for apply in (plan.apply_far, plan.apply_near):
            with pytest.raises(ValueError, match=rf"shape \({bad.shape[0]},.*\({n},\)"):
                apply(bad)


def test_evaluate_cache_path_round_trip(cloud, tmp_path):
    points, weights = cloud
    system = ef.ParticleSystem(points, points, weights)
    path = tmp_path / "ops.bin"
    first = ef.evaluate(KERNEL, system, CONFIG, TOL, resolution=8,
                        x_budget=1024, cache_path=str(path))
    assert not first.cache_hit
    assert path.exists()
    second = ef.evaluate(KERNEL, system, CONFIG, TOL, resolution=8,
                         x_budget=1024, cache_path=str(path))
    assert second.cache_hit
    assert np.array_equal(first.total, second.total)
    # a present file built for different settings is refused, never rebuilt
    with pytest.raises(ef.CacheMismatchError):
        ef.evaluate(KERNEL, system, CONFIG, 10.0 * TOL, resolution=8,
                    x_budget=1024, cache_path=str(path))
    assert path.read_bytes() == path.read_bytes()


def test_load_or_build_cache_flags(tmp_path):
    path = tmp_path / "ops.bin"
    key = make_cache_key(KERNEL, CONFIG, 1e-3, resolution=6, x_budget=256)
    cache, hit = load_or_build_cache(KERNEL, CONFIG, key, cache_path=str(path))
    assert not hit
    assert cache.key == key
    again, hit = load_or_build_cache(KERNEL, CONFIG, key, cache_path=str(path))
    assert hit
    assert again.key == cache.key


def test_cache_path_in_a_missing_directory_is_refused_before_the_build(
        tmp_path, monkeypatch):
    # the save could not land, so nothing is built, and the error names the
    # directory, not a temporary file that never existed
    def no_build(*args, **kwargs):
        raise AssertionError("built operators that could not be saved")

    monkeypatch.setattr(ef.fmm, "_build", no_build)
    missing = tmp_path / "missing"
    one_point = ef.ParticleSystem(np.zeros((1, 2)), np.zeros((1, 2)), np.ones(1))
    key = make_cache_key(KERNEL, CONFIG, 1e-3)
    for call in (lambda: load_or_build_cache(KERNEL, CONFIG, key,
                                             cache_path=str(missing / "ops.bin")),
                 lambda: ef.evaluate(KERNEL, one_point, CONFIG, 1e-3,
                                     cache_path=missing / "ops.bin")):
        with pytest.raises(FileNotFoundError,
                           match=f"cache directory {re.escape(repr(str(missing)))} "
                                 "does not exist"):
            call()
    assert not missing.exists()


def test_plans_and_sweeps_call_no_scipy_linalg(cloud, cache, drift_cache,
                                               cube_cloud, monkeypatch):
    # The coefficient solves run in numpy's LAPACK: scipy's BLAS pool would
    # spin beside numpy's.  Nothing from scipy.linalg is bound in the
    # modules a plan runs, and a scipy.linalg that raises is never reached.
    def from_scipy_linalg(obj):
        name = (obj.__name__ if isinstance(obj, types.ModuleType)
                else getattr(obj, "__module__", None) or "")
        return name.startswith("scipy.linalg")

    for module in (ef.eim, ef.fmm):
        bound = [name for name, obj in vars(module).items() if from_scipy_linalg(obj)]
        assert bound == [], (module.__name__, bound)

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg reached")

    for name in dir(scipy.linalg):
        if not name.startswith("_") and callable(getattr(scipy.linalg, name)):
            monkeypatch.setattr(scipy.linalg, name, refuse)
    with pytest.raises(AssertionError, match="reached"):
        scipy.linalg.solve_triangular(np.eye(2), np.ones(2))
    points, weights = cloud
    drift_points, drift_weights = cube_cloud[0][:2000], cube_cloud[1][:2000]
    for kernel, config, ops, pts, w in (
            (KERNEL, CONFIG, cache, points, weights),
            (DRIFT_3D, DRIFT_CONFIG, drift_cache, drift_points, drift_weights)):
        plan = ef.SummationPlan(kernel, pts, pts, config, ops)
        far, _, _ = plan.apply_far(w)
        assert np.isfinite(far + plan.apply_near(w)).all()


@pytest.mark.parametrize("terms", [7, 96])
def test_leaf_passes_match_dense_reference(terms, drift_kernel):
    # K(d) != K(-d) for the drifted Gaussian, so a displacement taken the
    # wrong way round (node minus point in L2P, point minus node in P2M)
    # fails; many terms split the 800 points over several chunks
    rng = np.random.default_rng(21)
    points = np.clip(0.1 + 0.2 * rng.standard_normal((800, 2)), -0.5, 0.5)
    tree = ef.build_tree(points, CONFIG)
    nodes = rng.uniform(-0.4, 0.4, size=(terms, 2))
    sigma = rng.uniform(0.5, 1.5, size=tree.n_points)
    coeffs = rng.uniform(0.5, 1.5, size=(tree.leaf_counts.size, terms))
    leaf_of = np.repeat(np.arange(tree.leaf_counts.size), tree.leaf_counts)

    moments = np.zeros((tree.leaf_counts.size, terms))
    np.add.at(moments, leaf_of,
              drift_kernel.pairwise(nodes, tree.leaf_local).T * sigma[:, None])
    got = ef.fmm._leaf_moments(drift_kernel, tree, nodes, sigma)
    assert np.abs(got - moments).max() <= 1e-14 * np.abs(moments).max()

    values = np.empty(tree.n_points)
    values[tree.order] = np.einsum("ij,ij->i", drift_kernel.pairwise(tree.leaf_local, nodes),
                                   coeffs[leaf_of])
    got = ef.fmm._leaf_values(drift_kernel, tree, nodes, coeffs)
    assert np.abs(got - values).max() <= 1e-14 * np.abs(values).max()


def test_plan_warns_of_greedy_stopped_at_max_terms(cube_cloud, cache_store):
    points, weights = cube_cloud[0][:3000], cube_cloud[1][:3000]
    config = ef.TreeConfig(dimension=3, side=1.0, depth=3)
    system = ef.ParticleSystem(points, points, weights)
    oscillatory = ef.make_builtin_kernel("oscillatory")
    with pytest.warns(ef.ToleranceNotReachedWarning) as record:
        ef.evaluate(oscillatory, system, config, 1e-6, max_terms=20)
    assert len(record) == 1
    message = str(record[0].message)
    assert re.search(r"level 2 \(20 terms, residual \S+\), level 3 \(20 terms", message)
    # a build that reaches its tolerance plans without a warning
    gaussian = ef.make_builtin_kernel("gaussian")
    with warnings.catch_warnings():
        warnings.simplefilter("error", ef.ToleranceNotReachedWarning)
        ef.SummationPlan(gaussian, points, points, config,
                         cache_store("gaussian", 3, 1e-4))


def test_plan_refuses_cache_of_same_named_kernel(cloud, tmp_path):
    # the key names the kernel; the models' stored kernel values tell two
    # kernels of one name apart.  Unchecked, the narrow kernel would sum
    # through the wide one's operators, at a relative l2 error of 1.8 here.
    points, weights = cloud
    system = ef.ParticleSystem(points, points, weights)

    def gaussian(width):
        return lambda disp: np.exp(-width * np.einsum("...k,...k->...", disp, disp))

    wide, narrow = (ef.Kernel("mine", gaussian(w), is_symmetric=True) for w in (1.0, 4.0))
    path = str(tmp_path / "mine.bin")
    built = ef.evaluate(wide, system, CONFIG, 1e-4, resolution=6, x_budget=256,
                        cache_path=path)
    with pytest.raises(ef.CacheMismatchError, match="another kernel named 'mine'"):
        ef.evaluate(narrow, system, CONFIG, 1e-4, resolution=6, x_budget=256,
                    cache_path=path)
    with pytest.raises(ef.CacheMismatchError, match="another kernel named 'mine'"):
        ef.SummationPlan(narrow, points, points, CONFIG, built.cache)
    # the kernel it was built for plans from the file and from memory
    again = ef.evaluate(wide, system, CONFIG, 1e-4, resolution=6, x_budget=256,
                        cache_path=path)
    assert again.cache_hit and np.array_equal(again.total, built.total)
