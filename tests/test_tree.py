import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eimfmm as ef
from eimfmm.tree import _unrank_hollow, child_offsets, parity_rank


def test_config_validation():
    with pytest.raises(ValueError):
        ef.TreeConfig(dimension=0)
    with pytest.raises(ValueError):
        ef.TreeConfig(depth=1)
    with pytest.raises(ValueError):
        ef.TreeConfig(side=-1.0)


def test_half_width_halves_per_level():
    config = ef.TreeConfig(dimension=3, side=2.0, depth=5)
    for level in range(6):
        assert config.half_width(level) == pytest.approx(2.0 / 2 ** (level + 1))
    assert config.half_width(0) == 0.5 * config.half_width(0) * 2


def test_level_geometry_regions():
    config = ef.TreeConfig(dimension=2, side=1.0, depth=4)
    geo = ef.level_geometry(config, 2)
    l = geo.half_width
    assert geo.far_inner == pytest.approx(3 * l)
    assert geo.far_outer == pytest.approx(1.0 - l)
    assert geo.in_source_box(np.array([0.9 * l, -0.9 * l]))
    assert not geo.in_far_region(np.array([2.0 * l, 0.0]))
    assert geo.in_far_region(np.array([3.5 * l, 0.0]))
    assert not geo.in_far_region(np.array([geo.far_outer * 1.01, 0.0]))
    with pytest.raises(ValueError):
        ef.level_geometry(config, 5)


def test_training_grid_membership_and_spacing():
    config = ef.TreeConfig(dimension=2, side=1.0, depth=4)
    for level in (2, 3):
        geo = ef.level_geometry(config, level)
        grids = ef.training_grids(geo, 6, x_budget=500)
        assert all(geo.in_source_box(p) for p in grids.points_y)
        assert all(geo.in_far_region(p) for p in grids.points_x)
        assert len(grids.points_y) == 36
        assert len(grids.points_x) <= 500 + 125
        # both grids share the same spacing
        ys = np.unique(grids.points_y[:, 0])
        assert np.allclose(np.diff(ys), 2 * geo.half_width / 6)


def test_training_grid_needs_far_region():
    config = ef.TreeConfig(dimension=2, side=1.0, depth=4)
    with pytest.raises(ValueError, match="far region"):
        ef.training_grids(ef.level_geometry(config, 0), 4)


def test_shell_pattern_identical_across_levels():
    # in units of the half-width, the shell samples repeat exactly per level
    config = ef.TreeConfig(dimension=3, side=1.0, depth=5)
    ref = None
    for level in (2, 3, 4):
        geo = ef.level_geometry(config, level)
        pts = ef.training_grids(geo, 5, x_budget=1000).points_x
        shell = pts[np.max(np.abs(pts), axis=1) < 7 * geo.half_width]
        scaled = np.sort((shell / geo.half_width).round(9).view("f8"))
        if ref is None:
            ref = scaled
        else:
            assert np.array_equal(ref, scaled)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 9),
    lo=st.integers(0, 3),
    span=st.integers(1, 3),
    dim=st.integers(1, 3),
    seed=st.integers(0, 999),
)
def test_unrank_hollow_matches_enumeration(n, lo, span, dim, seed):
    hi = min(lo + span, n)
    full = [
        idx
        for idx in itertools.product(range(n), repeat=dim)
        if not all(lo <= c < hi for c in idx)
    ]
    rng = np.random.default_rng(seed)
    ranks = rng.integers(0, len(full), size=min(20, len(full)))
    got = _unrank_hollow(ranks, n, lo, hi, dim)
    expect = np.asarray([full[r] for r in ranks])
    assert np.array_equal(got, expect.reshape(got.shape))


def test_parity_rank_matches_child_offsets():
    for dim in (1, 2, 3):
        offs = child_offsets(dim)
        assert offs.shape == (2**dim, dim)
        for rank, off in enumerate(offs):
            assert parity_rank(off) == rank
            assert parity_rank(off + 2) == rank  # parity only


def test_transfer_offsets_counts_and_symmetry():
    for dim, count in ((1, 4), (2, 40), (3, 316)):
        offs = ef.transfer_offsets(dim)
        assert len(offs) == count
        arr = np.asarray(offs)
        assert np.max(np.abs(arr), axis=1).min() >= 2
        assert np.max(np.abs(arr)) <= 3
        # closed under negation, no duplicates
        as_set = {tuple(o) for o in offs}
        assert len(as_set) == count
        assert all(tuple(-np.asarray(o)) in as_set for o in offs)
        # row-major ordering
        assert sorted(as_set) == [tuple(o) for o in offs]


def test_box_center_exact_dyadic():
    config = ef.TreeConfig(dimension=2, side=1.0, depth=3)
    origin_box = ef.BoxId(level=3, multi_index=(0, 0))
    c = ef.box_center(config, origin_box)
    assert np.array_equal(c, np.array([-0.5 + 1 / 16, -0.5 + 1 / 16]))
    shifted = ef.TreeConfig(dimension=2, side=1.0, depth=3, center=(0.25, -0.25))
    c2 = ef.box_center(shifted, origin_box)
    assert np.array_equal(c2 - c, np.array([0.25, -0.25]))


@pytest.fixture(scope="module")
def small_tree():
    rng = np.random.default_rng(77)
    points = rng.uniform(-0.5, 0.5, size=(400, 3))
    config = ef.TreeConfig(dimension=3, side=1.0, depth=3)
    return points, config, ef.build_tree(points, config)


def test_leaf_assignment_brute_force(small_tree):
    points, config, tree = small_tree
    width = 2 * config.half_width(config.depth)
    n = 2**config.depth
    for i in range(0, 400, 7):
        expect = np.clip(((points[i] + 0.5) // width).astype(np.int64), 0, n - 1)
        assert tree.leaf_of(i) == ef.BoxId(config.depth, tuple(expect))


def test_points_in_boxes_partition(small_tree):
    points, config, tree = small_tree
    seen = np.zeros(400, dtype=bool)
    for flat, multi in zip(tree.level_flat[config.depth], tree.level_multi[config.depth]):
        idx = tree.points_in(ef.BoxId(config.depth, tuple(multi)))
        assert not seen[idx].any()
        seen[idx] = True
        # membership: every point inside the closed box
        center = ef.box_center(config, ef.BoxId(config.depth, tuple(multi)))
        half = config.half_width(config.depth)
        assert np.all(np.abs(points[idx] - center) <= half + 1e-12)
    assert seen.all()


def test_occupancy_counts(small_tree):
    points, config, tree = small_tree
    occ = tree.occupancy()
    assert set(occ) == set(tree.level_flat[config.depth].tolist())
    assert sum(occ.values()) == 400
    assert all(v >= 1 for v in occ.values())
    assert sum(tree.leaf_counts) == 400
    # coarser levels never have more occupied boxes than finer ones
    for level in range(1, config.depth + 1):
        assert len(tree.level_flat[level - 1]) <= len(tree.level_flat[level])


def test_boundary_points_clamped():
    config = ef.TreeConfig(dimension=2, side=1.0, depth=2)
    pts = np.array([[0.5, 0.5], [-0.5, 0.5], [0.5, -0.23], [-0.5, -0.5]])
    tree = ef.build_tree(pts, config)
    assert tree.leaf_of(0) == ef.BoxId(2, (3, 3))
    assert tree.leaf_of(1) == ef.BoxId(2, (0, 3))
    assert tree.leaf_of(3) == ef.BoxId(2, (0, 0))


def test_points_outside_domain_rejected():
    config = ef.TreeConfig(dimension=2, side=1.0, depth=2)
    with pytest.raises(ValueError):
        ef.build_tree(np.array([[0.51, 0.0]]), config)
    # NaN fails every comparison, so the domain check alone lets it pass
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="point 1 is not finite"):
            ef.build_tree(np.array([[0.1, 0.1], [bad, 0.0]]), config)


def test_neighbor_list_brute_force(small_tree):
    points, config, tree = small_tree
    n = 2**config.depth
    occupied = {tuple(m) for m in tree.level_multi[config.depth]}
    for multi in list(occupied)[:25]:
        box = ef.BoxId(config.depth, multi)
        got = {b.multi_index for b in ef.neighbor_list(tree, box)}
        # geometric neighborhood clamped to the domain, occupancy ignored
        expect = set(
            itertools.product(*(range(max(0, c - 1), min(n, c + 2)) for c in multi))
        )
        assert got == expect
        assert tuple(int(c) for c in multi) in got


def test_interaction_list_brute_force(small_tree):
    points, config, tree = small_tree
    for level in (2, 3):
        n = 2**level
        occupied = {tuple(m) for m in tree.level_multi[level]}
        for multi in list(occupied)[:15]:
            box = ef.BoxId(level, multi)
            got = {b.multi_index for b, _ in ef.interaction_list(tree, box)}
            parent = tuple(c // 2 for c in multi)
            expect = set()
            # scan the full grid: the list is geometric, occupancy ignored
            for other in itertools.product(range(n), repeat=3):
                oparent = tuple(c // 2 for c in other)
                parent_near = max(abs(a - b) for a, b in zip(parent, oparent)) <= 1
                separated = max(abs(a - b) for a, b in zip(multi, other)) >= 2
                if parent_near and separated:
                    expect.add(other)
            assert got == expect


def test_interaction_list_offsets_consistent(small_tree):
    points, config, tree = small_tree
    offsets = ef.transfer_offsets(3)
    for multi in [tuple(m) for m in tree.level_multi[3][:10]]:
        box = ef.BoxId(3, multi)
        for other, t in ef.interaction_list(tree, box):
            delta = tuple(int(a) - int(b) for a, b in zip(other.multi_index, multi))
            assert tuple(offsets[t]) == delta


def test_interaction_list_empty_above_level_two(small_tree):
    points, config, tree = small_tree
    box = ef.BoxId(1, tuple(tree.level_multi[1][0]))
    assert ef.interaction_list(tree, box) == []


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), depth=st.integers(2, 4), dim=st.integers(1, 3))
def test_ravel_unravel_round_trip(seed, depth, dim):
    rng = np.random.default_rng(seed)
    config = ef.TreeConfig(dimension=dim, side=1.0, depth=depth)
    pts = rng.uniform(-0.5, 0.5, size=(32, dim))
    tree = ef.build_tree(pts, config)
    for level in range(depth + 1):
        multi = tree.level_multi[level]
        flat = tree._ravel(multi, level)
        assert np.array_equal(tree._unravel(flat, level), multi)
        assert np.all(np.diff(flat) > 0)  # sorted, unique


def test_translation_of_tree_is_exact():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.5, 0.5, size=(200, 2))
    base = ef.build_tree(pts, ef.TreeConfig(dimension=2, side=1.0, depth=3))
    shift = np.array([0.375, -0.125])  # dyadic
    moved = ef.build_tree(
        pts + shift,
        ef.TreeConfig(dimension=2, side=1.0, depth=3, center=tuple(shift)),
    )
    assert np.array_equal(base.leaf_multi, moved.leaf_multi)
    assert np.array_equal(base.order, moved.order)
    assert np.array_equal(base.sorted_shifted, moved.sorted_shifted)
