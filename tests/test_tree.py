import collections
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eimfmm as ef
from eimfmm.fmm import _near_matrix, _neighbor_tables
from eimfmm.tree import (_unrank_hollow, child_offsets, parity_rank,
                         training_grids)


def _brute_leaf_multi(points, config):
    """Each input point's leaf multi-index, closed upper faces clamped."""
    width = 2 * config.half_width(config.depth)
    shifted = points - config.center_array() + 0.5 * config.side
    return np.clip((shifted // width).astype(np.int64), 0, 2**config.depth - 1)


def _leaf_of(tree):
    """Each input point's row among the tree's leaves."""
    out = np.empty(tree.n_points, dtype=np.int64)
    out[tree.order] = np.repeat(np.arange(tree.leaf_counts.size), tree.leaf_counts)
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        ef.TreeConfig(dimension=0)
    with pytest.raises(ValueError):
        ef.TreeConfig(depth=1)
    with pytest.raises(ValueError):
        ef.TreeConfig(side=-1.0)
    for side in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            ef.TreeConfig(side=side)
    for center in ((np.nan, 0.0, 0.0), (0.0, -np.inf, 0.0)):
        with pytest.raises(ValueError, match="not finite"):
            ef.TreeConfig(center=center)


@pytest.mark.parametrize("name, value", [("dimension", 2.5), ("depth", 3.5),
                                         ("depth", "4"), ("dimension", None),
                                         ("depth", np.nan), ("depth", np.inf)])
def test_config_refuses_non_integer_dimension_and_depth(name, value):
    with pytest.raises(ValueError, match=f"TreeConfig {name} must be an int, "
                                         f"got {re.escape(repr(value))}"):
        ef.TreeConfig(**{"dimension": 3, "side": 1.0, "depth": 3, name: value})


def test_config_stores_integral_dimension_and_depth_as_int():
    config = ef.TreeConfig(np.int64(2), 1.0, 3.0)
    assert type(config.dimension) is int and type(config.depth) is int
    assert config == ef.TreeConfig(2, 1.0, 3)
    tree = ef.build_tree(np.zeros((1, 2)), config)
    assert tree.level_multi[3].shape == (1, 2)


def test_half_width_halves_per_level():
    config = ef.TreeConfig(dimension=3, side=2.0, depth=5)
    for level in range(6):
        assert config.half_width(level) == pytest.approx(2.0 / 2 ** (level + 1))
    assert config.half_width(0) == 0.5 * config.half_width(0) * 2


@pytest.mark.parametrize("dim,depth", [(3, 21), (2, 31), (1, 42)])
def test_config_refuses_box_indices_beyond_int64(dim, depth):
    # a box's flat index has dimension * level bits: 63 fit an int64 (1D
    # stops sooner, where its leaves still hold their points), and the
    # corner boxes of every level of the deepest tree allowed get the first
    # and the last index
    config = ef.TreeConfig(dimension=dim, side=1.0, depth=depth)
    tree = ef.build_tree(np.array([[-0.5] * dim, [0.5] * dim]), config)
    for level in range(1, depth + 1):
        assert tree.level_flat[level].tolist() == [0, 2 ** (dim * level) - 1]
    refusal = ("depth must be at most 42, got 43" if dim == 1 else
               f"dimension * depth must be at most 63, got {dim} * {depth + 1}")
    with pytest.raises(ValueError, match=re.escape(refusal)):
        ef.TreeConfig(dimension=dim, side=1.0, depth=depth + 1)


def test_deepest_1d_tree_keeps_points_in_their_leaves():
    # binning rounds a point up to 2^(depth - 53) half widths out of its
    # leaf: points on leaf faces and one ulp either side, at depth 42
    config = ef.TreeConfig(dimension=1, side=1.0, depth=42)
    cell = 2 * config.half_width(42)
    faces = -0.5 + np.random.default_rng(4).integers(0, 2**42, 20000) * cell
    points = np.concatenate([faces, np.nextafter(faces, -1.0), np.nextafter(faces, 1.0)])
    tree = ef.build_tree(np.clip(points, -0.5, 0.5)[:, None], config)
    assert np.abs(tree.leaf_local).max() <= (1 + 2**-10) * config.half_width(42)
    with pytest.raises(ValueError, match="depth must be at most 42, got 43"):
        ef.TreeConfig(dimension=1, side=1.0, depth=43)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_children_tables_brute_force(dim):
    # clustered, so that many parents miss children
    rng = np.random.default_rng(dim)
    points = np.clip(0.15 * rng.standard_normal((300, dim)) + 0.1, -0.5, 0.5)
    config = ef.TreeConfig(dimension=dim, side=1.0, depth=4)
    tree = ef.build_tree(points, config)
    assert sorted(tree.children) == list(range(1, config.depth + 1))
    incomplete = False
    for level, kids in tree.children.items():
        parents, multi = tree.level_multi[level - 1], tree.level_multi[level]
        assert kids.dtype == np.int32 and kids.shape == (len(parents), 2**dim)
        incomplete |= bool((kids < 0).any())
        # every occupied child exactly once
        assert np.array_equal(np.sort(kids[kids >= 0]), np.arange(len(multi)))
        for p, c in zip(*np.nonzero(kids >= 0)):
            child = multi[kids[p, c]]
            assert np.array_equal(child >> 1, parents[p])
            assert parity_rank(child) == c
            assert tree.parents[level][kids[p, c]] == p
    assert incomplete


def _walk_cases(dim):
    """(target tree, source tree) pairs of clustered trees with empty
    regions and boxes on every grid face: shared, distinct, and against an
    empty source tree."""
    config = ef.TreeConfig(dimension=dim, side=1.0, depth={1: 7, 2: 5, 3: 4}[dim])
    rng = np.random.default_rng(40 + dim)
    # each face's center and each corner, on the closed cube
    faces = np.concatenate([0.5 * np.eye(dim), -0.5 * np.eye(dim),
                            child_offsets(dim) - 0.5])
    points = np.concatenate([np.clip(0.08 * rng.standard_normal((150, dim)) - 0.2,
                                     -0.5, 0.5), faces])
    others = np.clip(0.1 * rng.standard_normal((120, dim)) + 0.15, -0.5, 0.5)
    tree, other = ef.build_tree(points, config), ef.build_tree(others, config)
    empty = ef.build_tree(np.empty((0, dim)), config)
    return [(tree, tree), (tree, other), (other, tree), (tree, empty)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_neighbor_tables_brute_force(dim):
    steps = np.array(list(np.ndindex(*(3,) * dim))) - 1
    center = steps.shape[0] // 2
    cases = _walk_cases(dim)
    for tgt, src in cases:
        depth = tgt.config.depth
        every = _neighbor_tables(tgt, src, False)
        half = _neighbor_tables(tgt, src, True)
        assert sorted(every) == sorted(half) == list(range(depth + 1))
        for level, table in every.items():
            rows = {tuple(m): i for i, m in enumerate(src.level_multi[level].tolist())}
            expect = [[rows.get(tuple(m), -1) for m in (multi + steps).tolist()]
                      for multi in tgt.level_multi[level]]
            assert np.array_equal(table, np.reshape(expect, table.shape))
            if level:
                assert table.dtype == src.children[level].dtype
            if level < depth:
                assert np.array_equal(half[level], table)
            else:
                assert np.array_equal(half[level], table[:, center:])
    # the shared tree has leaves on every grid face, and inner leaves next
    # to empty boxes
    tree = cases[0][0]
    leaves = tree.level_multi[depth]
    assert (leaves.min(axis=0) == 0).all() and (leaves.max(axis=0) == 2**depth - 1).all()
    inner = ((leaves > 0) & (leaves < 2**depth - 1)).all(axis=1)
    assert (_neighbor_tables(tree, tree, False)[depth][inner] < 0).any()


def test_training_grids_regions():
    # the far points lie in the far region, 3h <= |x|_inf <= side - h
    config = ef.TreeConfig(dimension=2, side=1.0, depth=4)
    l = config.half_width(2)
    far = np.abs(training_grids(config, 2, 6, x_budget=10**6)[0]).max(axis=1)
    assert far.min() >= 3 * l and far.max() <= 1.0 - l
    # cell centers half a spacing inside both bounds
    assert far.min() == pytest.approx(3 * l + l / 6)
    assert far.max() == pytest.approx(1.0 - l - l / 6)
    with pytest.raises(ValueError, match=re.escape("level 5 outside 0..4")):
        training_grids(config, 5, 6)


def test_training_grid_membership_and_spacing():
    config = ef.TreeConfig(dimension=2, side=1.0, depth=4)
    for level in (2, 3):
        l = config.half_width(level)
        points_x, points_y = training_grids(config, level, 6, x_budget=500)
        assert np.abs(points_y).max() <= l
        far = np.abs(points_x).max(axis=1)
        assert far.min() >= 3 * l and far.max() <= config.side - l
        assert len(points_y) == 36
        assert len(points_x) <= 500 + 125
        # both grids share the same spacing
        ys = np.unique(points_y[:, 0])
        assert np.allclose(np.diff(ys), 2 * l / 6)


def test_training_grid_needs_far_region():
    config = ef.TreeConfig(dimension=2, side=1.0, depth=4)
    with pytest.raises(ValueError, match="far region"):
        training_grids(config, 0, 4)
    with pytest.raises(ValueError, match="resolution must be an integer"):
        training_grids(config, 2, 6.5)


def _thin(zone, take):
    """Rows of ``zone`` at evenly spaced ranks, at most ``take`` of them."""
    take = min(take, len(zone))
    return zone[(np.arange(take) * len(zone)) // take]


@pytest.mark.parametrize("dim,resolution", [(1, 5), (2, 4), (3, 3)])
def test_training_grids_match_brute_force_thinning(dim, resolution):
    # the whole far lattice, split by the float region rule and thinned per
    # zone in row-major order, against the integer cell counts
    config = ef.TreeConfig(dimension=dim, side=1.0, depth=4)
    for level in (2, 3, 4):
        half = config.half_width(level)
        far_outer = config.side - half
        spacing = 2 * half / resolution
        n = round(2 * far_outer / spacing)
        xs = -far_outer + (np.arange(n) + 0.5) * spacing
        axes = np.meshgrid(*[xs] * dim, indexing="ij")
        lattice = np.stack([a.ravel() for a in axes], axis=1)
        norm = np.abs(lattice).max(axis=1)
        shell = lattice[(norm >= 3 * half) & (norm < 7 * half)]
        outer = lattice[norm >= 7 * half]
        ys = -half + (np.arange(resolution) + 0.5) * spacing
        box = np.asarray(list(itertools.product(ys, repeat=dim)))
        for budget in (1, 5, 64, 1000, 10**6):
            expect = np.concatenate([_thin(shell, budget),
                                     _thin(outer, max(1, budget // 4))])
            for res, x_budget in ((resolution, budget), (float(resolution), float(budget))):
                points_x, points_y = training_grids(config, level, res, x_budget)
                assert np.array_equal(points_x, expect)
                assert np.array_equal(points_y, box)


def test_shell_pattern_identical_across_levels():
    # in units of the half-width, the shell samples repeat exactly per level
    config = ef.TreeConfig(dimension=3, side=1.0, depth=5)
    ref = None
    for level in (2, 3, 4):
        half = config.half_width(level)
        pts = training_grids(config, level, 5, x_budget=1000)[0]
        shell = pts[np.max(np.abs(pts), axis=1) < 7 * half]
        scaled = np.sort((shell / half).round(9).view("f8"))
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
    # leaf-local coordinates subtract an exact dyadic leaf center: a point at
    # a leaf's center maps to zero, and a dyadic shift of the domain center
    # leaves every coordinate bitwise unchanged
    config = ef.TreeConfig(dimension=2, side=1.0, depth=3)
    rng = np.random.default_rng(3)
    pts = np.vstack([[-0.5 + 1 / 16, -0.5 + 1 / 16],
                     rng.uniform(-0.5, 0.5, size=(100, 2))])
    tree = ef.build_tree(pts, config)
    local = tree.leaf_local
    assert np.array_equal(local[np.flatnonzero(tree.order == 0)[0]], [0.0, 0.0])
    shift = (0.25, -0.25)
    shifted = ef.TreeConfig(dimension=2, side=1.0, depth=3, center=shift)
    moved = ef.build_tree(pts + np.asarray(shift), shifted)
    assert np.array_equal(moved.leaf_local, local)


@pytest.fixture(scope="module")
def small_tree():
    rng = np.random.default_rng(77)
    points = rng.uniform(-0.5, 0.5, size=(400, 3))
    config = ef.TreeConfig(dimension=3, side=1.0, depth=3)
    return points, config, ef.build_tree(points, config)


def test_leaf_assignment_brute_force(small_tree):
    points, config, tree = small_tree
    leaf_multi = tree.level_multi[config.depth][_leaf_of(tree)]
    assert np.array_equal(leaf_multi, _brute_leaf_multi(points, config))


def test_points_in_boxes_partition(small_tree):
    points, config, tree = small_tree
    half = config.half_width(config.depth)
    brute = _brute_leaf_multi(points, config)
    seen = np.zeros(400, dtype=bool)
    for i, multi in enumerate(tree.level_multi[config.depth]):
        rows = slice(tree.leaf_starts[i], tree.leaf_starts[i] + tree.leaf_counts[i])
        idx = tree.order[rows]
        assert not seen[idx].any()
        seen[idx] = True
        assert np.all(brute[idx] == multi)
        assert np.array_equal(tree.sorted_points[rows], points[idx])
        # leaf-local coordinates are the points less their leaf's center
        center = (2 * multi + 1) * half - 0.5 * config.side
        assert np.allclose(tree.leaf_local[rows] + center, points[idx],
                           rtol=0.0, atol=1e-15)
    assert seen.all()
    # membership: every point inside its closed leaf
    assert np.abs(tree.leaf_local).max() <= half


def test_occupancy_counts(small_tree):
    points, config, tree = small_tree
    leaves = _brute_leaf_multi(points, config)
    brute = collections.Counter(map(tuple, leaves.tolist()))
    occupied = dict(zip(map(tuple, tree.level_multi[config.depth].tolist()),
                        tree.leaf_counts.tolist()))
    assert occupied == brute
    assert sum(tree.leaf_counts) == 400
    # coarser levels never have more occupied boxes than finer ones
    for level in range(1, config.depth + 1):
        assert len(tree.level_flat[level - 1]) <= len(tree.level_flat[level])


def test_boundary_points_clamped():
    config = ef.TreeConfig(dimension=2, side=1.0, depth=2)
    pts = np.array([[0.5, 0.5], [-0.5, 0.5], [0.5, -0.23], [-0.5, -0.5]])
    tree = ef.build_tree(pts, config)
    leaf_multi = tree.level_multi[config.depth][_leaf_of(tree)]
    assert leaf_multi[[0, 1, 3]].tolist() == [[3, 3], [0, 3], [0, 0]]


def test_points_outside_domain_rejected():
    config = ef.TreeConfig(dimension=2, side=1.0, depth=2)
    with pytest.raises(ValueError):
        ef.build_tree(np.array([[0.51, 0.0]]), config)
    # NaN fails every comparison, so the domain check alone lets it pass
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="point 1 is not finite"):
            ef.build_tree(np.array([[0.1, 0.1], [bad, 0.0]]), config)


def test_complex_points_refused():
    # np.asarray(..., dtype=float) would bin the real parts with only a
    # ComplexWarning
    config = ef.TreeConfig(dimension=2, side=1.0, depth=2)
    with pytest.raises(ValueError, match="point values must be real, not complex128"):
        ef.build_tree(np.array([[0.1, 0.1], [0.2, 0.0]]) + 0.1j, config)


def test_complex_center_refused():
    with pytest.raises(ValueError, match="center coordinate values must be real"):
        ef.TreeConfig(dimension=2, side=1.0, depth=2, center=(0.1j, 0.0))


def test_neighbor_list_brute_force(small_tree):
    # each near-field row holds exactly the sources in leaves within
    # Chebyshev distance 1 of its target's leaf; the half path (a shared
    # tree) keeps those at a lexicographically nonnegative leaf offset
    points, config, tree = small_tree
    kernel = ef.make_builtin_kernel("gaussian")
    rng = np.random.default_rng(78)
    other_points = rng.uniform(-0.5, 0.5, size=(300, 3))
    other = ef.build_tree(other_points, config)
    target_multi = _brute_leaf_multi(points, config)
    for src, src_points in ((other, other_points), (tree, points)):
        half = src is tree
        neighbors = _neighbor_tables(tree, src, half)
        matrix = _near_matrix(kernel, tree, src, half, neighbors[config.depth])
        delta = (_brute_leaf_multi(src_points, config)[None, :, :]
                 - target_multi[:, None, :])
        expect = np.abs(delta).max(axis=2) <= 1
        if half:
            lead = np.take_along_axis(
                delta, (delta != 0).argmax(axis=2)[..., None], axis=2)[..., 0]
            expect &= lead >= 0  # first nonzero component (0 if none)
        for row in range(tree.n_points):
            cols = matrix.indices[matrix.indptr[row] : matrix.indptr[row + 1]]
            got = np.sort(src.order[cols])
            assert np.array_equal(got, np.flatnonzero(expect[tree.order[row]]))


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
        flat = tree._ravel(tree.level_multi[level], level)
        assert np.array_equal(flat, tree.level_flat[level])
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
    assert np.array_equal(base.order, moved.order)
    assert np.array_equal(base.leaf_starts, moved.leaf_starts)
    assert np.array_equal(base.leaf_counts, moved.leaf_counts)
    for level in range(4):
        assert np.array_equal(base.level_multi[level], moved.level_multi[level])
    assert np.array_equal(base.leaf_local, moved.leaf_local)
