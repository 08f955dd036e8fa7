"""Per-level operator assembly and the binary cache format.

The translation operators are checked two ways: against dense-inverse linear
algebra (same matrix, independent solve) and functionally, by feeding them
synthetic source/field configurations whose exact answers are computable.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import eimfmm as ef
from eimfmm import operators
from eimfmm.eim import TrainingSet, eim_build
from eimfmm.operators import LevelEims, _tail_rank
from eimfmm.tree import (child_offsets, level_geometry, training_grids,
                         transfer_offsets)

EPS = np.finfo(float).eps
KERNEL = ef.make_builtin_kernel("gaussian")
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
    # coarse tolerance drives the per-offset recompression into its dense
    # fallback for most near offsets
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


def test_symmetric_receiving_shares_nodes(small_cache):
    for level in (2, 3):
        pair = small_cache.eims[level]
        assert pair.level == level
        assert np.array_equal(pair.receiving.x_points, pair.radiating.y_points)
        assert np.array_equal(pair.receiving.y_points, pair.radiating.x_points)
        assert pair.terms == pair.radiating.d == pair.receiving.d


def test_level_model_node_roles(small_cache):
    for level in (2, 3):
        geo = level_geometry(CONFIG, level)
        rad = small_cache.eims[level].radiating
        assert np.abs(rad.y_points).max() <= geo.half_width
        assert np.abs(rad.x_points).max(axis=1).min() >= geo.far_inner


def test_vertical_operators_check_child_level(small_cache):
    pair2 = small_cache.eims[2]
    with pytest.raises(ValueError):
        ef.assemble_m2m(KERNEL, CONFIG, 2, pair2, pair2)
    with pytest.raises(ValueError):
        ef.assemble_l2l(KERNEL, CONFIG, 2, pair2, pair2)


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
            approx = ops.projector @ ops.apply_block(t, ops.projector.T)
            assert np.linalg.norm(approx - exact[t]) <= 5.0 * TOL * fat_norm


def test_m2l_apply_block_matches_dense(small_cache, loose_cache):
    rng = np.random.default_rng(7)
    seen = set()
    for cache in (small_cache, loose_cache):
        for level in (2, 3):
            ops = cache.m2l[level]
            block = rng.uniform(-1.0, 1.0, (ops.rank, 5))
            for t, (tag, *factors) in enumerate(ops.blocks):
                seen.add(tag)
                got = ops.apply_block(t, block)
                dense = factors[0] if tag == "dense" else factors[0] @ factors[1]
                expect = dense @ block
                scale = max(np.abs(expect).max(), 1e-30)
                assert np.abs(got - expect).max() <= 1e-13 * scale
    assert seen == {"dense", "lowrank"}  # both storage layouts exercised


def test_m2l_block_rank_accounting(small_cache, drift_cache):
    for cache in (small_cache, drift_cache):
        for level in (2, 3):
            ops = cache.m2l[level]
            assert ops.rank == ops.projector.shape[1]
            r_v = ops.row_basis.shape[1]
            for t, (tag, *factors) in enumerate(ops.blocks):
                if tag == "lowrank":
                    u, v = factors
                    assert u.shape == (ops.rank, ops.block_rank(t))
                    assert v.shape == (ops.block_rank(t), r_v)
                    assert ops.block_rank(t) <= min(ops.rank, r_v)
                else:
                    assert factors[0].shape == (ops.rank, r_v)
                    assert ops.block_rank(t) == ops.rank


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
        approx = ops.projector @ ops.apply_block(t, ops.row_basis.T)
        assert np.linalg.norm(approx - block) <= 5.0 * eps * fat_norm


def test_nonsymmetric_kernel_builds_both_directions(drift_kernel, drift_cache):
    drift = drift_kernel
    assert drift.evaluate([0.1, 0.0], [0.0, 0.0]) != drift.evaluate(
        [0.0, 0.0], [0.1, 0.0]
    )
    for level in (2, 3):
        pair = drift_cache.eims[level]
        geo = level_geometry(CONFIG, level)
        assert np.abs(pair.receiving.x_points).max() <= geo.half_width
        assert np.abs(pair.receiving.y_points).max(axis=1).min() >= geo.far_inner
        ops = drift_cache.m2l[level]
        assert ops.row_basis.shape[0] == pair.radiating.d
        assert ops.projector.shape[0] == pair.receiving.d
        _assert_blocks_reconstructed(drift, level, pair, ops, 1e-5)


def test_m2l_unequal_term_counts_assemble(drift_kernel):
    drift = drift_kernel
    geo = level_geometry(CONFIG, 2)
    train = training_grids(geo, 6, 256)
    radiating = eim_build(drift, train, 1e-12, max_terms=6)
    receiving = eim_build(
        drift, TrainingSet(train.points_y, train.points_x), 1e-12, max_terms=9
    )
    assert (radiating.d, receiving.d) == (6, 9)
    pair = LevelEims(level=2, radiating=radiating, receiving=receiving)
    ops = ef.assemble_m2l(drift, CONFIG, 2, pair, 1e-6)
    assert ops.projector.shape[0] == 9 and ops.row_basis.shape[0] == 6
    _assert_blocks_reconstructed(drift, 2, pair, ops, 1e-6)


def test_m2l_holds_one_operand():
    # the QR operand of all transfer blocks is the only large array: the
    # blocks are evaluated into it and factored in place, never listed,
    # stacked or copied
    laplace = ef.make_builtin_kernel("laplace")
    config = ef.TreeConfig(dimension=3, side=1.0, depth=3)
    eims = ef.build_level_eims(laplace, config, 3, 1e-4, 300, 6, 1024)
    assert eims.terms == 66
    operand = 8 * len(transfer_offsets(3)) * eims.radiating.d * eims.receiving.d
    tracemalloc.start()
    try:
        ef.assemble_m2l(laplace, config, 3, eims, 1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * operand


# -- serialization -----------------------------------------------------------


def _assert_models_equal(a, b):
    assert a.kernel_id == b.kernel_id
    assert a.degenerate == b.degenerate
    for name in ("x_points", "y_points", "basis_matrix", "pivot_matrix",
                 "residual_history"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def _assert_round_trip_bitwise(small_cache, tmp_path):
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
    assert sorted(loaded.m2m) == sorted(small_cache.m2m)
    for level in small_cache.m2m:
        for got, expect in zip(loaded.m2m[level].matrices,
                               small_cache.m2m[level].matrices):
            assert np.array_equal(got, expect)
        for got, expect in zip(loaded.l2l[level].matrices,
                               small_cache.l2l[level].matrices):
            assert np.array_equal(got, expect)
    for level in small_cache.m2l:
        got_ops = loaded.m2l[level]
        expect_ops = small_cache.m2l[level]
        assert np.array_equal(got_ops.projector, expect_ops.projector)
        assert np.array_equal(got_ops.row_basis, expect_ops.row_basis)
        assert len(got_ops.blocks) == len(expect_ops.blocks)
        for got, expect in zip(got_ops.blocks, expect_ops.blocks):
            assert got[0] == expect[0]
            for fg, fe in zip(got[1:], expect[1:]):
                assert np.array_equal(fg, fe)
    # a second save of the loaded cache reproduces the file byte for byte
    again = tmp_path / "ops2.bin"
    ef.save_cache(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_cache_round_trip_bitwise(small_cache, tmp_path):
    _assert_round_trip_bitwise(small_cache, tmp_path)
    # a symmetric kernel's row basis is its column basis
    for ops in small_cache.m2l.values():
        assert np.array_equal(ops.row_basis, ops.projector)


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
    assert data[offset] == 3
    data[offset] = 2
    path.write_bytes(bytes(data))
    with pytest.raises(ef.CacheVersionError, match="version 2"):
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


def test_cache_mismatch_refused(small_cache, tmp_path):
    path = tmp_path / "ops.bin"
    ef.save_cache(small_cache, path)
    key = small_cache.key
    # every field must reach both the digest and the stored header
    for f in dataclasses.fields(ef.CacheKey):
        other = dataclasses.replace(key, **{f.name: _changed(getattr(key, f.name))})
        assert other.digest() != key.digest(), f.name
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


# byte offsets into the fixed-layout header; see save_cache for the layout
_CORRUPTION_CASES = [
    (3, ef.CacheVersionError),     # magic
    (12, ef.CacheVersionError),    # version word
    (25, ef.CacheCorruptError),    # kernel name
    (40, ef.CacheCorruptError),    # side field
    (100, ef.CacheCorruptError),   # key digest
    (130, ef.CacheCorruptError),   # payload digest
    (162, ef.CacheCorruptError),   # payload length
    (-3, ef.CacheCorruptError),    # payload body
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
