"""Acceptance gates: end-to-end accuracy against the exact oracle, structural
invariants of the interpolation models and operators, and scaled-down trend
checks.  Each test is one gate; parameterized gates emit one line per case.

Heavy operator builds are shared through the session-scoped cache store, so
the whole file runs in minutes.
"""

import dataclasses
import time

import numpy as np
import pytest

import eimfmm as ef

KERNELS = ef.builtin_kernel_names()
CONFIG4 = ef.TreeConfig(dimension=3, side=1.0, depth=4)


def _total(kernel_name, points, weights, config, cache):
    kernel = ef.make_builtin_kernel(kernel_name)
    plan = ef.SummationPlan(kernel, points, points, config, cache)
    far, _, _ = plan.apply_far(weights)
    return far + plan.apply_near(weights), far


# -- criterion 1: oracle accuracy ---------------------------------------------


@pytest.mark.parametrize("tol", [1e-4, 1e-6])
@pytest.mark.parametrize("kernel_name", KERNELS)
def test_criterion_1_oracle_accuracy(kernel_name, tol, cube_cloud, cache_store,
                                     direct_store):
    """Every builtin kernel at 10^4 uniform points, depth 4: the full
    summation stays within 100x the build tolerance of the exact sum."""
    points, weights = cube_cloud
    cache = cache_store(kernel_name, 4, tol)
    total, _ = _total(kernel_name, points, weights, CONFIG4, cache)
    exact = direct_store(kernel_name)
    rel = np.linalg.norm(total - exact) / np.linalg.norm(exact)
    bound = 100.0 * tol
    print(f"criterion 1 [{kernel_name}, tol={tol:g}]: rel l2 {rel:.3e} "
          f"(bound {bound:.1e})")
    assert rel <= bound, f"{kernel_name} tol={tol:g}: rel l2 {rel:.3e} > {bound:.1e}"


# -- criterion 2: interpolation exactness at the selected nodes ----------------


def test_criterion_2_node_exactness(cache_store):
    """Every per-level model reproduces the kernel exactly (to 1e-12
    relative) at its own selected node pairs."""
    worst = 0.0
    for kernel_name in KERNELS:
        kernel = ef.make_builtin_kernel(kernel_name)
        cache = cache_store(kernel_name, 4, 1e-6)
        for level in cache.levels:
            pair = cache.eims[level]
            for model in (pair.radiating, pair.receiving):
                a = kernel.pairwise(model.x_points, model.y_points)
                reproduced = a @ model.coefficients(a)
                rel = np.abs(reproduced - a).max() / np.abs(a).max()
                worst = max(worst, rel)
    print(f"criterion 2: worst node reproduction error {worst:.3e} (bound 1e-12)")
    assert worst <= 1e-12


# -- criterion 3: single-level and multilevel far fields agree -----------------


def test_criterion_3_monolevel_equals_multilevel(cube_cloud, cache_store,
                                                 monolevel_far_field):
    tol = 1e-6
    points, weights = cube_cloud
    points, weights = points[:2000], weights[:2000]
    config = ef.TreeConfig(dimension=3, side=1.0, depth=3)
    cache = cache_store("gaussian", 3, tol)
    kernel = ef.make_builtin_kernel("gaussian")
    tree = ef.build_tree(points, config)
    mono = monolevel_far_field(kernel, tree, tree, weights, cache.eims[3])
    plan = ef.SummationPlan(kernel, points, points, config, cache, target_tree=tree)
    multi, _, _ = plan.apply_far(weights)
    gap = np.abs(mono - multi).max() / np.abs(multi).max()
    bound = 100.0 * tol
    print(f"criterion 3: elementwise gap {gap:.3e} (bound {bound:.1e})")
    assert gap <= bound


# -- criterion 4: transfer compression fidelity --------------------------------


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_criterion_4_compression_fidelity(kernel_name, cache_store):
    """Compressed transfer operators act like the explicit kernel blocks on
    random multipole vectors, at every level, within 10x the compression
    tolerance."""
    compress_tol = 1e-5
    config = ef.TreeConfig(dimension=3, side=1.0, depth=3)
    cache = cache_store(kernel_name, 3, 1e-4,
                        compress_tol=compress_tol, max_terms=60)
    kernel = ef.make_builtin_kernel(kernel_name)
    offsets = ef.transfer_offsets(3)
    rng = np.random.default_rng(8)
    worst = 0.0
    for level in cache.levels:
        assert cache.eims[level].terms <= 60
        # the operators a level runs act on the models and the boxes of the
        # level they were built at (the deepest, for laplace)
        ops = cache.transfer(level)
        pair = cache.eims[ops.level]
        step = 2.0 * config.half_width(ops.level)
        coeffs = rng.standard_normal((pair.terms, 30))
        projected = ops.projector.T @ coeffs
        num = 0.0
        den = 0.0
        for t, off in enumerate(offsets):
            exact_block = kernel.pairwise(
                pair.receiving.x_points, pair.radiating.y_points + step * off
            )
            exact = exact_block @ coeffs
            compressed = ops.projector @ ops.apply_rows(t, projected.T).T
            num += np.linalg.norm(compressed - exact) ** 2
            den += np.linalg.norm(exact) ** 2
        worst = max(worst, np.sqrt(num / den))
    bound = 10.0 * compress_tol
    print(f"criterion 4 [{kernel_name}]: worst level rel l2 {worst:.3e} "
          f"(bound {bound:.1e})")
    assert worst <= bound


# -- criterion 5: per-level rank adaptation -------------------------------------


def test_criterion_5_variable_order_ranks(cache_store):
    """Deep tree, tight tolerance: term counts shrink with depth for the
    gaussian kernel and stay flat for the scale-invariant laplace kernel."""
    gauss = cache_store("gaussian", 6, 1e-6).terms_per_level()
    laplace = cache_store("laplace", 6, 1e-6).terms_per_level()
    levels = sorted(gauss)
    gseq = [gauss[k] for k in levels]
    lseq = [laplace[k] for k in levels]
    print(f"criterion 5: gaussian terms {gseq}, laplace terms {lseq}")
    assert gauss[6] < gauss[2], f"no decay: {gseq}"
    for prev, nxt in zip(gseq, gseq[1:]):
        assert nxt <= prev + 1, f"not non-increasing (within 1): {gseq}"
    assert max(lseq) - min(lseq) <= 2, f"laplace not constant (within 2): {lseq}"


# -- criterion 6: the near/far split is exact -----------------------------------


def test_criterion_6_near_far_partition(cube_cloud, cache_store):
    points, weights = cube_cloud
    points, weights = points[:500], weights[:500]
    config = ef.TreeConfig(dimension=3, side=1.0, depth=3)
    width = 2.0 * config.half_width(3)
    leafs = np.clip(((points + 0.5) // width).astype(np.int64), 0, 7)
    cheb = np.abs(leafs[:, None, :] - leafs[None, :, :]).max(axis=2)
    worst = 0.0
    for kernel_name in ("laplace", "gaussian"):
        kernel = ef.make_builtin_kernel(kernel_name)
        # the near field reads no operator: a coarse cache will do
        cache = cache_store(kernel_name, 3, 1e-2)
        near = ef.SummationPlan(kernel, points, points, config, cache).apply_near(weights)
        system = ef.ParticleSystem(points, points, weights)
        disp = points[:, None, :] - points[None, :, :]
        values = kernel.from_displacements(disp)
        dist2 = np.sum(disp * disp, axis=-1)
        values = np.where(dist2 == 0.0, 0.0, values)
        far_direct = (values * (cheb >= 2)) @ weights
        exact = ef.direct_sum(kernel, system)
        rel = np.abs(near + far_direct - exact).max() / np.abs(exact).max()
        worst = max(worst, rel)
    print(f"criterion 6: worst partition defect {worst:.3e} (bound 1e-13)")
    assert worst <= 1e-13


# -- criterion 7: linearity and translation invariance --------------------------


def test_criterion_7_linearity_and_translation(cube_cloud, cache_store):
    points, _ = cube_cloud
    points = points[:1000]
    config = ef.TreeConfig(dimension=3, side=1.0, depth=3)
    cache = cache_store("gaussian", 3, 1e-4)
    kernel = ef.make_builtin_kernel("gaussian")
    plan = ef.SummationPlan(kernel, points, points, config, cache)
    rng = np.random.default_rng(777)
    failures = 0
    for trial in range(100):
        w1 = rng.uniform(-1.0, 1.0, 1000)
        w2 = rng.uniform(-1.0, 1.0, 1000)
        a, b = rng.uniform(-2.0, 2.0, 2)
        far_mix, _, _ = plan.apply_far(a * w1 + b * w2)
        far_1, _, _ = plan.apply_far(w1)
        far_2, _, _ = plan.apply_far(w2)
        scale = max(np.abs(far_mix).max(), 1e-30)
        if np.abs(far_mix - (a * far_1 + b * far_2)).max() > 1e-12 * scale:
            failures += 1
            continue
        near_mix = plan.apply_near(a * w1 + b * w2)
        combo = a * plan.apply_near(w1) + b * plan.apply_near(w2)
        if np.abs(near_mix - combo).max() > 1e-12 * max(np.abs(near_mix).max(), 1e-30):
            failures += 1
            continue
        # dyadic recentering must reproduce the fields bit for bit
        shift = rng.integers(-4, 5, size=3) / 8.0
        moved = ef.TreeConfig(dimension=3, side=1.0, depth=3, center=tuple(shift))
        moved_plan = ef.SummationPlan(
            kernel, points + shift, points + shift, moved, cache
        )
        moved_far, _, _ = moved_plan.apply_far(w1)
        if not np.array_equal(far_1, moved_far):
            failures += 1
            continue
        if not np.array_equal(plan.apply_near(w1), moved_plan.apply_near(w1)):
            failures += 1
    print(f"criterion 7: {failures} failures in 100 randomized trials")
    assert failures == 0


# -- criterion 8: near-linear scaling of the far field ---------------------------


def test_criterion_8_far_field_scaling(cube_cloud, cache_store):
    """Quadrupling the points while deepening the tree by one level must
    keep the per-point far-field time within a factor of two."""
    points4, weights4 = cube_cloud
    rng = np.random.default_rng(2024)
    points5 = rng.uniform(-0.5, 0.5, size=(40_000, 3))
    weights5 = rng.uniform(-1.0, 1.0, size=40_000)
    kernel = ef.make_builtin_kernel("gaussian")
    config5 = ef.TreeConfig(dimension=3, side=1.0, depth=5)
    plan4 = ef.SummationPlan(kernel, points4, points4, CONFIG4,
                             cache_store("gaussian", 4, 1e-4))
    plan5 = ef.SummationPlan(kernel, points5, points5, config5,
                             cache_store("gaussian", 5, 1e-4))

    def median_seconds(plan, weights):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            plan.apply_far(weights)
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    plan4.apply_far(weights4)  # warm allocation paths
    plan5.apply_far(weights5)
    per4 = median_seconds(plan4, weights4) / 10_000
    per5 = median_seconds(plan5, weights5) / 40_000
    ratio = per5 / per4
    print(f"criterion 8: per-point far time {per4 * 1e6:.2f}us -> "
          f"{per5 * 1e6:.2f}us, ratio {ratio:.2f} (bound 2.0)")
    assert ratio < 2.0


# -- criterion 9: operator cache round trip --------------------------------------


def test_criterion_9_cache_round_trip(cache_store, tmp_path):
    cache = cache_store("gaussian", 4, 1e-4)
    first = tmp_path / "a.bin"
    second = tmp_path / "b.bin"
    ef.save_cache(cache, first)
    loaded = ef.load_cache(first, expected_key=cache.key)
    ef.save_cache(loaded, second)
    assert first.read_bytes() == second.read_bytes(), "round trip not bitwise"

    with pytest.raises(ef.CacheMismatchError):
        ef.load_cache(first, expected_key=dataclasses.replace(cache.key, depth=5))

    data = bytearray(first.read_bytes())
    data[40] ^= 0xFF  # a header config field no longer matches the checksum
    first.write_bytes(bytes(data))
    with pytest.raises(ef.CacheError):
        ef.load_cache(first)
    print("criterion 9: bitwise round trip, mismatch and corruption refused")
