"""Checks of the benchmark's own parts: the sampled oracle, the counting
kernel and the traced pipeline.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import eimfmm as ef  # noqa: E402
import worker  # noqa: E402
from oracle import sampled_sum  # noqa: E402
from tracing import Tracer, counting_kernel  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

# A tiny stand-in for the build workload: same pipeline, seconds to run.
TINY = replace(WORKLOADS["build-laplace-1e-6"], name="tiny", kernel="gaussian",
               tolerance=1e-3, depth=3, n_points=600)


@pytest.mark.parametrize("kernel_name", ["laplace", "gaussian"])
def test_sampled_sum_matches_direct_sum(kernel_name):
    rng = np.random.default_rng(7)
    points = rng.uniform(-0.5, 0.5, size=(300, 3))
    weights = rng.uniform(-1.0, 1.0, size=300)
    kernel = ef.make_builtin_kernel(kernel_name)
    exact = ef.direct_sum(kernel, ef.ParticleSystem(points, points, weights))
    sample = np.array([0, 17, 150, 299])
    got = sampled_sum(kernel, points[sample], points, weights)
    np.testing.assert_allclose(got, exact[sample], rtol=1e-12, atol=0.0)
    # several weight columns at once, as the benchmark uses it
    both = sampled_sum(kernel, points[sample], points, np.stack([weights, -weights], 1))
    np.testing.assert_allclose(both[:, 1], -exact[sample], rtol=1e-12, atol=0.0)


def test_counting_kernel_keeps_values_and_name():
    base = ef.make_builtin_kernel("laplace")
    tracer = Tracer()
    kernel = counting_kernel(base, tracer)
    x = np.random.default_rng(0).uniform(-0.5, 0.5, size=(5, 3))
    with tracer.span("probe", "r"):
        values = kernel.pairwise(x, x + 1.0)
    assert kernel.name == base.name
    assert np.array_equal(values, base.pairwise(x, x + 1.0))
    assert tracer.spans[0]["kernel_evals"] == 25


def _traced_run(tmp_path):
    tmp_path.mkdir()
    result = worker.measure_traced(TINY, seed=3, seconds=0.2, workdir=tmp_path,
                                   prepared=None)
    counts = {k: v for k, (v, unit) in result["metrics"].items() if unit != "s"}
    return result, counts


def test_traced_run_reproduces_untraced_and_counts_repeat(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "results_path",
                        lambda wl, seed, trace: tmp_path / f"{wl.name}.json")
    first, counts_a = _traced_run(tmp_path / "a")
    second, counts_b = _traced_run(tmp_path / "b")
    for result in (first, second):
        assert result["correct"], result["detail"]
        assert result["detail"]["same_cache_bytes"]
        assert result["detail"]["same_final_total"]
    assert counts_a == counts_b
    assert counts_a["kernels.evals.fmm.far"] > 0
    assert counts_a["fmm.near_pairs"] > 0


def test_geometry_counters_match_a_brute_force_count():
    wl = replace(TINY, distinct_sources=True, n_points=300)
    inputs = make_inputs(wl, seed=1)
    config = worker.tree_config(wl)
    tgt = ef.build_tree(inputs.targets, config)
    src = ef.build_tree(inputs.sources, config)
    counts = worker.geometry_counters(tgt, src, config)

    n = 2**config.depth
    tleaf = np.floor((inputs.targets + 0.5) * n).astype(int)
    sleaf = np.floor((inputs.sources + 0.5) * n).astype(int)
    cheb = np.abs(tleaf[:, None, :] - sleaf[None, :, :]).max(axis=2)
    assert counts["fmm.near_pairs"] == int(np.sum(cheb <= 1))
    assert counts["fmm.near_table_bytes"] == 24 * counts["fmm.near_pairs"]

    transfer = 0
    for level in range(2, config.depth + 1):
        occupied = {tuple(m) for m in src.level_multi[level].tolist()}
        for multi in tgt.level_multi[level].tolist():
            box = ef.BoxId(level, tuple(multi))
            transfer += sum(other.multi_index in occupied
                            for other, _ in ef.interaction_list(tgt, box))
    assert counts["fmm.transfer_pairs"] == transfer
    assert counts["tree.leaves"] == tgt.leaf_counts.size + src.leaf_counts.size
