"""One workload run in its own process, started and awaited by run.py.

    worker.py prep    --workload W --seed N --workdir DIR --cache FILE
    worker.py measure --workload W --seed N --workdir DIR --cache FILE --seconds S --trace 0|1

``prep`` builds and saves the operator cache a sweep workload loads; it is
never timed.  ``measure`` times setup and warm sweeps and checks every sweep
at the sampled targets.  Both print one JSON object as their last line.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import eimfmm as ef  # noqa: E402
from oracle import rel_l2, sampled_sum  # noqa: E402
from provenance import git_commit, source_digest  # noqa: E402
from tracing import NoTrace, Tracer, counting_kernel  # noqa: E402
from workloads import MIN_SWEEPS, WORKLOADS, make_inputs  # noqa: E402

# The library's build defaults; they are part of the cache key.
MAX_TERMS, RESOLUTION, X_BUDGET = 300, 7, 8192
# Levels reported one by one: 2..4 exist at every workload's depth, and the
# build times per level matter on the depth-4 build workload only.
TIMED_LEVELS = (2, 3, 4)
COUNTED_LEVELS = (2, 3, 4, 5, 6)
# Bytes per near pair held by the library's pair table: two int64 indices
# and one float64 value.  Computed, not measured.
NEAR_PAIR_BYTES = 24
# Spans whose kernel evaluations are reported, with the level suffix dropped.
KERNEL_SPANS = ("operators.eim", "operators.m2m_l2l", "operators.m2l",
                "fmm.far", "fmm.near_first", "bench.oracle")


def tree_config(wl):
    return ef.TreeConfig(dimension=3, side=1.0, depth=wl.depth)


def build_untraced(kernel, wl):
    return ef.build_operator_cache(kernel, tree_config(wl), wl.tolerance,
                                   max_terms=MAX_TERMS, resolution=RESOLUTION,
                                   x_budget=X_BUDGET)


def build_traced(kernel, wl, tracer, run):
    """build_operator_cache, one public call per level and layer, each in
    its own span."""
    config = tree_config(wl)
    tol = wl.tolerance
    cache = ef.OperatorCache(key=ef.CacheKey(
        kernel_id=kernel.name, dimension=config.dimension,
        side=float(config.side), depth=config.depth, tolerance=float(tol),
        compress_tol=float(tol), resolution=RESOLUTION, x_budget=X_BUDGET,
        max_terms=MAX_TERMS,
    ))
    depth = config.depth
    for level in range(2, depth + 1):
        with tracer.span(f"operators.eim.L{level}", run):
            cache.eims[level] = ef.build_level_eims(
                kernel, config, level, tol, MAX_TERMS, RESOLUTION, X_BUDGET)
    for level in range(2, depth):
        with tracer.span(f"operators.m2m_l2l.L{level}", run):
            eims, child = cache.eims[level], cache.eims[level + 1]
            cache.m2m[level] = ef.assemble_m2m(kernel, config, level, eims, child)
            cache.l2l[level] = ef.assemble_l2l(kernel, config, level, eims, child)
    for level in range(2, depth + 1):
        with tracer.span(f"operators.m2l.L{level}", run):
            cache.m2l[level] = ef.assemble_m2l(kernel, config, level,
                                               cache.eims[level], tol)
    return cache


def setup(kernel, wl, inputs, cache_path, tracer):
    """Points and weights in, first total potential out.

    Covers the operators (built and saved, or loaded), both trees, the plan
    and the first far and near passes; the near pass builds its pair table
    on first use, so that work is inside setup however the library splits
    it.
    """
    run = "setup"
    weights = inputs.weights(0)
    with tracer.span("setup", run):
        if wl.builds_operators:
            if tracer.enabled:
                cache = build_traced(kernel, wl, tracer, run)
            else:
                cache = build_untraced(kernel, wl)
            with tracer.span("operators.save", run):
                ef.save_cache(cache, cache_path)
        else:
            with tracer.span("operators.load", run):
                cache = ef.load_cache(cache_path)
        config = tree_config(wl)
        with tracer.span("tree.build", run):
            tgt_tree = ef.build_tree(inputs.targets, config)
            src_tree = (tgt_tree if inputs.sources is inputs.targets
                        else ef.build_tree(inputs.sources, config))
        with tracer.span("fmm.plan_init", run):
            plan = ef.SummationPlan(kernel, inputs.targets, inputs.sources,
                                    config, cache, target_tree=tgt_tree,
                                    source_tree=src_tree)
        with tracer.span("fmm.far_first", run):
            far, _, _ = plan.apply_far(weights)
        with tracer.span("fmm.near_first", run):
            near = plan.apply_near(weights)
        total = far + near
    return plan, total


def sweep(plan, weights, tracer, run):
    with tracer.span("sweep", run):
        with tracer.span("fmm.far", run):
            far, _, timings = plan.apply_far(weights)
        with tracer.span("fmm.near", run):
            near = plan.apply_near(weights)
        total = far + near
    return total, timings


class Checker:
    """Counts sweeps and checks each against the sampled exact sum.

    A sweep fails when it raises, returns a non-finite value, or is off by
    more than 100 x tol in relative l2 at the sampled targets.
    """

    def __init__(self, inputs, exact, tolerance):
        self.inputs = inputs
        self.exact = exact
        self.limit = 100.0 * tolerance
        self.attempted = 0
        self.failed = 0
        self.last_error = float("inf")

    def check(self, sweep_index, total):
        self.attempted += 1
        reference = self.exact @ self.inputs.coefficients(sweep_index)
        err = rel_l2(total[self.inputs.sample], reference)
        self.last_error = err
        if not (np.isfinite(total).all() and err <= self.limit):
            self.failed += 1
            print(f"sweep {sweep_index} failed: rel l2 {err:.3e}", file=sys.stderr)

    def raised(self, sweep_index):
        self.attempted += 1
        self.failed += 1
        print(f"sweep {sweep_index} raised:", file=sys.stderr)
        traceback.print_exc()


def timed_sweeps(plan, inputs, checker, tracer, first, deadline=None, count=None):
    """Warm sweeps with fresh weights each, until the deadline (at least
    MIN_SWEEPS) or for exactly ``count``.  Returns times, timing dicts and
    the last total."""
    times, phases, total = [], [], None
    i = first
    while (len(times) < count if count is not None
           else len(times) < MIN_SWEEPS or time.perf_counter() < deadline):
        weights = inputs.weights(i)
        try:
            t0 = time.perf_counter()
            total, timings = sweep(plan, weights, tracer, f"sweep{i}")
            times.append(time.perf_counter() - t0)
        except Exception:  # a failed sweep is counted, the run goes on
            checker.raised(i)
            times.append(float("nan"))
        else:
            phases.append(timings)
            checker.check(i, total)
        i += 1
    return times, phases, total


def nanmedian(values):
    values = [v for v in values if v == v]
    return statistics.median(values) if values else float("nan")


# -- computed counters ------------------------------------------------------

def cache_counters(cache):
    out = {"operators.bytes": 0, "eim.degenerate": 0, "eim.max_terms_hit": 0,
           "m2l.svd_fallback": 0}
    arrays = []
    for pair in cache.eims.values():
        for model in (pair.radiating, pair.receiving):
            arrays += [model.x_points, model.y_points, model.basis_matrix,
                       model.pivot_matrix, model.residual_history]
            out["eim.degenerate"] += int(model.degenerate)
            out["eim.max_terms_hit"] += int(model.d >= MAX_TERMS)
    for ops in list(cache.m2m.values()) + list(cache.l2l.values()):
        arrays += ops.matrices
    for ops in cache.m2l.values():
        arrays.append(ops.projector)
        for _, *factors in ops.blocks:
            arrays += factors
        out["m2l.svd_fallback"] += int(getattr(ops, "svd_fallback", False))
    out["operators.bytes"] = sum(a.nbytes for a in arrays)
    for level in COUNTED_LEVELS:
        pair = cache.eims.get(level)
        ops = cache.m2l.get(level)
        history = pair.radiating.residual_history if pair else None
        out[f"eim.terms.L{level}"] = pair.terms if pair else 0
        out[f"eim.residual.L{level}"] = float(history[-1] / history[0]) if pair else 0.0
        out[f"m2l.rank.L{level}"] = ops.rank if ops else 0
        out[f"m2l.block_rank_mean.L{level}"] = (
            float(np.mean([ops.block_rank(t) for t in range(len(ops.blocks))]))
            if ops else 0.0)
    return out


def geometry_counters(tgt_tree, src_tree, config):
    """Leaf, near-pair and transfer-pair counts from the trees' public
    arrays, with the library's neighbor and interaction rules."""
    depth = config.depth
    trees = [tgt_tree] if src_tree is tgt_tree else [tgt_tree, src_tree]

    def matches(level, offset):
        n = 2**level
        tmulti = tgt_tree.level_multi[level]
        cand = tmulti + offset
        rows = np.nonzero(np.all((cand >= 0) & (cand < n), axis=1))[0]
        src_flat = src_tree.level_flat[level]
        if rows.size == 0 or src_flat.size == 0:
            return rows[:0], rows[:0]
        flat = cand[rows] @ (n ** np.arange(config.dimension - 1, -1, -1))
        pos = np.minimum(np.searchsorted(src_flat, flat), src_flat.size - 1)
        hit = src_flat[pos] == flat
        return rows[hit], pos[hit]

    near = 0
    for off in np.ndindex(*(3,) * config.dimension):
        rows, pos = matches(depth, np.asarray(off) - 1)
        near += int(np.sum(tgt_tree.leaf_counts[rows] * src_tree.leaf_counts[pos]))
    transfer = 0
    for level in range(2, depth + 1):
        tmulti = tgt_tree.level_multi[level]
        for off in ef.transfer_offsets(config.dimension):
            rows, _ = matches(level, off)
            if level > 2 and rows.size:
                t = tmulti[rows]
                rows = rows[np.abs(((t + off) >> 1) - (t >> 1)).max(axis=1) <= 1]
            transfer += int(rows.size)
    return {
        "tree.leaves": sum(int(t.leaf_counts.size) for t in trees),
        "tree.max_leaf_points": max(int(t.leaf_counts.max()) for t in trees),
        "fmm.near_pairs": near,
        "fmm.near_table_bytes": NEAR_PAIR_BYTES * near,
        "fmm.transfer_pairs": transfer,
    }


# -- run environment --------------------------------------------------------

def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT),
        "seed": seed,
    }


# -- modes ------------------------------------------------------------------

def prep(wl, cache_path):
    """Build and save the cache a sweep workload loads (not timed), unless
    a run of the same sources already did."""
    if cache_path.exists():
        return {"prep_s": 0.0, "reused": True}
    t0 = time.perf_counter()
    cache = build_untraced(ef.make_builtin_kernel(wl.kernel), wl)
    partial = cache_path.with_name(f"{cache_path.name}.{os.getpid()}.part")
    ef.save_cache(cache, partial)
    os.replace(partial, cache_path)
    return {"prep_s": time.perf_counter() - t0, "reused": False}


def measure_untraced(wl, seed, seconds, workdir, prepared):
    """The end-to-end metrics: median set-up, median warm sweep, peak
    memory and the final sweep's sampled error."""
    kernel = ef.make_builtin_kernel(wl.kernel)
    inputs = make_inputs(wl, seed)
    t0 = time.perf_counter()
    exact = sampled_sum(kernel, inputs.targets[inputs.sample], inputs.sources,
                        inputs.weight_basis)
    oracle_s = time.perf_counter() - t0
    checker = Checker(inputs, exact, wl.tolerance)
    cache_path = workdir / "built.bin" if wl.builds_operators else prepared
    notrace = NoTrace()

    setup_times = []
    plan = None
    for _ in range(wl.setup_repeats):
        plan = None
        gc.collect()
        if wl.builds_operators and cache_path.exists():
            cache_path.unlink()
        t0 = time.perf_counter()
        plan, total = setup(kernel, wl, inputs, cache_path, notrace)
        setup_times.append(time.perf_counter() - t0)
        checker.check(0, total)
    times, _, _ = timed_sweeps(plan, inputs, checker, notrace, first=1,
                               deadline=time.perf_counter() + seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "metrics": {
            "setup_s": (statistics.median(setup_times), "s"),
            "sweep_s": (nanmedian(times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "rel_l2_err": (checker.last_error, "1"),
        },
        "attempted": checker.attempted,
        "failed": checker.failed,
        "correct": checker.failed == 0,
        "samples": {"setups": len(setup_times), "sweeps": len(times),
                    "oracle_targets": int(inputs.sample.size)},
        "detail": {"setup_times": setup_times, "sweep_times": times,
                   "oracle_s": oracle_s},
    }


def measure_traced(wl, seed, seconds, workdir, prepared):
    """An untraced reference pass, then the same program traced.

    Both passes use the same inputs and sweep count, so the traced final
    potentials must equal the untraced ones bitwise and the traced cache
    file must equal the one build_operator_cache + save_cache writes.
    """
    base = ef.make_builtin_kernel(wl.kernel)
    tracer = Tracer()
    kernel = counting_kernel(base, tracer)
    inputs = make_inputs(wl, seed)
    with tracer.span("bench.oracle", "oracle"):
        exact = sampled_sum(kernel, inputs.targets[inputs.sample],
                            inputs.sources, inputs.weight_basis)
    checker = Checker(inputs, exact, wl.tolerance)

    # Untraced reference pass: one setup, half the window of sweeps.
    ref_path = workdir / "built.bin" if wl.builds_operators else prepared
    t0 = time.perf_counter()
    plan, total = setup(base, wl, inputs, ref_path, NoTrace())
    ref_setup_s = time.perf_counter() - t0
    checker.check(0, total)
    ref_times, _, ref_total = timed_sweeps(
        plan, inputs, checker, NoTrace(), first=1,
        deadline=time.perf_counter() + seconds / 2.0)
    plan = None
    gc.collect()

    traced_path = workdir / "traced.bin"
    if not wl.builds_operators:
        with tracer.span("prep", "prep"):
            cache = build_traced(kernel, wl, tracer, "prep")
            with tracer.span("operators.save", "prep"):
                ef.save_cache(cache, traced_path)
        cache = None
    t0 = time.perf_counter()
    plan, total = setup(kernel, wl, inputs,
                        traced_path if wl.builds_operators else ref_path, tracer)
    traced_setup_s = time.perf_counter() - t0
    checker.check(0, total)
    times, phases, final = timed_sweeps(plan, inputs, checker, tracer, first=1,
                                        count=len(ref_times))
    if wl.builds_operators:
        with tracer.span("verify", "verify"), tracer.span("operators.load", "verify"):
            ef.load_cache(traced_path)
    counters = cache_counters(plan.cache)
    counters.update(geometry_counters(plan.tgt_tree, plan.src_tree, plan.config))

    same_bytes = traced_path.read_bytes() == ref_path.read_bytes()
    same_total = final is not None and ref_total is not None and (
        final.tobytes() == ref_total.tobytes())
    if not same_bytes:
        print("traced cache bytes differ from build_operator_cache", file=sys.stderr)
    if not same_total:
        print("traced final potentials differ from the untraced run", file=sys.stderr)

    metrics = layer_metrics(tracer, phases)
    metrics.update({k: (v, unit_of(k)) for k, v in counters.items()})
    selfs = tracer.self_times()
    metrics["bench.unattributed_s.setup"] = (selfs[tracer.named("setup")[0]["id"]], "s")
    metrics["bench.unattributed_s.sweep"] = (
        nanmedian([selfs[s["id"]] for s in tracer.named("sweep")]), "s")
    metrics["operators.cache_bytes"] = (traced_path.stat().st_size, "B")
    metrics["bench.trace_overhead_s.setup"] = (traced_setup_s - ref_setup_s, "s")
    metrics["bench.trace_overhead_s.sweep"] = (nanmedian(times) - nanmedian(ref_times), "s")
    tracer.write(results_path(wl, seed, 1).with_suffix(".spans.json"),
                 {"workload": wl.name, "seed": seed})
    return {
        "metrics": metrics,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "correct": checker.failed == 0 and same_bytes and same_total,
        "samples": {"sweeps": len(times), "oracle_targets": int(inputs.sample.size)},
        "detail": {"same_cache_bytes": same_bytes, "same_final_total": same_total,
                   "untraced_setup_s": ref_setup_s, "traced_setup_s": traced_setup_s},
    }


def unit_of(name):
    if name.endswith("_s") or "_s." in name or name.startswith("kernels.s."):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.startswith("eim.residual"):
        return "1"
    return "count"


def layer_metrics(tracer, phases):
    """Per-layer times and kernel counts from the spans and the warm
    sweeps' phase timings."""
    def span_s(name):
        return sum(s["end"] - s["start"] for s in tracer.named(name))

    out = {}
    for layer in ("eim", "m2m_l2l", "m2l"):
        spans = [s for s in tracer.spans if s["name"].startswith(f"operators.{layer}.L")]
        out[f"operators.{layer}_s"] = sum(s["end"] - s["start"] for s in spans)
        for level in TIMED_LEVELS:
            if layer != "m2m_l2l" or level < TIMED_LEVELS[-1]:
                out[f"operators.{layer}_s.L{level}"] = span_s(f"operators.{layer}.L{level}")
    out["operators.save_s"] = span_s("operators.save")
    out["operators.load_s"] = span_s("operators.load")
    out["tree.build_s"] = span_s("tree.build")
    out["fmm.plan_init_s"] = span_s("fmm.plan_init")
    out["fmm.far_first_s"] = span_s("fmm.far_first")
    out["fmm.near_first_s"] = span_s("fmm.near_first")
    out["fmm.near_s"] = nanmedian([s["end"] - s["start"] for s in tracer.named("fmm.near")])
    for phase in ("P2M", "M2M", "M2L", "L2L", "L2P"):
        out[f"fmm.{phase}_s"] = nanmedian([t[phase] for t in phases])
    out["bench.oracle_s"] = span_s("bench.oracle")
    for group in KERNEL_SPANS:
        spans = [s for s in tracer.spans
                 if s["name"] == group or s["name"].startswith(group + ".L")]
        if group == "fmm.far":  # per warm sweep
            out[f"kernels.evals.{group}"] = nanmedian([s["kernel_evals"] for s in spans])
            out[f"kernels.s.{group}"] = nanmedian([s["kernel_s"] for s in spans])
        else:
            out[f"kernels.evals.{group}"] = sum(s["kernel_evals"] for s in spans)
            out[f"kernels.s.{group}"] = sum(s["kernel_s"] for s in spans)
    return {k: (v, unit_of(k)) for k, v in out.items()}


def results_path(wl, seed, trace):
    out = Path(__file__).resolve().parent / "results"
    out.mkdir(exist_ok=True)
    return out / f"{wl.name}-seed{seed}-trace{trace}.json"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("prep", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True,
                        help="per-run scratch directory")
    parser.add_argument("--cache", type=Path, required=True,
                        help="prepared operator cache of a sweep workload")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.mode == "prep":
        print(json.dumps(prep(wl, args.cache)))
        return 0
    measure = measure_traced if args.trace else measure_untraced
    result = measure(wl, args.seed, args.seconds, args.workdir, args.cache)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    result["env"] = environment(args.seed)
    with open(results_path(wl, args.seed, args.trace), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
