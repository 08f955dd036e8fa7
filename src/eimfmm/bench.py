"""Benchmark harness: generate points, run the summation, report accuracy.

A report goes to stdout in one of two formats: text, a small
human-readable table, or json, the full nested report.
"""

import argparse
import json
import sys
import time

import numpy as np

from .fmm import (ALL_PHASES, ParticleSystem, direct_sum, evaluate,
                  load_or_build_cache)
from .kernels import builtin_kernel_names, make_builtin_kernel
from .operators import CacheError
from .tree import TreeConfig

# Targets the oracle sums exactly; every target when n is at most this.
ORACLE_TARGETS = 10_000
_BOUNDARY_INSET = 1.0 - 1e-9

DEFAULT_DEPTHS = {"cube": 4, "sphere": 5, "ellipsoid": 6}
DEFAULT_SEMI_AXES = (0.5, 0.25, 0.125)
# The run settings a report records, in report order.
_CONFIG_KEYS = ("kernel", "dist", "n", "depth", "tol", "compress_tol", "train_res",
                "x_budget", "seed", "semi_axes", "ranks_only")


def generate_points(kind, count, seed, semi_axes=DEFAULT_SEMI_AXES):
    """Random 3D point clouds, strictly inside the unit box around 0.

    cube: coordinate-wise uniform.  sphere: uniform on the radius-0.5 sphere
    (normalized Gaussian directions), pulled inside the closed box by a
    relative 1e-9 inset.  ellipsoid: the same directions scaled per axis.
    """
    if count < 1:
        raise ValueError("need at least one point")
    rng = np.random.default_rng(seed)
    if kind == "cube":
        return rng.uniform(-0.5, 0.5, size=(count, 3))
    if kind not in ("sphere", "ellipsoid"):
        raise ValueError(f"unknown distribution {kind!r}")
    axes = np.asarray(semi_axes, dtype=float)
    if axes.shape != (3,) or np.any(axes <= 0):
        raise ValueError("semi-axes must be three positive numbers")
    if kind == "sphere":
        axes = np.full(3, 0.5)
    elif np.sum((0.5 / axes) ** 2) <= 1.0:
        # the box corners lie inside the ellipsoid, so no surface point
        # falls in the box and the redraw loop below would never end
        raise ValueError("semi-axes put the whole box inside the ellipsoid")
    out = np.empty((count, 3))
    have = 0
    while have < count:
        draw = rng.standard_normal((count - have, 3))
        norm = np.linalg.norm(draw, axis=1, keepdims=True)
        good = norm[:, 0] > 0
        pts = draw[good] / norm[good] * axes * _BOUNDARY_INSET
        # custom semi-axes may poke outside the box; drop those samples
        inside = np.all(np.abs(pts) < 0.5, axis=1)
        pts = pts[inside]
        out[have : have + pts.shape[0]] = pts
        have += pts.shape[0]
    return out


def run_benchmark(args):
    """Execute one benchmark per the parsed CLI arguments.

    Returns the nested report dict that the json format writes.  --oracle
    compares the total with an exact sum at every target when n <=
    ORACLE_TARGETS, else at ORACLE_TARGETS distinct targets drawn from --seed.
    """
    kernel = make_builtin_kernel(args.kernel)
    depth = args.depth if args.depth is not None else DEFAULT_DEPTHS[args.dist]
    config = TreeConfig(dimension=3, side=1.0, depth=depth)
    timings, oracle, errors = {}, {"targets": 0, "seconds": 0.0}, None

    if args.ranks_only:
        t0 = time.perf_counter()
        cache, hit = load_or_build_cache(
            kernel, config, args.tol, args.compress_tol,
            resolution=args.train_res, x_budget=args.x_budget,
            cache_path=args.cache,
        )
        build_seconds = time.perf_counter() - t0
    else:
        points = generate_points(args.dist, args.n, args.seed, args.semi_axes)
        rng = np.random.default_rng(args.seed + 1)
        potentials = rng.uniform(-1.0, 1.0, size=args.n)
        system = ParticleSystem(targets=points, sources=points, potentials=potentials)
        result = evaluate(
            kernel, system, config, args.tol, compress_tol=args.compress_tol,
            resolution=args.train_res, x_budget=args.x_budget,
            cache_path=args.cache,
        )
        cache, hit = result.cache, result.cache_hit
        build_seconds = result.cache_build_seconds
        timings = {phase: result.timings[phase] for phase in ALL_PHASES}

    if args.oracle:
        rng = np.random.default_rng(args.seed + 2)
        sample = (np.arange(args.n) if args.n <= ORACLE_TARGETS else
                  np.sort(rng.choice(args.n, ORACLE_TARGETS, replace=False)))
        t0 = time.perf_counter()
        exact = direct_sum(kernel, ParticleSystem(points[sample], points, potentials))
        oracle = {"targets": int(sample.size), "seconds": time.perf_counter() - t0}
        scale = np.linalg.norm(exact)
        peak = np.max(np.abs(exact))
        diff = result.total[sample] - exact
        errors = {
            "rel_l2": float(np.linalg.norm(diff) / scale) if scale > 0 else 0.0,
            "rel_max": float(np.max(np.abs(diff)) / peak) if peak > 0 else 0.0,
        }

    resolved = dict(vars(args), depth=depth, compress_tol=cache.key.compress_tol,
                    semi_axes=list(args.semi_axes))
    return {
        "config": {key: resolved[key] for key in _CONFIG_KEYS},
        # int level keys; json writes them as strings
        "terms_per_level": cache.terms_per_level(),
        "ranks_per_level": cache.ranks_per_level(),
        "timings": timings,
        "cache": {"hit": hit, "build_seconds": build_seconds},
        "oracle": oracle,
        "errors": errors,
    }


def _text_report(report):
    cfg = report["config"]
    lines = [
        "kernel={kernel} dist={dist} n={n} depth={depth} tol={tol:g} "
        "compress_tol={compress_tol:g} train_res={train_res} seed={seed}".format(**cfg),
        f"cache: {'hit' if report['cache']['hit'] else 'built'} "
        f"in {report['cache']['build_seconds']:.3f} s",
    ]
    terms, ranks = report["terms_per_level"], report["ranks_per_level"]
    lines.append("level  terms  rank")
    for level in sorted(terms):
        lines.append(f"{level:>5}  {terms[level]:>5}  {ranks.get(level, ''):>4}")
    timings = report["timings"]
    if timings:
        parts = [f"{phase} {timings[phase]:.4f}" for phase in ALL_PHASES]
        lines.append("phase timings (s): " + "  ".join(parts))
    errors, oracle = report["errors"], report["oracle"]
    if errors is not None:
        lines.append(
            f"oracle: rel l2 error {errors['rel_l2']:.3e}, "
            f"rel max error {errors['rel_max']:.3e} over {oracle['targets']} "
            f"of {cfg['n']} targets (direct sum {oracle['seconds']:.3f} s)"
        )
    return "\n".join(lines) + "\n"


_RENDERERS = {"text": _text_report,
              "json": lambda report: json.dumps(report, indent=2) + "\n"}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eimfmm-bench",
        description="Particle-summation benchmark with a direct-sum oracle.",
    )
    parser.add_argument("--kernel", required=True, choices=builtin_kernel_names())
    parser.add_argument("--dist", default="cube", choices=sorted(DEFAULT_DEPTHS))
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--depth", type=int, default=None,
                        help="tree depth; defaults per distribution")
    parser.add_argument("--tol", type=float, default=1e-4)
    parser.add_argument("--compress-tol", type=float, default=None,
                        help="transfer compression tolerance (default: --tol)")
    parser.add_argument("--train-res", type=int, default=7,
                        help="per-axis training grid resolution")
    parser.add_argument("--x-budget", type=int, default=8192,
                        help="max far-region training points per level")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--semi-axes", type=float, nargs=3,
                        default=list(DEFAULT_SEMI_AXES), metavar=("A", "B", "C"))
    parser.add_argument("--oracle", action="store_true",
                        help="compare against the exact direct sum at up to "
                             f"{ORACLE_TARGETS} seeded targets")
    parser.add_argument("--ranks-only", action="store_true",
                        help="build the operators and report per-level sizes only")
    parser.add_argument("--cache", default=None, help="operator cache file")
    parser.add_argument("--format", default="text", choices=sorted(_RENDERERS))
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    for bad, message in [
        (args.n < 1, "--n must be positive"),
        (args.depth is not None and args.depth < 2, "--depth must be at least 2"),
        (not 0 < args.tol < np.inf, "--tol must be positive and finite"),
        (args.compress_tol is not None and not 0 < args.compress_tol < np.inf,
         "--compress-tol must be positive and finite"),
        (args.train_res < 2, "--train-res must be at least 2"),
        (args.x_budget < 1, "--x-budget must be positive"),
        (args.seed < 0, "--seed must be non-negative"),
        (args.ranks_only and args.oracle,
         "--oracle needs a summation, which --ranks-only skips"),
    ]:
        if bad:
            parser.error(message)
    try:
        report = run_benchmark(args)
        sys.stdout.write(_RENDERERS[args.format](report))
    except (CacheError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
