"""Benchmark harness: generate points, run the summation, report accuracy.

Reports come in three formats.  Text is a small human-readable table, json is
the full nested report, csv is one row per metric so error-vs-time curves can
be plotted externally.
"""

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .fmm import (ALL_PHASES, ParticleSystem, direct_sum, evaluate,
                  load_or_build_cache)
from .kernels import builtin_kernel_names, make_builtin_kernel
from .operators import CacheError, make_cache_key
from .tree import TreeConfig

ORACLE_POINT_LIMIT = 100_000
_BOUNDARY_INSET = 1.0 - 1e-9

DEFAULT_DEPTHS = {"cube": 4, "sphere": 5, "ellipsoid": 6}
DEFAULT_SEMI_AXES = (0.5, 0.25, 0.125)


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


@dataclass
class RunReport:
    config: dict
    terms_per_level: dict = field(default_factory=dict)
    ranks_per_level: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    cache_hit: bool = False
    cache_build_seconds: float = 0.0
    oracle_ran: bool = False
    oracle_skipped_reason: str = ""
    oracle_seconds: float = 0.0
    errors: dict = None

    def to_dict(self):
        return {
            "config": self.config,
            "terms_per_level": {str(k): v for k, v in self.terms_per_level.items()},
            "ranks_per_level": {str(k): v for k, v in self.ranks_per_level.items()},
            "timings": self.timings,
            "cache": {"hit": self.cache_hit, "build_seconds": self.cache_build_seconds},
            "oracle": {
                "ran": self.oracle_ran,
                "skipped_reason": self.oracle_skipped_reason,
                "seconds": self.oracle_seconds,
            },
            "errors": self.errors,
        }


def run_benchmark(args):
    """Execute one benchmark per the parsed CLI arguments."""
    kernel = make_builtin_kernel(args.kernel)
    depth = args.depth if args.depth is not None else DEFAULT_DEPTHS[args.dist]
    config = TreeConfig(dimension=3, side=1.0, depth=depth)
    compress_tol = make_cache_key(
        kernel, config, args.tol, args.compress_tol,
        resolution=args.train_res, x_budget=args.x_budget,
    ).compress_tol
    report = RunReport(
        config={
            "kernel": args.kernel,
            "dist": args.dist,
            "n": args.n,
            "depth": depth,
            "tol": args.tol,
            "compress_tol": compress_tol,
            "train_res": args.train_res,
            "x_budget": args.x_budget,
            "seed": args.seed,
            "semi_axes": list(args.semi_axes),
            "ranks_only": args.ranks_only,
        }
    )

    if args.ranks_only:
        t0 = time.perf_counter()
        cache, hit = load_or_build_cache(
            kernel, config, args.tol, compress_tol,
            resolution=args.train_res, x_budget=args.x_budget,
            cache_path=args.cache,
        )
        report.cache_build_seconds = time.perf_counter() - t0
        report.cache_hit = hit
        report.terms_per_level = cache.terms_per_level()
        report.ranks_per_level = cache.ranks_per_level()
        return report

    points = generate_points(args.dist, args.n, args.seed, args.semi_axes)
    rng = np.random.default_rng(args.seed + 1)
    potentials = rng.uniform(-1.0, 1.0, size=args.n)
    system = ParticleSystem(targets=points, sources=points, potentials=potentials)

    result = evaluate(
        kernel, system, config, args.tol, compress_tol=compress_tol,
        resolution=args.train_res, x_budget=args.x_budget,
        cache_path=args.cache,
    )
    report.terms_per_level = result.cache.terms_per_level()
    report.ranks_per_level = result.cache.ranks_per_level()
    report.timings = {phase: result.timings[phase] for phase in ALL_PHASES}
    report.cache_hit = result.cache_hit
    report.cache_build_seconds = result.cache_build_seconds

    want_oracle = args.oracle or args.force_oracle
    if want_oracle and args.n > ORACLE_POINT_LIMIT and not args.force_oracle:
        report.oracle_skipped_reason = (
            f"n={args.n} exceeds {ORACLE_POINT_LIMIT}; pass --force-oracle to override"
        )
    elif want_oracle:
        t0 = time.perf_counter()
        exact = direct_sum(kernel, system)
        report.oracle_seconds = time.perf_counter() - t0
        report.oracle_ran = True
        scale = np.linalg.norm(exact)
        peak = np.max(np.abs(exact))
        diff = result.total - exact
        report.errors = {
            "rel_l2": float(np.linalg.norm(diff) / scale) if scale > 0 else 0.0,
            "rel_max": float(np.max(np.abs(diff)) / peak) if peak > 0 else 0.0,
        }
    return report


def _text_report(report):
    lines = []
    cfg = report.config
    lines.append(
        "kernel={kernel} dist={dist} n={n} depth={depth} tol={tol:g} "
        "compress_tol={compress_tol:g} train_res={train_res} seed={seed}".format(**cfg)
    )
    lines.append(
        f"cache: {'hit' if report.cache_hit else 'built'} "
        f"in {report.cache_build_seconds:.3f} s"
    )
    if report.terms_per_level:
        lines.append("level  terms  rank")
        for level in sorted(report.terms_per_level):
            rank = report.ranks_per_level.get(level, "")
            lines.append(f"{level:>5}  {report.terms_per_level[level]:>5}  {rank:>4}")
    if report.timings:
        parts = [f"{phase} {report.timings[phase]:.4f}" for phase in ALL_PHASES]
        lines.append("phase timings (s): " + "  ".join(parts))
    if report.oracle_ran:
        lines.append(
            f"oracle: rel l2 error {report.errors['rel_l2']:.3e}, "
            f"rel max error {report.errors['rel_max']:.3e} "
            f"(direct sum {report.oracle_seconds:.3f} s)"
        )
    elif report.oracle_skipped_reason:
        lines.append(f"oracle: skipped ({report.oracle_skipped_reason})")
    return "\n".join(lines) + "\n"


def _csv_report(report):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["section", "name", "level", "value"])
    for key, value in report.config.items():
        writer.writerow(["config", key, "", value])
    for level in sorted(report.terms_per_level):
        writer.writerow(["terms", "d", level, report.terms_per_level[level]])
    for level in sorted(report.ranks_per_level):
        writer.writerow(["rank", "r", level, report.ranks_per_level[level]])
    for phase in ALL_PHASES:
        if phase in report.timings:
            writer.writerow(["timing", phase, "", report.timings[phase]])
    writer.writerow(["cache", "hit", "", int(report.cache_hit)])
    writer.writerow(["cache", "build_seconds", "", report.cache_build_seconds])
    if report.errors is not None:
        for name, value in report.errors.items():
            writer.writerow(["error", name, "", value])
    return buf.getvalue()


def emit_report(report, fmt="text", path=None):
    """Render the report and write it to path or stdout; returns the text."""
    if fmt == "text":
        rendered = _text_report(report)
    elif fmt == "json":
        rendered = json.dumps(report.to_dict(), indent=2) + "\n"
    elif fmt == "csv":
        rendered = _csv_report(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is None:
        sys.stdout.write(rendered)
    else:
        with open(path, "w") as handle:
            handle.write(rendered)
    return rendered


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
                        help="compare against the exact direct sum")
    parser.add_argument("--force-oracle", action="store_true",
                        help="run the oracle even above the point-count guard")
    parser.add_argument("--ranks-only", action="store_true",
                        help="build the operators and report per-level sizes only")
    parser.add_argument("--cache", default=None, help="operator cache file")
    parser.add_argument("--out", default=None, help="report destination (default stdout)")
    parser.add_argument("--format", default="text", choices=("text", "json", "csv"))
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("--n must be positive")
    if args.depth is not None and args.depth < 2:
        parser.error("--depth must be at least 2")
    if args.tol <= 0 or (args.compress_tol is not None and args.compress_tol <= 0):
        parser.error("tolerances must be positive")
    try:
        report = run_benchmark(args)
        emit_report(report, fmt=args.format, path=args.out)
    except (CacheError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cli():
    sys.exit(main())


if __name__ == "__main__":
    cli()
