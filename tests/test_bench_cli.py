"""Point generators, report formats, and CLI behavior end to end.

Engine-running tests share one small depth-2 cache file so each CLI call
pays only for the sweep, not the operator build.  Every report goes to
stdout, which the tests read through capsys.
"""

import json

import numpy as np
import pytest

import eimfmm as ef
import eimfmm.bench as bench

# every engine run in this file uses the same cache key
COMMON = ["--kernel", "gaussian", "--depth", "2", "--tol", "1e-3",
          "--train-res", "5", "--x-budget", "256"]


@pytest.fixture(scope="module")
def cache_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "ops.bin"
    assert bench.main(COMMON + ["--ranks-only", "--cache", str(path)]) == 0
    return str(path)


# -- point generators --------------------------------------------------------


def test_generate_points_cube_bounds_and_determinism():
    pts = bench.generate_points("cube", 500, seed=4)
    assert pts.shape == (500, 3)
    assert np.abs(pts).max() < 0.5
    assert np.array_equal(pts, bench.generate_points("cube", 500, seed=4))
    assert not np.array_equal(pts, bench.generate_points("cube", 500, seed=5))


def test_generate_points_sphere_radius():
    pts = bench.generate_points("sphere", 400, seed=0)
    radii = np.linalg.norm(pts, axis=1)
    assert np.abs(radii - 0.5).max() <= 1e-9
    assert np.abs(pts).max() < 0.5  # strictly inside the box
    # the sphere ignores custom semi-axes
    custom = bench.generate_points("sphere", 400, seed=0, semi_axes=(0.4, 0.3, 0.2))
    assert np.array_equal(pts, custom)


def test_generate_points_ellipsoid_surface():
    axes = (0.5, 0.25, 0.125)
    pts = bench.generate_points("ellipsoid", 400, seed=1, semi_axes=axes)
    quad = np.sum((pts / np.asarray(axes)) ** 2, axis=1)
    assert np.abs(quad - 1.0).max() <= 1e-8
    assert np.abs(pts).max() < 0.5
    # oversized axes: the out-of-box samples are redrawn, the rest stay exact
    big = bench.generate_points("ellipsoid", 300, seed=2, semi_axes=(0.7, 0.2, 0.1))
    assert np.abs(big).max() < 0.5
    quad = np.sum((big / np.array([0.7, 0.2, 0.1])) ** 2, axis=1)
    assert np.abs(quad - 1.0).max() <= 1e-8


def test_generate_points_validation():
    with pytest.raises(ValueError):
        bench.generate_points("cube", 0, seed=0)
    with pytest.raises(ValueError):
        bench.generate_points("torus", 10, seed=0)
    with pytest.raises(ValueError):
        bench.generate_points("ellipsoid", 10, seed=0, semi_axes=(0.5, -0.1, 0.2))
    # an ellipsoid holding the whole box has no surface point inside it
    with pytest.raises(ValueError, match="inside the ellipsoid"):
        bench.generate_points("ellipsoid", 10, seed=0, semi_axes=(5.0, 5.0, 5.0))
    assert bench.main(["--kernel", "gaussian", "--dist", "ellipsoid",
                       "--semi-axes", "5", "5", "5", "--n", "10"]) == 1


# -- CLI exit codes ----------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["--kernel", "gaussian", "--n", "0"],
    ["--kernel", "gaussian", "--depth", "1"],
    ["--kernel", "gaussian", "--tol", "-1e-4"],
    ["--kernel", "gaussian", "--compress-tol", "0"],
    ["--kernel", "nosuch"],
    ["--kernel", "gaussian", "--train-res", "1"],
    ["--kernel", "gaussian", "--x-budget", "0"],
    ["--kernel", "gaussian", "--seed", "-1"],
    ["--kernel", "gaussian", "--ranks-only", "--oracle"],
    ["--kernel", "gaussian", "--tol", "nan"],
    ["--kernel", "gaussian", "--compress-tol", "inf"],
    ["--kernel", "gaussian", "--compress-tol", "nan"],
    # one report format per job, always on stdout
    ["--kernel", "gaussian", "--format", "csv"],
    ["--kernel", "gaussian", "--out", "report.txt"],
])
def test_cli_rejects_bad_arguments(argv):
    with pytest.raises(SystemExit) as err:
        bench.main(argv)
    assert err.value.code == 2


def test_cli_reports_runtime_failures(tmp_path, capsys):
    garbage = tmp_path / "ops.bin"
    garbage.write_bytes(b"not a cache file at all")
    code = bench.main(COMMON + ["--ranks-only", "--cache", str(garbage)])
    assert code == 1
    assert "error:" in capsys.readouterr().err

    good = tmp_path / "good.bin"
    assert bench.main(COMMON + ["--ranks-only", "--cache", str(good)]) == 0
    # same file, different tolerance: refused, not silently rebuilt
    argv = ["--kernel", "gaussian", "--depth", "2", "--tol", "2e-3",
            "--train-res", "5", "--x-budget", "256",
            "--ranks-only", "--cache", str(good)]
    assert bench.main(argv) == 1
    assert "error:" in capsys.readouterr().err

    # a cache path into a missing directory: the error names the directory,
    # not a temporary file that never existed
    missing = tmp_path / "missing"
    assert bench.main(COMMON + ["--ranks-only", "--cache", str(missing / "ops.bin")]) == 1
    assert capsys.readouterr().err == f"error: cache directory {str(missing)!r} does not exist\n"


# -- report content ----------------------------------------------------------


def test_cli_text_report(cache_file, capsys):
    code = bench.main(COMMON + ["--n", "400", "--oracle", "--cache", cache_file])
    assert code == 0
    out = capsys.readouterr().out
    assert "kernel=gaussian" in out
    for phase in bench.ALL_PHASES:
        assert phase in out
    assert "oracle: rel l2 error" in out
    assert "over 400 of 400 targets" in out
    assert "cache: hit" in out


def _without_timings(doc):
    doc = json.loads(json.dumps(doc))
    doc.pop("timings")
    doc["cache"].pop("build_seconds")
    doc["oracle"].pop("seconds")
    return doc


def test_cli_json_deterministic_apart_from_timings(cache_file, capsys):
    outs = []
    for run in range(2):
        code = bench.main(COMMON + ["--n", "400", "--seed", "11", "--oracle",
                                    "--cache", cache_file, "--format", "json"])
        assert code == 0
        outs.append(json.loads(capsys.readouterr().out))
    assert _without_timings(outs[0]) == _without_timings(outs[1])
    assert outs[0]["errors"]["rel_l2"] <= 100.0 * 1e-3
    assert outs[0]["oracle"]["targets"] == 400


def test_cli_ranks_only(cache_file, capsys):
    code = bench.main(COMMON + ["--ranks-only", "--cache", cache_file,
                                "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cache"]["hit"] is True
    assert doc["terms_per_level"]
    assert doc["ranks_per_level"]
    assert doc["timings"] == {}
    assert doc["oracle"]["targets"] == 0
    assert doc["errors"] is None


@pytest.fixture
def evaluated(monkeypatch):
    """The kernel, system and result of the bench's own evaluate call."""
    seen = {}

    def spy(kernel, system, *args, **kwargs):
        seen.update(kernel=kernel, system=system,
                    result=ef.evaluate(kernel, system, *args, **kwargs))
        return seen["result"]

    monkeypatch.setattr(bench, "evaluate", spy)
    return seen


def _errors(total, exact):
    diff = total - exact
    return {"rel_l2": float(np.linalg.norm(diff) / np.linalg.norm(exact)),
            "rel_max": float(np.abs(diff).max() / np.abs(exact).max())}


def test_oracle_sums_every_target_up_to_the_limit(cache_file, evaluated):
    assert 400 <= bench.ORACLE_TARGETS
    report = bench.run_benchmark(bench.build_parser().parse_args(
        COMMON + ["--n", "400", "--oracle", "--cache", cache_file]))
    system = evaluated["system"]
    full = ef.direct_sum(evaluated["kernel"], system)
    assert report["oracle"]["targets"] == 400
    assert report["errors"] == _errors(evaluated["result"].total, full)


def test_oracle_samples_seeded_targets(cache_file, evaluated, monkeypatch, capsys):
    monkeypatch.setattr(bench, "ORACLE_TARGETS", 100)
    docs = []
    for run in range(2):
        code = bench.main(COMMON + ["--n", "200", "--seed", "5", "--oracle",
                                    "--cache", cache_file, "--format", "json"])
        assert code == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert _without_timings(docs[0]) == _without_timings(docs[1])
    doc = docs[0]
    assert doc["oracle"]["targets"] == 100
    # 100 distinct targets drawn from the third stream of --seed, sorted
    sample = np.sort(np.random.default_rng(5 + 2).choice(200, 100, replace=False))
    system = evaluated["system"]
    exact = ef.direct_sum(evaluated["kernel"], ef.ParticleSystem(
        system.targets[sample], system.sources, system.potentials))
    assert doc["errors"] == _errors(evaluated["result"].total[sample], exact)
    assert doc["errors"]["rel_l2"] <= 100.0 * 1e-3
    assert doc["errors"]["rel_max"] <= 100.0 * 1e-3


def test_cache_reuse_reproduces_errors(tmp_path, capsys):
    path = tmp_path / "ops.bin"
    docs = []
    for run in range(2):
        code = bench.main(COMMON + ["--n", "400", "--oracle", "--cache", str(path),
                                    "--format", "json"])
        assert code == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0]["cache"]["hit"] is False
    assert docs[1]["cache"]["hit"] is True
    assert docs[0]["errors"] == docs[1]["errors"]


def test_parser_defaults():
    args = bench.build_parser().parse_args(["--kernel", "laplace"])
    assert args.dist == "cube"
    assert args.depth is None
    assert args.tol == 1e-4
    assert args.x_budget == 8192
    assert args.format == "text"
    assert not args.oracle and not args.ranks_only
