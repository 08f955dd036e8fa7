"""The package exports exactly the names its callers use."""

import pathlib
import re

import numpy as np

import eimfmm as ef
from eimfmm.bench import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_names_are_exported():
    # the benchmark reaches the library only as ef.<name>
    used = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= set(re.findall(r"\bef\.([A-Za-z_]\w*)", path.read_text()))
    assert used
    assert used <= set(ef.__all__), sorted(used - set(ef.__all__))


def test_public_api_size():
    # the 25 names of the summation and its build steps, and the warning
    # of a greedy stopped at max_terms
    assert len(ef.__all__) == 26
    assert issubclass(ef.ToleranceNotReachedWarning, UserWarning)


def test_readme_api_section_lists_all():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    # list items and their indented continuation lines
    items = [line for line in section.splitlines() if line.startswith(("- ", "  "))]
    listed = re.findall(r"`([A-Za-z_]\w*)`", "\n".join(items))
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(ef.__all__)
    assert all(hasattr(ef, name) for name in ef.__all__)


def test_readme_usage_blocks_run():
    # every python block of the README, as a reader pastes them, in order
    # and in one session: a removed or renamed name, or a changed return
    # shape, fails here even when the API list above is in step
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    result = namespace["result"]
    assert np.array_equal(result.total, result.far_field + result.near_field)
    # the repeated sweeps: the last weight set's far field, timed per phase
    w, plan = namespace["weight_sets"][-1], namespace["plan"]
    assert np.array_equal(namespace["far"], plan.apply_far(w)[0])
    assert list(namespace["timings"]) == list(ef.fmm.FAR_PHASES)
    assert np.isfinite(namespace["total"]).all()


def test_readme_cli_flags_exist():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Benchmark CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(--[a-z][a-z-]*)", section))
    options = {opt for action in build_parser()._actions for opt in action.option_strings}
    assert "--oracle" in named
    assert named <= options, sorted(named - options)
