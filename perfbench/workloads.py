"""The three benchmark workloads and their seeded inputs.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in README.md next to this file.
The library only ever receives the arrays made here.
"""

from dataclasses import dataclass

import numpy as np

# Surface points are pulled a relative 1e-9 inside the closed box.
_SPHERE_INSET = 1.0 - 1e-9

# Weights of every sweep are fresh positive combinations of this many seeded
# basis vectors, so the exact sum at the sampled targets is known for each
# sweep from one oracle pass over the basis.  Weights are nonnegative
# (masses, densities): with signed weights the exact sum cancels by a
# different amount for every draw, and the sampled relative error of one
# sweep swung by 5x between seeds at the same accuracy.
WEIGHT_BASIS = 8

# Warm sweeps per run, at the least, however short the window.
MIN_SWEEPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    kernel: str
    tolerance: float
    depth: int
    n_points: int
    distribution: str
    distinct_sources: bool
    builds_operators: bool   # True: built and saved inside setup_s
    setup_repeats: int       # setups per run; setup_s is their median
    # Targets at which every sweep is checked against the exact sum.  A few
    # targets carry much of the squared error, so fewer samples make
    # rel_l2_err swing between seeds; more make the oracle slower.
    oracle_targets: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="build-laplace-1e-6",
            kernel="laplace", tolerance=1e-6, depth=4, n_points=20_000,
            distribution="cube", distinct_sources=False,
            builds_operators=True, setup_repeats=1, oracle_targets=4000,
        ),
        Workload(
            name="sweep-gaussian-200k",
            kernel="gaussian", tolerance=1e-4, depth=5, n_points=200_000,
            distribution="cube", distinct_sources=False,
            builds_operators=False, setup_repeats=2, oracle_targets=600,
        ),
        Workload(
            name="sweep-laplace-sphere",
            kernel="laplace", tolerance=1e-4, depth=6, n_points=100_000,
            distribution="sphere", distinct_sources=True,
            builds_operators=False, setup_repeats=2, oracle_targets=1500,
        ),
    )
}


def _points(distribution, count, rng):
    if distribution == "cube":
        return rng.uniform(-0.5, 0.5, size=(count, 3))
    draw = rng.standard_normal((count, 3))
    norm = np.linalg.norm(draw, axis=1, keepdims=True)
    return draw / norm * (0.5 * _SPHERE_INSET)


@dataclass
class Inputs:
    targets: np.ndarray
    sources: np.ndarray          # the same object as targets when shared
    weight_basis: np.ndarray     # (n_sources, WEIGHT_BASIS)
    sample: np.ndarray           # sampled target indices for the oracle
    seed: int

    def coefficients(self, sweep):
        """Basis coefficients of one sweep's weights."""
        rng = np.random.default_rng([self.seed, 4, sweep])
        return rng.uniform(0.5, 1.5, size=WEIGHT_BASIS) / WEIGHT_BASIS

    def weights(self, sweep):
        return self.weight_basis @ self.coefficients(sweep)


def make_inputs(workload, seed):
    """Points, weights and oracle sample, all derived from the seed."""
    targets = _points(workload.distribution, workload.n_points,
                      np.random.default_rng([seed, 1]))
    if workload.distinct_sources:
        sources = _points(workload.distribution, workload.n_points,
                          np.random.default_rng([seed, 2]))
    else:
        sources = targets
    basis = np.random.default_rng([seed, 3]).uniform(
        0.0, 1.0, size=(sources.shape[0], WEIGHT_BASIS))
    sample = np.sort(np.random.default_rng([seed, 5]).choice(
        targets.shape[0], size=min(workload.oracle_targets, targets.shape[0]),
        replace=False))
    return Inputs(targets, sources, basis, sample, seed)
