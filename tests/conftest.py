"""Shared fixtures; heavy operator builds are session-scoped and reused."""

import numpy as np
import pytest

import eimfmm as ef


@pytest.fixture(scope="session")
def cube_cloud():
    rng = np.random.default_rng(1234)
    points = rng.uniform(-0.5, 0.5, size=(10_000, 3))
    potentials = rng.uniform(-1.0, 1.0, size=10_000)
    return points, potentials


@pytest.fixture(scope="session")
def drift_kernel():
    """A 2D Gaussian centred off the origin, so K(x, y) != K(y, x)."""
    bias = np.array([0.35, -0.2])

    def profile(disp):
        d = np.asarray(disp, dtype=float) + bias
        return np.exp(-np.sum(d * d, axis=-1))

    return ef.Kernel("drift-gauss", profile, is_symmetric=False)


@pytest.fixture(scope="session")
def cache_store():
    """Operator caches built once per session, keyed by (kernel, depth, tol)."""
    store = {}

    def get(kernel_name, depth, tol, **kwargs):
        key = (kernel_name, depth, tol, tuple(sorted(kwargs.items())))
        if key not in store:
            kernel = ef.make_builtin_kernel(kernel_name)
            config = ef.TreeConfig(dimension=3, side=1.0, depth=depth)
            store[key] = ef.build_operator_cache(kernel, config, tol, **kwargs)
        return store[key]

    return get


@pytest.fixture(scope="session")
def direct_store(cube_cloud):
    """Exact summations over the shared cloud, one per kernel."""
    points, potentials = cube_cloud
    system = ef.ParticleSystem(targets=points, sources=points, potentials=potentials)
    store = {}

    def get(kernel_name):
        if kernel_name not in store:
            kernel = ef.make_builtin_kernel(kernel_name)
            store[kernel_name] = ef.direct_sum(kernel, system)
        return store[kernel_name]

    return get
