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


@pytest.fixture(scope="session")
def monolevel_far_field():
    """Criterion 3's reference: a single-level far field in which every
    well-separated leaf pair transfers directly through the leaf models.
    Quadratic in the box count.  Called as (kernel, target tree, source
    tree, potentials in input order, the leaf level's LevelEims)."""

    def far(kernel, tgt, src, potentials, eims):
        config = tgt.config
        depth = config.depth
        if eims.level != depth:
            raise ValueError("monolevel pass needs the leaf-level models")
        sigma = np.asarray(potentials, dtype=float)[src.order]
        rad = eims.radiating
        recv = eims.receiving
        coeffs = rad.coefficients(
            ef.fmm._leaf_moments(kernel, src, rad.x_points, sigma).T).T

        tgt_multi = tgt.level_multi[depth]
        src_multi = src.level_multi[depth]
        chebyshev = np.abs(tgt_multi[:, None, :] - src_multi[None, :, :]).max(axis=2)
        t_idx, s_idx = np.nonzero(chebyshev >= 2)
        step = 2.0 * config.half_width(depth)
        sums = np.zeros((tgt_multi.shape[0], recv.d))
        # src minus tgt offsets name the transfer blocks, built on demand.
        pair_delta = src_multi[s_idx] - tgt_multi[t_idx]
        uniq, inverse = np.unique(pair_delta, axis=0, return_inverse=True)
        for u, off in enumerate(uniq):
            sel = np.flatnonzero(inverse == u)
            block = kernel.pairwise(recv.x_points, rad.y_points + step * off)
            sums[t_idx[sel]] += coeffs[s_idx[sel]] @ block.T
        local_coeffs = recv.coefficients(sums.T).T
        return ef.fmm._leaf_values(kernel, tgt, recv.y_points, local_coeffs)

    return far
