import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eimfmm as ef
from eimfmm.tree import level_geometry, training_grids

VECTORS = st.lists(
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    min_size=3, max_size=3,
)


def test_builtin_names_sorted_and_complete():
    names = ef.builtin_kernel_names()
    assert names == sorted(names)
    assert set(names) == {"laplace", "oscillatory", "gaussian", "multiquadric"}


def test_unknown_kernel_rejected():
    with pytest.raises(ValueError, match="nosuch"):
        ef.make_builtin_kernel("nosuch")


def test_reference_values():
    x = np.array([1.0, 0.0, 0.0])
    y = np.zeros(3)
    assert ef.make_builtin_kernel("laplace").evaluate(x, y) == pytest.approx(1.0)
    assert ef.make_builtin_kernel("gaussian").evaluate(x, y) == pytest.approx(np.exp(-1.0))
    assert ef.make_builtin_kernel("multiquadric").evaluate(x, y) == pytest.approx(np.sqrt(2.0))
    assert ef.make_builtin_kernel("oscillatory").evaluate(x, y) == pytest.approx(np.cos(20.0))
    # independent check at another radius
    x2 = np.array([0.3, -0.4, 1.2])  # |x2| = 1.3
    assert ef.make_builtin_kernel("laplace").evaluate(x2, y) == pytest.approx(1 / 1.3)
    assert ef.make_builtin_kernel("oscillatory").evaluate(x2, y) == pytest.approx(
        np.cos(26.0) / 1.3
    )


@pytest.mark.parametrize("name", ["laplace", "oscillatory", "gaussian", "multiquadric"])
def test_pairwise_matches_scalar(name):
    kernel = ef.make_builtin_kernel(name)
    rng = np.random.default_rng(0)
    px = rng.uniform(-1, 1, size=(7, 3))
    py = rng.uniform(-1, 1, size=(5, 3))
    mat = kernel.pairwise(px, py)
    assert mat.shape == (7, 5)
    for i in range(7):
        for j in range(5):
            assert mat[i, j] == pytest.approx(kernel.evaluate(px[i], py[j]), rel=1e-15)


def test_pairwise_rounds_like_an_in_order_sum():
    # The greedy build breaks ties in |residual| by index, so the last bit
    # of r^2 on the training product can change the chosen nodes.  pairwise
    # takes its displacements in the leaf passes' coordinate-plane layout,
    # where r^2 is summed coordinate by coordinate in order.
    config = ef.TreeConfig(dimension=3, side=1.0, depth=4)
    train = training_grids(level_geometry(config, 4), 7, 8192)
    values = ef.make_builtin_kernel("laplace").pairwise(train.points_x, train.points_y)
    d = train.points_x[:, None, :] - train.points_y[None, :, :]
    r2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2]
    assert values.shape == (10240, 343)
    assert np.array_equal(values, 1.0 / np.sqrt(r2))


@pytest.mark.parametrize("name", ["laplace", "oscillatory", "gaussian", "multiquadric"])
def test_from_displacements_any_shape(name):
    kernel = ef.make_builtin_kernel(name)
    rng = np.random.default_rng(1)
    disp = rng.uniform(-2, 2, size=(4, 6, 3))
    vals = kernel.from_displacements(disp)
    assert vals.shape == (4, 6)
    flat = kernel.from_displacements(disp.reshape(-1, 3))
    assert np.array_equal(vals.ravel(), flat)


@settings(max_examples=50)
@given(x=VECTORS, y=VECTORS)
def test_builtin_symmetry(x, y):
    x = np.asarray(x)
    y = np.asarray(y)
    for name in ef.builtin_kernel_names():
        kernel = ef.make_builtin_kernel(name)
        assert kernel.is_symmetric
        a = kernel.evaluate(x, y)
        b = kernel.evaluate(y, x)
        assert a == b or (np.isinf(a) and np.isinf(b))


def test_builtin_scaling_declarations():
    # laplace alone is homogeneous, of degree -1, and exactly so in floating
    # point at power-of-two factors
    laplace = ef.make_builtin_kernel("laplace")
    assert laplace.scaling == -1
    assert all(ef.make_builtin_kernel(name).scaling is None
               for name in ef.builtin_kernel_names() if name != "laplace")
    rng = np.random.default_rng(3)
    x, y = rng.uniform(-1, 1, size=(2, 20, 3))
    assert np.array_equal(laplace.pairwise(8.0 * x, 8.0 * y),
                          laplace.pairwise(x, y) / 8.0)
    # a kernel under a builtin's name takes its declaration unless it makes
    # its own; a new name declares nothing by default
    profile = laplace.from_displacements
    assert ef.Kernel("laplace", profile, True).scaling == -1
    assert ef.Kernel("laplace", profile, True, scaling=-2).scaling == -2
    assert ef.Kernel("inverse", profile, True).scaling is None
    assert ef.Kernel("inverse", profile, True, scaling=np.int64(-1)).scaling == -1


def test_translation_invariance():
    rng = np.random.default_rng(2)
    x, y, shift = rng.uniform(-1, 1, size=(3, 3))
    for name in ef.builtin_kernel_names():
        kernel = ef.make_builtin_kernel(name)
        assert kernel.evaluate(x + shift, y + shift) == pytest.approx(
            kernel.evaluate(x, y), rel=1e-12
        )


def test_dimension_generic():
    kernel = ef.make_builtin_kernel("gaussian")
    for dim in (1, 2, 3):
        x = np.full(dim, 0.5)
        assert kernel.evaluate(x, np.zeros(dim)) == pytest.approx(np.exp(-0.25 * dim))


def test_custom_kernel_flags():
    flat = ef.Kernel("flat", lambda d: np.ones(d.shape[:-1]), is_symmetric=False)
    assert not flat.is_symmetric
    assert flat.evaluate(np.ones(3), np.zeros(3)) == 1.0
