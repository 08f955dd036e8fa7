import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

import eimfmm as ef
from eimfmm.eim import eim_build
from eimfmm.tree import training_grids


def small_training(dim=2, level=2, resolution=6):
    config = ef.TreeConfig(dimension=dim, side=1.0, depth=3)
    return training_grids(config, level, resolution)


def grid_residual(model, kernel, training):
    """Worst absolute interpolation error over the full training product."""
    points_x, points_y = training
    exact = kernel.pairwise(points_x, points_y)
    at_nodes_y = kernel.pairwise(points_x, model.y_points)
    at_nodes_x = kernel.pairwise(model.x_points, points_y)
    return np.abs(exact - at_nodes_y @ model.coefficients(at_nodes_x)).max()


@pytest.fixture(scope="module")
def laplace_model():
    # resolution 8 keeps the greedy well away from grid exhaustion at 1e-7
    kernel = ef.make_builtin_kernel("laplace")
    training = small_training(resolution=8)
    return kernel, training, eim_build(kernel, *training, 1e-7)


def test_training_set_validation():
    kernel = ef.make_builtin_kernel("gaussian")
    with pytest.raises(ValueError, match="non-empty"):
        eim_build(kernel, np.empty((0, 2)), np.ones((3, 2)), 1e-6)
    with pytest.raises(ValueError, match="point dimension"):
        eim_build(kernel, np.ones((3, 2)), np.ones((3, 3)), 1e-6)


def test_eim_build_validation():
    kernel, training = ef.make_builtin_kernel("gaussian"), small_training()
    with pytest.raises(ValueError, match="max_terms"):
        eim_build(kernel, *training, 1e-6, max_terms=0)
    for tolerance in (0.0, -1e-6, np.nan, np.inf):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            eim_build(kernel, *training, tolerance)


def test_eim_build_refuses_non_finite_or_vanishing_kernel():
    training = small_training()
    for value, reason in ((np.inf, "kernel must be finite on the training product"),
                          (0.0, "kernel vanishes on the entire training product")):
        kernel = ef.Kernel("constant", lambda d, v=value: np.full(d.shape[:-1], v), True)
        with pytest.raises(ValueError, match=reason):
            eim_build(kernel, *training, 1e-6)


def test_coefficients_refuse_wrong_leading_size(laplace_model):
    _, _, model = laplace_model
    for solve in (model.coefficients, model.coefficients_t):
        with pytest.raises(ValueError, match=f"expected leading size {model.d}, "
                                             f"got {model.d + 1}"):
            solve(np.ones((model.d + 1, 2)))


def test_certified_stop_and_history(laplace_model):
    kernel, training, model = laplace_model
    h = model.residual_history
    assert len(h) == model.d + 1
    assert h[-1] <= 1e-7 * h[0]
    assert h[0] == pytest.approx(np.abs(kernel.pairwise(*training)).max())


def test_certified_tail_matches_recomputation(laplace_model):
    # the incrementally tracked residual must agree with a from-scratch one
    # up to the d rank-one updates' accumulated roundoff
    kernel, training, model = laplace_model
    recomputed = grid_residual(model, kernel, training)
    slack = 10 * model.d * np.finfo(float).eps * model.residual_history[0]
    assert abs(recomputed - model.residual_history[-1]) <= slack


def test_cross_factorization_identity(laplace_model):
    kernel, _, model = laplace_model
    a = kernel.pairwise(model.x_points, model.y_points)
    assert np.max(np.abs(a - model.pivot_matrix @ model.basis_matrix.T)) < 1e-13


def test_triangular_structure(laplace_model):
    _, _, model = laplace_model
    gamma = model.pivot_matrix
    basis = model.basis_matrix
    # column zeroing is exact (pivot/pivot = 1), so the basis is exactly
    # unit lower triangular; row zeroing rounds twice, leaving ulp-level
    # dust above gamma's diagonal
    assert np.array_equal(basis, np.tril(basis))
    assert np.array_equal(np.diag(basis), np.ones(model.d))
    assert np.max(np.abs(basis)) <= 1.0 + 1e-15
    dust = np.max(np.abs(np.triu(gamma, 1)))
    assert dust <= 1e-13 * np.max(np.abs(gamma))
    assert np.all(np.diag(gamma) != 0.0)


def test_coefficients_match_dense_inverse(laplace_model):
    # oracle: the two triangular solves equal a dense solve against the
    # cross matrix itself
    kernel, _, model = laplace_model
    a = kernel.pairwise(model.x_points, model.y_points)
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal((model.d, 3))
    # both routes are backward stable; agreement degrades with cond(a)
    slack = 100 * np.finfo(float).eps * np.linalg.cond(a)
    dense = np.linalg.solve(a, rhs)
    ours = model.coefficients(rhs)
    assert np.max(np.abs(dense - ours)) < slack * np.max(np.abs(dense))
    dense_t = np.linalg.solve(a.T, rhs)
    ours_t = model.coefficients_t(rhs)
    assert np.max(np.abs(dense_t - ours_t)) < slack * np.max(np.abs(dense_t))


@pytest.mark.parametrize("tol", [1e-4, 1e-6])
@pytest.mark.parametrize("kernel_name", ef.builtin_kernel_names())
def test_coefficients_match_triangular_substitution(kernel_name, tol):
    # numpy's LU of a greedy factor exchanges no rows, so its solve is the
    # triangular substitution with the divisions moved into the multipliers.
    # The coefficients are as ill-conditioned as the node cross matrix (at
    # gaussian 1e-6 the two orders differ by 4e-10 of the largest), so they
    # are compared through the matrix both invert, relative to the
    # magnitudes it sums.
    kernel = ef.make_builtin_kernel(kernel_name)
    model = eim_build(kernel, *small_training(dim=3, resolution=5), tol)
    assert model.d > 5

    def reference(m, rhs, transpose):
        first, second = ((m.basis_matrix, m.pivot_matrix) if transpose
                         else (m.pivot_matrix, m.basis_matrix))
        z = solve_triangular(first, rhs, lower=True)
        return solve_triangular(second, z, lower=True, trans="T")

    rng = np.random.default_rng(3)
    for m in (model, model.transposed()):
        cross = m.pivot_matrix @ m.basis_matrix.T
        for rhs in (rng.standard_normal((m.d, 40)), rng.standard_normal(m.d)):
            for transpose, solve in ((False, m.coefficients), (True, m.coefficients_t)):
                expect = reference(m, rhs, transpose)
                got = solve(rhs)
                assert got.shape == expect.shape
                a = cross.T if transpose else cross
                scale = (np.abs(a) @ np.abs(expect)).max()
                assert np.abs(a @ (got - expect)).max() <= 1e-13 * scale


def test_node_exactness(laplace_model):
    # interpolant equals the kernel whenever either argument is a node
    kernel, (points_x, points_y), model = laplace_model
    kx = kernel.pairwise(model.x_points, points_y)
    ky = kernel.pairwise(points_x, model.y_points)
    a = kernel.pairwise(model.x_points, model.y_points)
    scale = np.abs(kx).max()
    assert np.max(np.abs(a @ model.coefficients(kx) - kx)) < 1e-12 * scale
    assert np.max(np.abs(ky @ model.coefficients(a) - ky)) < 1e-12 * scale


def test_selected_points_come_from_training(laplace_model):
    _, (points_x, points_y), model = laplace_model
    def rows_in(points, pool):
        pool_view = {tuple(p) for p in pool}
        return all(tuple(p) in pool_view for p in points)
    assert rows_in(model.x_points, points_x)
    assert rows_in(model.y_points, points_y)
    # nodes are distinct
    assert len({tuple(p) for p in model.x_points}) == model.d
    assert len({tuple(p) for p in model.y_points}) == model.d


def test_greedy_not_worse_than_svd_rank(laplace_model):
    # sigma_{d+1} <= sqrt(Nx*Ny) * max-residual: the greedy's certified
    # max-norm tail bounds the optimal rank at the blown-up threshold
    kernel, training, model = laplace_model
    matrix = kernel.pairwise(*training)
    svals = np.linalg.svd(matrix, compute_uv=False)
    bound = np.sqrt(matrix.size) * model.residual_history[-1]
    assert svals[model.d] <= bound
    # and the epsilon-rank at that threshold cannot exceed d
    assert np.sum(svals > bound) <= model.d


def test_transposed_model_swaps_roles(laplace_model):
    kernel, _, model = laplace_model
    t = model.transposed()
    assert np.array_equal(t.x_points, model.y_points)
    assert np.array_equal(t.y_points, model.x_points)
    assert t.d == model.d
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal(model.d)
    assert np.max(np.abs(t.coefficients(rhs) - model.coefficients_t(rhs))) < 1e-8
    assert np.max(np.abs(t.coefficients_t(rhs) - model.coefficients(rhs))) < 1e-8


def test_interpolate_single_pair(laplace_model):
    kernel, (points_x, points_y), model = laplace_model
    x = points_x[5]
    y = points_y[7]
    at_nodes_x = kernel.pairwise(model.x_points, y[np.newaxis, :])[:, 0]
    at_nodes_y = kernel.pairwise(x[np.newaxis, :], model.y_points)[0]
    approx = at_nodes_y @ model.coefficients(at_nodes_x)
    assert approx == pytest.approx(kernel.pairwise(x, y)[0, 0],
                                   abs=2e-8 * model.residual_history[0])


def test_interpolation_grid_error_within_tolerance():
    kernel = ef.make_builtin_kernel("gaussian")
    training = small_training(resolution=7)
    for tol in (1e-3, 1e-6, 1e-9):
        model = eim_build(kernel, *training, tol)
        err = grid_residual(model, kernel, training)
        assert err <= tol * model.residual_history[0] * (1 + 1e-12)


def test_tolerance_monotonicity():
    kernel = ef.make_builtin_kernel("multiquadric")
    training = small_training()
    sizes = [eim_build(kernel, *training, tol).d for tol in (1e-2, 1e-5, 1e-8)]
    assert sizes == sorted(sizes)


def test_max_terms_cap():
    kernel = ef.make_builtin_kernel("gaussian")
    training = small_training()
    model = eim_build(kernel, *training, 1e-300, max_terms=5)
    assert model.d == 5
    assert len(model.residual_history) == 6
    assert not model.degenerate


def test_degenerate_flag_on_numerically_exhausted_kernel():
    kernel = ef.make_builtin_kernel("gaussian")
    training = small_training()
    model = eim_build(kernel, *training, 1e-300, max_terms=300)
    assert model.degenerate
    assert model.residual_history[-1] < 1e-12 * model.residual_history[0]


def test_rank_one_kernel_stops_immediately():
    # exp(sum(x - y)) factorizes exactly, so one term suffices
    sep = ef.Kernel("separable", lambda d: np.exp(d.sum(axis=-1)), True)
    model = eim_build(sep, *small_training(), 1e-300, max_terms=50)
    assert model.d == 1


def _reference_greedy(kernel, training, tolerance, max_terms=300):
    """The greedy loop written plainly: an ``np.outer`` update and separate
    |resid| passes for the pivot row and the recorded residual."""
    resid = kernel.pairwise(*training)
    scale = float(np.abs(resid).max())
    history, rows, cols = [scale], [], []
    degenerate = False
    while True:
        i = int(np.argmax(np.max(np.abs(resid), axis=1)))
        j = int(np.argmax(np.abs(resid[i])))
        pivot = resid[i, j]
        if abs(pivot) <= 1e-14 * scale:
            degenerate = True
            break
        col = resid[:, j].copy()
        row = resid[i] / pivot
        rows.append(i)
        cols.append(j)
        resid -= np.outer(col, row)
        history.append(float(np.abs(resid).max()))
        if history[-1] <= tolerance * scale or len(rows) == max_terms:
            break
    return rows, cols, np.asarray(history), degenerate


@pytest.mark.parametrize(
    "case", ["laplace-3d-level3", "drift-2d", "gaussian-exhausted"]
)
def test_greedy_matches_reference_loop(case, drift_kernel):
    # the in-place update must select exactly the nodes of the plain loop,
    # also where symmetric grids make exact ties (laplace at resolution 4)
    # and in the noise-level tail of an exhausted kernel
    kernel, training, tol = {
        "laplace-3d-level3": (ef.make_builtin_kernel("laplace"),
                              small_training(dim=3, level=3, resolution=4), 1e-6),
        "drift-2d": (drift_kernel, small_training(), 1e-8),
        "gaussian-exhausted": (ef.make_builtin_kernel("gaussian"),
                               small_training(), 1e-300),
    }[case]
    model = eim_build(kernel, *training, tol)
    rows, cols, history, degenerate = _reference_greedy(kernel, training, tol)
    assert np.array_equal(model.x_points, training[0][rows])
    assert np.array_equal(model.y_points, training[1][cols])
    assert model.d == len(rows)
    assert model.degenerate == degenerate
    # same arithmetic in the same order, so the history is bitwise equal
    assert np.array_equal(model.residual_history, history)
    if case == "gaussian-exhausted":
        assert degenerate


def _reference_factors(kernel, training, rows, cols):
    """The two factors of the plain loop run through the given pivots."""
    resid = kernel.pairwise(*training)
    basis, pivots = [], []
    for i, j in zip(rows, cols):
        col = resid[:, j].copy()
        row = resid[i] / resid[i, j]
        basis.append(row[cols])
        pivots.append(col[rows])
        resid -= np.outer(col, row)
    return np.stack(basis, axis=1), np.stack(pivots, axis=1)


@pytest.mark.parametrize("case", ["laplace-3d-level3", "drift-2d"])
def test_greedy_factors_are_the_reference_loop_bytes(case, drift_kernel):
    # retired columns leave the update, and their entries of a later basis
    # row come back as 0.0 / pivot: the factors' bytes, zero signs included,
    # are those of the plain loop over every column
    kernel, training, tol = {
        "laplace-3d-level3": (ef.make_builtin_kernel("laplace"),
                              small_training(dim=3, level=3, resolution=4), 1e-6),
        "drift-2d": (drift_kernel, small_training(), 1e-8),
    }[case]
    model = eim_build(kernel, *training, tol)
    rows, cols, _, _ = _reference_greedy(kernel, training, tol)
    basis, pivots = _reference_factors(kernel, training, rows, cols)
    assert np.signbit(np.triu(basis, 1)).any()
    assert model.basis_matrix.tobytes() == basis.tobytes()
    assert model.pivot_matrix.tobytes() == pivots.tobytes()


def test_greedy_breaks_column_ties_to_the_lowest_training_index():
    # x nodes on the symmetry axes of a cell-centered y grid tie pairs of y
    # columns exactly, also after a retired column's slot has taken the
    # last active one, which then sits before a tied column of lower index
    kernel = ef.make_builtin_kernel("multiquadric")
    points_y = small_training(resolution=4)[1]
    t = 1.5
    points_x = np.array([(t, 0.0), (0.0, t), (t, t), (-t, 0.0), (t, 0.3),
                         (0.0, -t), (t, -t), (-t, t), (2 * t, 0.0)])
    model = eim_build(kernel, points_x, points_y, 1e-6)
    rows, cols, history, _ = _reference_greedy(kernel, (points_x, points_y), 1e-6)
    assert np.array_equal(model.x_points, points_x[rows])
    assert np.array_equal(model.y_points, points_y[cols])
    assert np.array_equal(model.residual_history, history)


def test_greedy_stops_when_every_column_retires():
    # five source nodes, fewer than the terms the tolerance asks for: the
    # fifth term zeroes the residual exactly and the greedy stops on it
    kernel = ef.make_builtin_kernel("laplace")
    points_x, points_y = small_training()
    training = (points_x, points_y[:5])
    model = eim_build(kernel, *training, 1e-300)
    rows, cols, history, degenerate = _reference_greedy(kernel, training, 1e-300)
    assert model.d == len(cols) == 5 and sorted(cols) == list(range(5))
    assert not model.degenerate and not degenerate
    assert model.residual_history[-1] == 0.0
    assert np.array_equal(model.residual_history, history)
    assert np.array_equal(model.y_points, points_y[cols])
    basis, pivots = _reference_factors(kernel, training, rows, cols)
    assert model.basis_matrix.tobytes() == basis.tobytes()
    assert model.pivot_matrix.tobytes() == pivots.tobytes()


def test_greedy_is_bitwise_the_same_on_any_thread_count(monkeypatch):
    # blocks of three columns in stripes over 1, 2, 3 and 8 threads that
    # switch every microsecond: a stripe lost or torn between threads would
    # change the row maxima, and with them the nodes or the history
    kernel = ef.make_builtin_kernel("laplace")
    training = small_training(dim=3, level=3, resolution=5)
    monkeypatch.setattr(ef.kernels, "_EVAL_CHUNK", 3 * training[0].shape[0])
    interval = sys.getswitchinterval()
    models = []
    for cores in (1, 2, 3, 8):
        monkeypatch.setattr(ef.kernels, "_process_cores", lambda n=cores: n)
        sys.setswitchinterval(1e-6)
        try:
            models.append(eim_build(kernel, *training, 1e-6))
        finally:
            sys.setswitchinterval(interval)
    assert models[0].d > 30
    for model in models[1:]:
        for name in ("x_points", "y_points", "basis_matrix", "pivot_matrix",
                     "residual_history"):
            assert getattr(model, name).tobytes() == getattr(models[0], name).tobytes()


def test_greedy_on_one_cpu_starts_no_thread(monkeypatch):
    kernel = ef.make_builtin_kernel("laplace")
    training = small_training(dim=3, level=3, resolution=5)
    monkeypatch.setattr(ef.kernels, "_EVAL_CHUNK", 3 * training[0].shape[0])
    monkeypatch.setattr(ef.kernels, "_process_cores", lambda: 1)
    before, during = threading.active_count(), []
    run_together = ef.kernels._run_together

    def counted(pool, tasks):
        during.append(threading.active_count())
        return run_together(pool, tasks)

    monkeypatch.setattr(ef.kernels, "_run_together", counted)
    model = eim_build(kernel, *training, 1e-6)
    assert len(during) == model.d and set(during) == {before}
    assert threading.active_count() == before


def test_greedy_independent_of_chunk_budget(monkeypatch):
    kernel = ef.make_builtin_kernel("laplace")
    training = small_training(dim=3, level=3, resolution=5)
    n_rows, n_cols = training[0].shape[0], training[1].shape[0]
    full = eim_build(kernel, *training, 1e-6)
    # fill chunks of seven whole rows (update blocks of one column), then
    # two fill chunks (blocks of 62 columns); each leaves a shorter last one
    for rows in (7, n_rows // 2 + 1):
        assert n_rows % rows != 0
        monkeypatch.setattr(ef.kernels, "_EVAL_CHUNK", rows * n_cols + 3)
        chunked = eim_build(kernel, *training, 1e-6)
        for name in ("x_points", "y_points", "basis_matrix", "pivot_matrix",
                     "residual_history"):
            assert np.array_equal(getattr(chunked, name),
                                  getattr(full, name)), (rows, name)


def test_greedy_holds_one_residual():
    # every other array is a pivot row or column, or a few chunks of kernel
    # values: the fill's displacements and the update's cross block
    kernel = ef.make_builtin_kernel("laplace")
    config = ef.TreeConfig(dimension=3, side=1.0, depth=3)
    training = training_grids(config, 3, 6, 1024)
    n_rows, n_cols = training[0].shape[0], training[1].shape[0]
    assert n_cols < ef.kernels._EVAL_CHUNK
    tracemalloc.start()
    try:
        model = eim_build(kernel, *training, 1e-6, max_terms=66)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    residual = 8 * n_rows * n_cols
    pivots = 8 * model.d * (n_rows + n_cols)
    assert peak <= residual + pivots + 8 * (8 * ef.kernels._EVAL_CHUNK)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_coefficients_solve_property(seed):
    # property: for any rhs, A @ coefficients(rhs) == rhs
    kernel = ef.make_builtin_kernel("gaussian")
    model = eim_build(kernel, *small_training(resolution=4), 1e-6)
    a = kernel.pairwise(model.x_points, model.y_points)
    rhs = np.random.default_rng(seed).standard_normal(model.d)
    back = a @ model.coefficients(rhs)
    assert np.max(np.abs(back - rhs)) < 1e-8 * max(1.0, np.max(np.abs(rhs)))


def test_build_on_3d_levels_matches_2d_structure():
    kernel = ef.make_builtin_kernel("gaussian")
    config = ef.TreeConfig(dimension=3, side=1.0, depth=4)
    model = eim_build(kernel, *training_grids(config, 3, 5), 1e-4)
    assert model.x_points.shape[1] == model.y_points.shape[1] == 3
    assert model.d == len(model.x_points) == len(model.y_points)
