"""Greedy empirical interpolation of a kernel on a pair of point domains.

The builder walks a residual matrix over the full training product, picking
at each step the row with the worst max-norm and the worst column within
that row, then subtracting the resulting rank-1 cross.  The residual is
the only array of the training product's size: it is allocated once in
Fortran order and filled straight from the kernel, a chunk of whole rows
at a time, then updated in place a block of whole columns at a time, each
chunk and block at most _EVAL_CHUNK values (or one row or column).  The
update rounds like a plain ``np.outer`` update; the row maxima of each
block are taken while it is still in cache, and they give both the
recorded max residual and the next step's row.  A built model keeps the
selected nodes plus two triangular factors; every linear action goes
through forward/back substitution, the inverses are never formed.

The solves run in numpy's LAPACK (``np.linalg.solve``), not in scipy's:
scipy ships its own OpenBLAS, whose worker threads keep spinning after a
call and take the cores from the single-threaded passes that follow, so a
plan or a sweep that called it would run beside two BLAS pools.  Each
solve factors the node cross matrix, the product of the two factors, again
(O(d^3), against the O(d^2) per right-hand side of the substitutions).
Partial pivoting exchanges no rows there: each greedy pivot is the largest
residual of its column from the diagonal down, and the unit lower
triangular basis has no entry above 1 in magnitude (a tie keeps the
diagonal, the first maximum), so the LU recovers the two factors, with
the pivots moved from one to the other, and the solve runs the same two
substitutions.  One np.linalg.solve per factor would run four: its
LU of a triangular factor has an identity or a diagonal for the other
triangle, which LAPACK substitutes through at full cost.
"""

import numpy as np

from . import kernels

# A pivot this far below the first residual means the kernel section has
# numerically exhausted its rank on the training grid.
_PIVOT_FLOOR = 1e-14


def require_tolerance(name, value):
    """Refuse a tolerance that is not a positive finite number: NaN or
    infinity would stop every greedy or truncation rule at rank zero."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


class EimModel:
    """Separable kernel approximant selected greedily from training grids.

    The approximation of K(x, y) is (row of kernel values at the y nodes)
    times coefficients(column of kernel values at the x nodes), where
    ``coefficients`` inverts the node cross matrix K(x_m, y_l) through two
    triangular solves.  Models are immutable once built.

    ``cross_matrix`` is that matrix as the product of the two factors; a
    model from ``transposed()`` holds its source's, transposed, so the pair
    solves bitwise alike.
    """

    def __init__(self, x_points, y_points, basis_matrix, pivot_matrix,
                 residual_history, degenerate=False):
        self.x_points = np.asarray(x_points, dtype=float)
        self.y_points = np.asarray(y_points, dtype=float)
        # basis_matrix[l, m]: m-th greedy basis function at the l-th y node;
        # unit lower triangular by construction.
        self.basis_matrix = np.asarray(basis_matrix, dtype=float)
        # pivot_matrix[m, j]: residual after j-1 terms at (x_m, y_j); lower
        # triangular, greedy pivots on the diagonal.
        self.pivot_matrix = np.asarray(pivot_matrix, dtype=float)
        self.residual_history = np.asarray(residual_history, dtype=float)
        self.degenerate = bool(degenerate)
        self.cross_matrix = self.pivot_matrix @ self.basis_matrix.T

    @property
    def d(self):
        """Number of interpolation terms."""
        return self.x_points.shape[0]

    def coefficients(self, rhs):
        """Map kernel samples at the x nodes to coefficients on the y basis.

        Accepts a vector of length d or a (d, n) block of columns.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.d:
            raise ValueError(f"expected leading size {self.d}, got {rhs.shape[0]}")
        return np.linalg.solve(self.cross_matrix, rhs)

    def coefficients_t(self, rhs):
        """Transpose of :meth:`coefficients` (same cross matrix)."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.d:
            raise ValueError(f"expected leading size {self.d}, got {rhs.shape[0]}")
        return np.linalg.solve(self.cross_matrix.T, rhs)

    def transposed(self):
        """Model for the swapped domain pair of a symmetric kernel.

        Node sets exchange roles and the coefficient action transposes;
        no new greedy run is needed.
        """
        diag = np.diag(self.pivot_matrix).copy()
        twin = EimModel(
            x_points=self.y_points,
            y_points=self.x_points,
            basis_matrix=self.pivot_matrix / diag[np.newaxis, :],
            pivot_matrix=self.basis_matrix * diag[np.newaxis, :],
            residual_history=self.residual_history,
            degenerate=self.degenerate,
        )
        # the product of the rescaled factors rounds differently, and the
        # solves amplify that by the condition number
        twin.cross_matrix = self.cross_matrix.T
        return twin

    def __repr__(self):
        return f"EimModel(d={self.d})"


def eim_build(kernel, points_x, points_y, tolerance, max_terms=300):
    """Select interpolation nodes, x among points_x and y among points_y,
    until the residual over their product is small.

    Stops once the max residual over the training product drops below
    tolerance relative to its starting value, or after max_terms terms, or
    early (with the degenerate flag set) when the pivot collapses.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    require_tolerance("tolerance", tolerance)
    px, py = (np.atleast_2d(np.asarray(p, dtype=float)) for p in (points_x, points_y))
    if px.size == 0 or py.size == 0:
        raise ValueError("training sets must be non-empty")
    if px.shape[1] != py.shape[1]:
        raise ValueError("training sets must share the point dimension")
    n_rows, n_cols = px.shape[0], py.shape[0]
    # Each chunk's row maxima are taken from its kernel values, so no
    # second residual-sized array is ever formed.
    resid = np.empty((n_rows, n_cols), order="F")
    row_max = np.empty(n_rows)
    step = max(1, kernels._EVAL_CHUNK // n_cols)
    for start in range(0, n_rows, step):
        values = kernel.pairwise(px[start:start + step], py)
        resid[start:start + step] = values
        np.abs(values).max(axis=1, out=row_max[start:start + step])
    # Residual columns updated together: the block and its cross stay in
    # cache between the subtraction and the row maxima.
    width = max(1, kernels._EVAL_CHUNK // n_rows)
    cross = np.empty((n_rows, width), order="F")
    block_max = np.empty(n_rows)
    # finite exactly when every kernel value is: NaN propagates through max
    scale = float(row_max.max())
    if not np.isfinite(scale):
        raise ValueError("kernel must be finite on the training product")
    if scale == 0.0:
        raise ValueError("kernel vanishes on the entire training product")

    history = [scale]
    rows_sel, cols_sel = [], []
    basis_rows = []   # full residual row / pivot, one per term
    pivot_cols = []   # full residual column at the pivot, one per term
    degenerate = False
    while True:
        # Worst row in max-norm, then the worst column inside it; ties break
        # to the lowest index so rebuilt caches are reproducible.
        i = int(np.argmax(row_max))
        j = int(np.argmax(np.abs(resid[i])))
        pivot = resid[i, j]
        if abs(pivot) <= _PIVOT_FLOOR * scale:
            degenerate = True
            break
        col = resid[:, j].copy()
        row = resid[i] / pivot
        rows_sel.append(i)
        cols_sel.append(j)
        basis_rows.append(row)
        pivot_cols.append(col)
        # np.outer rounds each product before the subtraction; a fused
        # multiply-add (BLAS dger) rounds once and can flip exact ties on
        # symmetric training grids, and with them the selected nodes.
        row_max.fill(0.0)
        for start in range(0, n_cols, width):
            block = resid[:, start:start + width]
            part = cross[:, :block.shape[1]]
            np.outer(col, row[start:start + width], out=part)
            np.subtract(block, part, out=block)
            np.abs(block, out=part).max(axis=1, out=block_max)
            np.maximum(row_max, block_max, out=row_max)
        history.append(float(row_max.max()))
        if history[-1] <= tolerance * scale or len(rows_sel) == max_terms:
            break

    rows_sel = np.asarray(rows_sel, dtype=np.intp)
    cols_sel = np.asarray(cols_sel, dtype=np.intp)
    # The rank-1 update zeroes its own pivot row and column exactly, so the
    # gathered matrices come out triangular without any cleanup.
    basis = np.stack([r[cols_sel] for r in basis_rows], axis=1)
    pivots = np.stack([c[rows_sel] for c in pivot_cols], axis=1)
    return EimModel(
        x_points=px[rows_sel],
        y_points=py[cols_sel],
        basis_matrix=basis,
        pivot_matrix=pivots,
        residual_history=np.asarray(history),
        degenerate=degenerate,
    )

