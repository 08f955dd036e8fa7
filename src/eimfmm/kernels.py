"""Translation-invariant kernels evaluated from point displacements.

Every kernel here is a pure function of x - y, so both arguments can be
shifted by a common vector without changing the value.  The far-field
machinery only ever evaluates kernels on well-separated argument pairs;
near-field summation masks out coincident pairs before calling in, so the
singular kernels may emit inf at r = 0 without consequence.
"""

import numbers
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_OSCILLATION_FREQ = 20.0
# Values per chunk of every bulk pass over kernel values, so that each
# chunk's temporaries stay cache-sized: the greedy residual fill and update,
# the leaf passes, the near-field build and direct_sum.
_EVAL_CHUNK = 2**16


def _process_cores():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _helper_pool(threads):
    """A pool for _run_together's tasks beside the calling thread: threads
    - 1 of them.  No thread starts before a task is submitted, so a pool
    for one thread starts none; shut it down with a with statement."""
    return ThreadPoolExecutor(max(1, threads - 1))


def _run_together(pool, tasks):
    """Run tasks[0] on the calling thread and the others on pool, and
    return once every one has ended; an exception of any leaves this call.
    numpy releases the interpreter lock in its array steps, so tasks made
    of such steps overlap on the process's CPUs."""
    futures = [pool.submit(task) for task in tasks[1:]]
    try:
        tasks[0]()
    finally:
        for future in futures:
            future.result()


class Kernel:
    """A two-point function K(x, y) that depends only on x - y.

    ``profile`` maps an (..., D) array of displacements to values of shape
    (...,).  Instances are immutable and safe to evaluate concurrently.

    ``scaling`` declares an integer degree p of homogeneity, K(a x, a y) =
    a^p K(x, y) for every a > 0, or None for no such promise.  The name
    identifies the kernel (operator caches are keyed by it), so a kernel
    named after a builtin that declares no scaling takes the builtin's: a
    wrapper around a builtin under its name (one that counts evaluations,
    say) builds the same operators as the builtin.
    """

    def __init__(self, name, profile, is_symmetric, scaling=None):
        if scaling is None:
            scaling = _SCALING.get(name)
        elif not isinstance(scaling, numbers.Integral):
            raise ValueError(f"scaling must be an integer degree or None, "
                             f"not {scaling!r}")
        self.name = name
        self._profile = profile
        self.is_symmetric = is_symmetric
        self.scaling = None if scaling is None else int(scaling)

    def from_displacements(self, disp):
        """Vectorized evaluation on an (..., D) array of x - y displacements."""
        return self._profile(np.asarray(disp, dtype=float))

    def pairwise(self, points_x, points_y):
        """Dense matrix of K(points_x[i], points_y[j])."""
        px = np.atleast_2d(np.asarray(points_x, dtype=float))
        py = np.atleast_2d(np.asarray(points_y, dtype=float))
        return self._profile(_displacements(px[:, None, :], py[None, :, :]))

    def __repr__(self):
        return (f"Kernel({self.name!r}, symmetric={self.is_symmetric}, "
                f"scaling={self.scaling})")


def _displacements(x, y):
    """x - y broadcast to (..., D), as the view of one contiguous plane per
    coordinate: each subtraction writes a whole plane, and a reduction over
    the view's last axis runs several times faster than over a contiguous
    innermost axis of length D.  Every kernel evaluation in the package
    takes its displacements in this layout, so a reduction such as the r^2
    of _radial rounds the same way wherever the pair is evaluated."""
    shape = np.broadcast_shapes(x.shape, y.shape)
    planes = np.empty((shape[-1],) + shape[:-1])
    for c, plane in enumerate(planes):
        np.subtract(x[..., c], y[..., c], out=plane)
    return np.moveaxis(planes, 0, -1)


def _radial(fn):
    # Divide-by-zero at coincident points is silenced here; callers on the
    # near-field path zero those entries out explicitly.
    def profile(disp):
        # the same r^2 reduction as the near field's coincident mask
        r = np.sqrt(np.einsum("...k,...k->...", disp, disp))
        with np.errstate(divide="ignore", invalid="ignore"):
            return fn(r)

    return profile


_BUILTINS = {
    "laplace": lambda r: 1.0 / r,
    "oscillatory": lambda r: np.cos(_OSCILLATION_FREQ * r) / r,
    "gaussian": lambda r: np.exp(-(r * r)),
    "multiquadric": lambda r: np.sqrt(r * r + 1.0),
}
# Degree p of the builtins with K(a d) = a^p K(d).
_SCALING = {"laplace": -1}


def make_builtin_kernel(name):
    """Return a builtin kernel by name.

    Supported: laplace (1/r), oscillatory (cos(20 r)/r), gaussian
    (exp(-r^2)), multiquadric (sqrt(r^2 + 1)), with r the Euclidean
    distance.  All four are symmetric.  laplace declares scaling=-1, so
    its operators are built at the deepest tree level only: coarser levels
    rescale its models and run its transfer operators.
    """
    try:
        fn = _BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTINS))
        raise ValueError(f"unknown kernel {name!r}; expected one of: {known}") from None
    return Kernel(name, _radial(fn), is_symmetric=True)


def builtin_kernel_names():
    return sorted(_BUILTINS)
