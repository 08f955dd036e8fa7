"""Exact sum at a sample of targets, at O(m n) cost.

The full quadratic oracle is far too slow at these sizes, so every sweep is
checked at a seeded sample of targets instead.  Coincident pairs are masked
with the same squared-distance threshold the library's direct sum uses, so
singular kernels are safe when sources = targets.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

COINCIDENT_DISTANCE = 1e-300

# Bound on target-source pairs per chunk: keeps the displacement block near
# 6 MB, whatever the source count (larger blocks ran slower).
_PAIRS_PER_CHUNK = 1 << 18


def sampled_sum(kernel, targets, sources, weights):
    """Exact potentials at each target for one or more weight columns.

    ``weights`` is (n_sources,) or (n_sources, k); the result has shape
    (n_targets,) or (n_targets, k).  Chunks of targets run on one thread
    per core (NumPy releases the interpreter lock in these loops); each
    chunk is summed on its own, so the result does not depend on the
    thread count.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    weights = np.asarray(weights, dtype=float)
    out = np.empty((targets.shape[0],) + weights.shape[1:])
    step = max(1, _PAIRS_PER_CHUNK // max(1, sources.shape[0]))

    def chunk(start):
        disp = targets[start : start + step, None, :] - sources[None, :, :]
        r2 = np.sum(disp * disp, axis=-1)
        values = kernel.from_displacements(disp)
        values = np.where(r2 < COINCIDENT_DISTANCE, 0.0, values)
        out[start : start + step] = values @ weights

    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        list(pool.map(chunk, range(0, targets.shape[0], step)))  # re-raises
    return out


def rel_l2(approx, exact):
    """Relative l2 distance; inf when the reference is zero."""
    scale = float(np.linalg.norm(exact))
    diff = float(np.linalg.norm(np.asarray(approx) - exact))
    return diff / scale if scale > 0.0 else float("inf")
