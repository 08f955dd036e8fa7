"""In-memory spans around the benchmark's calls into the library, and a
kernel wrapper that charges every kernel evaluation to the open span."""

import contextlib
import json
import threading
import time

import numpy as np

import eimfmm as ef


class NoTrace:
    """Stand-in used by the untraced run: every span is a no-op."""

    enabled = False

    def span(self, name, run):
        return contextlib.nullcontext()


class Tracer:
    """Spans (name, start, end, parent, run id) kept in a list until the
    run ends; kernel work is charged to the innermost open span."""

    enabled = True

    def __init__(self):
        self.spans = []
        self._open = []
        self._lock = threading.Lock()  # kernels may run on worker threads

    @contextlib.contextmanager
    def span(self, name, run):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "run": run,
            "kernel_evals": 0,
            "kernel_s": 0.0,
        }
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def charge(self, evals, seconds):
        with self._lock:
            if self._open:
                self._open[-1]["kernel_evals"] += evals
                self._open[-1]["kernel_s"] += seconds

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def self_times(self):
        """Span id -> duration minus the time its child spans cover.

        Spans on one thread nest strictly, so children never overlap."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def write(self, path, extra):
        t0 = self.spans[0]["start"] if self.spans else 0.0
        spans = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in self.spans]
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=spans), fh, indent=1)


def counting_kernel(base, tracer):
    """The same kernel under the same name (so the cache key is unchanged),
    counting evaluated values and the time spent in the profile (summed
    over threads where a caller evaluates on several)."""

    def profile(disp):
        t0 = time.perf_counter()
        values = base.from_displacements(disp)
        tracer.charge(int(np.prod(np.shape(disp)[:-1])), time.perf_counter() - t0)
        return values

    return ef.Kernel(base.name, profile, base.is_symmetric)
