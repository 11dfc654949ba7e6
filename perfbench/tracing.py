"""Span recording for the traced benchmark run.

Tracing wraps public p2plreg names that callers look up at call time, so
no source file changes. While ``Tracer.installed()`` is active, every
loaded ``p2plreg`` module attribute bound to a traced object is replaced by
a recording wrapper; leaving the block restores the originals, so the
untraced runs of the traced benchmark execute the unmodified program.

Each span records its name, start, end, parent span and op id. Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (defining module, attribute, span name). The object is swapped in every
# p2plreg module holding a reference to it, which covers both the module
# attribute and every ``from .x import f`` binding made at import time.
TRACED = (
    ("p2plreg.cli", "cmd_register", "cli.register"),
    ("p2plreg.cli", "cmd_gradcheck", "cli.gradcheck"),
    ("p2plreg.fileio", "load", "fileio.load"),
    ("p2plreg.fileio", "save_transform", "fileio.save_transform"),
    ("p2plreg.solver", "icp", "solver.icp"),
    ("p2plreg.solver", "register_p2pl", "solver.register_p2pl"),
    ("p2plreg.correspond", "nn_correspond", "correspond.nn_correspond"),
    ("p2plreg.correspond", "match_matrix", "correspond.match_matrix"),
    ("p2plreg.correspond", "soft_pointers", "correspond.soft_pointers"),
    ("p2plreg.correspond", "reliability_weights", "correspond.reliability_weights"),
    ("p2plreg.eig3", "principal_direction", "eig3.principal_direction"),
    ("p2plreg.geometry", "apply_transform", "geometry.apply_transform"),
    ("p2plreg.gradient", "backward", "gradient.backward"),
    ("p2plreg.gradient", "chain_loss", "gradient.chain_loss"),
    ("p2plreg.gradient", "rigid_motion_loss", "gradient.rigid_motion_loss"),
    ("p2plreg.gradcheck", "fd_bundle", "gradcheck.fd_bundle"),
    ("p2plreg.gradcheck", "compare", "gradcheck.compare"),
    ("p2plreg.gradcheck", "make_instance", "gradcheck.make_instance"),
    ("p2plreg.metrics", "chamfer", "metrics.chamfer"),
    ("p2plreg.metrics", "rotation_errors", "metrics.rotation_errors"),
    ("p2plreg.synth", "make_cpu_pair", "synth.make_cpu_pair"),
    ("p2plreg.synth", "synth_shape", "synth.synth_shape"),
)

# Span fields, stored as lists for speed.
NAME, START, END, PARENT, OP, FAILED = range(6)


def _icp_stats(report):
    trace = report.energy_trace
    down = sum(b < a for a, b in zip(trace, trace[1:]))
    return report.iterations, bool(report.converged), down, max(len(trace) - 1, 0)


def _fd_solves(blocks):
    # Central differences: two perturbed solves per scalar input coordinate.
    n_x, n_y, n_n = (b.shape[0] * b.shape[2] for b in (blocks.wrt_x, blocks.wrt_y, blocks.wrt_n))
    return 2 * (n_x + n_y + n_n + blocks.wrt_zeta.shape[0])


# Span name -> function of the call's result whose value is kept per call.
OBSERVED = {"solver.icp": _icp_stats, "gradcheck.fd_bundle": _fd_solves}


class Tracer:
    """In-memory span recorder with install/restore of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.observed: dict[str, list] = defaultdict(list)  # name -> [(op, value)]
        self.op = None
        self._stack: list[int] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, False])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, failed: bool) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[FAILED] = failed
        self._stack.pop()

    def wrap(self, name: str, fn):
        observe = OBSERVED.get(name)

        def traced(*args, **kwargs):
            idx = self._enter(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                self._exit(idx, failed)
            if observe is not None:
                self.observed[name].append((self.op, observe(result)))
            return result

        traced.__wrapped__ = fn
        return traced

    def _tree_class(self, tree_cls):
        build = self.wrap("correspond.kdtree_build", tree_cls)
        query = self.wrap("correspond.kdtree_query", tree_cls.query)

        class TracedTree:
            """kd-tree proxy separating the build span from query spans."""

            def __init__(self, *args, **kwargs):
                self._tree = build(*args, **kwargs)

            def query(self, *args, **kwargs):
                return query(self._tree, *args, **kwargs)

            def __getattr__(self, attr):
                return getattr(self._tree, attr)

        return TracedTree

    @contextmanager
    def installed(self):
        """Swap every traced object for its wrapper; restore on exit."""
        swaps = []  # (module, attribute, original)
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "p2plreg"]
        for mod_name, attr, span_name in TRACED:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        swaps.append((mod, key, original))
                        setattr(mod, key, wrapper)
        correspond = sys.modules["p2plreg.correspond"]
        swaps.append((correspond, "cKDTree", correspond.cKDTree))
        correspond.cKDTree = self._tree_class(correspond.cKDTree)
        try:
            yield self
        finally:
            for mod, key, original in reversed(swaps):
                setattr(mod, key, original)

    def layer_times(self, ops):
        """Per span name: (calls, self seconds, failed calls, self times)
        over the spans whose op id is in ``ops``.

        A span's self time is its duration minus the durations of its
        direct children; children of one span never overlap because the
        program runs single-threaded under the benchmark's pinning.
        """
        ops = set(ops)
        child = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[str, list] = {}
        for idx, span in enumerate(self.spans):
            if span[OP] not in ops:
                continue
            self_s = span[END] - span[START] - child[idx]
            row = out.setdefault(span[NAME], [0, 0.0, 0, []])
            row[0] += 1
            row[1] += self_s
            row[2] += span[FAILED]
            row[3].append(self_s)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "parent": span[PARENT],
                    "op": span[OP],
                    "failed": span[FAILED],
                }) + "\n")
