"""In-memory span tracer attached from outside the library.

The tracer replaces module and class attributes of ``blocksolve`` with thin
wrappers that open a span around the original call, so the library itself
carries no tracing code. Each attribute is patched at the name its caller
looks up at call time (for example ``blocksolve.schwarz.ilu0_apply``, which
``ras_apply`` calls, rather than ``blocksolve.smoothers.ilu0_apply``).
``attach`` restores every original attribute on exit.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``op`` the operation id the benchmark set
when the span opened. Self time is a span's duration minus the durations of
its direct children; the run is single-threaded, so children never overlap.
"""

import os
import time
from contextlib import contextmanager
from functools import wraps

import blocksolve
import blocksolve.amg
import blocksolve.battery
import blocksolve.blockprec
import blocksolve.schwarz
import blocksolve.smoothers


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self.events = []          # (op, key, value) facts recorded at call sites
        self.matrix_labels = {}   # id(matrix) -> field name, set by the workload
        self._stack = []
        self._patched = []

    # -- span bookkeeping ---------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _inside(self, name):
        return bool(self._stack) and self.spans[self._stack[-1]][0] == name

    def record(self, key, value):
        self.events.append((self.op, key, value))

    # -- patching ---------------------------------------------------------
    def _patch(self, owner, attr, name, after=None, top_level_only=False):
        original = getattr(owner, attr)

        @wraps(original)
        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            if top_level_only and self._inside(span):
                return original(*args, **kwargs)
            self._open(span)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def attach(self):
        """Install every wrapper; restore the original attributes on exit."""
        try:
            for args in call_sites():
                self._patch(*args)
            yield self
        finally:
            self._restore()


# -- facts recorded after a call returns ---------------------------------
def _inner_label(args, kwargs):
    precon = kwargs.get("preconditioner", args[2] if len(args) > 2 else None)
    if isinstance(precon, blocksolve.blockprec.VoltageBgs):
        return "krylov.inner.voltage"
    return "krylov.inner.nonvoltage"


def _after_inner(tracer, args, kwargs, result):
    stats = result[1]
    label = _inner_label(args, kwargs).rsplit(".", 1)[1]
    tracer.record(f"krylov.inner_iterations.{label}", stats.iterations)
    tracer.record("krylov.inner_solves", 1)
    tracer.record("krylov.inner_unconverged", int(not stats.converged))


def _after_outer(tracer, args, kwargs, result):
    tracer.record("krylov.outer_iterations", result[1].iterations)


def _after_gmres(tracer, args, kwargs, result):
    tracer.record("krylov.iterations", result[1].iterations)


def _after_hierarchy(tracer, args, kwargs, result):
    field = tracer.matrix_labels.get(id(args[0]), "unlabelled")
    summary = result.summary()
    tracer.record(f"amg.levels.{field}", summary["levels"])
    tracer.record(f"amg.operator_complexity.{field}", summary["operator_complexity"])


def _after_ras_setup(tracer, args, kwargs, result):
    tracer.record("schwarz.subdomains", len(result.subdomains))
    tracer.record("schwarz.max_subdomain_rows",
                  max(len(sub.indices) for sub in result.subdomains))


def _after_ilu0_apply(tracer, args, kwargs, result):
    # computed, not counted by hardware: 2 flops per stored entry of the
    # combined L\U array, one multiply-add in the forward or backward sweep
    tracer.record("smoothers.ilu0_flops", 2 * args[0].data.size)


def _after_store(tracer, args, kwargs, result):
    tracer.record("mmio.bytes_written", os.path.getsize(args[1]))


def _after_load(tracer, args, kwargs, result):
    tracer.record("mmio.bytes_read", os.path.getsize(args[0]))


def call_sites():
    """(owner, attribute, span name, after-hook[, top-level only]) for every
    call into the library the workloads make, directly or through a module."""
    bs, amg, bp = blocksolve, blocksolve.amg, blocksolve.blockprec
    sch, sm, bat = blocksolve.schwarz, blocksolve.smoothers, blocksolve.battery
    return [
        # calls the benchmark makes through the package namespace
        (bs, "build_case", "battery.build_case"),
        (bs, "store_matrix_market", "mmio.store", _after_store),
        (bs, "load_matrix_market", "mmio.load", _after_load),
        (bs, "fgmres", "krylov.outer", _after_outer),
        (bs, "gmres", "krylov.gmres", _after_gmres),
        (bs, "build_electrochem_preconditioner", "blockprec.setup"),
        (bs, "build_hierarchy", "amg.setup", _after_hierarchy),
        # calls inside the library, patched where the caller looks them up
        (bat, "build_grid", "battery.build_grid"),
        (bp, "fgmres", _inner_label, _after_inner),
        (bp.BlockSystem, "submatrix", "blockprec.submatrix"),
        (bp.ElectrochemPreconditioner, "__call__", "blockprec.apply"),
        (bp.VoltageBgs, "__call__", "blockprec.bgs.voltage"),
        (bp.NonvoltageBgs, "__call__", "blockprec.bgs.nonvoltage"),
        (bp, "jacobi_apply", "smoothers.jacobi_apply"),
        (bp, "build_hierarchy", "amg.setup", _after_hierarchy),
        (bp, "partition_nodes", "schwarz.partition"),
        (bp, "extend_overlap", "schwarz.overlap"),
        (bp, "ras_setup", "schwarz.ras_setup", _after_ras_setup),
        (bp, "ras_apply", "schwarz.apply"),
        (sch, "ilu0_factor", "smoothers.ilu0_factor"),
        (sch, "ilu0_apply", "smoothers.ilu0_apply", _after_ilu0_apply),
        (amg, "strength_graph", "amg.strength"),
        (amg, "aggregate", "amg.aggregate"),
        (amg, "tentative_prolongator", "amg.prolongator"),
        (amg, "smooth_prolongator", "amg.prolongator"),
        (amg, "triple_product", "sparse.triple_product"),
        (amg, "dense_factor", "sparse.dense_factor"),
        (amg, "chebyshev_apply", "smoothers.chebyshev"),
        (amg, "estimate_lambda_max", "smoothers.power_iteration"),
        (sm, "estimate_lambda_max", "smoothers.power_iteration"),
        # vcycle recurses through the module global; count top-level calls
        (amg, "vcycle", "amg.vcycle", None, True),
    ]


def span_table(spans):
    """Per span: (name, op, inclusive seconds, self seconds)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[0], s[4], s[2] - s[1], s[2] - s[1] - c) for s, c in zip(spans, child)]


def layer_totals(spans, ops):
    """Sum inclusive time, self time and calls per span name over ``ops``."""
    totals = {}
    for name, op, incl, self_ in span_table(spans):
        if op not in ops:
            continue
        t = totals.setdefault(name, [0.0, 0.0, 0])
        t[0] += incl
        t[1] += self_
        t[2] += 1
    return totals
