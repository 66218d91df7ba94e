"""Spans and counters recorded around fqgeom's public functions.

The tracer lives entirely in the benchmark: ``install`` replaces each
listed function or method with a wrapper that times the call, and no file
of the package changes.  A function that the package no longer has is
reported as absent instead of failing the run, so the traced run survives
refactors that delete or rename internals.

Each wrapped call is one frame.  A frame's self time is its duration minus
the time of the wrapped calls made directly inside it.  Frames of the
functions marked ``record`` are also kept as spans (name, start, end,
parent span), held in memory and written out when the pass ends; the hot
functions called thousands of times per pass are only aggregated, and a
span's parent is its nearest recorded ancestor.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc

# (metric prefix, module, attribute path, keep individual spans)
TARGETS = [
    ("gf.field_of_order", "fqgeom.gf", "field_of_order", False),
    ("geom.line_table", "fqgeom.geom", "AffineSpace.line_table", False),
    ("geom.line_points", "fqgeom.geom", "AffineSpace.line_points", False),
    ("geom.canonical_line", "fqgeom.geom", "AffineSpace.canonical_line", False),
    ("geom.proj_space", "fqgeom.geom", "proj_space", False),
    ("geom.ProjSpace.line_points", "fqgeom.geom", "ProjSpace.line_points", False),
    ("geom.ProjSpace.hyperplanes_through_line", "fqgeom.geom",
     "ProjSpace.hyperplanes_through_line", False),
    ("poly.MonomialBasis", "fqgeom.poly", "MonomialBasis.__init__", False),
    ("poly.interpolate_vanishing", "fqgeom.poly", "interpolate_vanishing", True),
    ("poly.constraint_rows_matrix", "fqgeom.poly", "constraint_rows_matrix", True),
    ("poly.multiplicity_at", "fqgeom.poly", "multiplicity_at", False),
    ("poly.shifted_coefficient", "fqgeom.poly", "MultiPoly.shifted_coefficient", False),
    ("poly.restrict_to_line", "fqgeom.poly", "restrict_to_line", True),
    ("linalg.rref_mod_p", "fqgeom.linalg", "rref_mod_p", True),
    ("linalg.rref_ctx", "fqgeom.linalg", "rref_ctx", False),
    ("kakeya.verify_kakeya", "fqgeom.kakeya", "verify_kakeya", True),
    ("kakeya.build_quadratic_residue_set", "fqgeom.kakeya",
     "build_quadratic_residue_set", True),
    ("kakeya.build_thin_kakeya_set", "fqgeom.kakeya", "build_thin_kakeya_set", True),
    ("kakeya.sample_fractional_subset", "fqgeom.kakeya", "sample_fractional_subset", True),
    ("kakeya.fractional_pipeline", "fqgeom.kakeya", "fractional_pipeline", True),
    ("nikodym.verify_nikodym", "fqgeom.nikodym", "verify_nikodym", True),
    ("incidence.count_incidences", "fqgeom.incidence", "count_incidences", True),
    ("incidence.mixing_discrepancy_check", "fqgeom.incidence",
     "mixing_discrepancy_check", True),
    ("hermitian.build_hermitian", "fqgeom.hermitian", "build_hermitian", True),
    ("hermitian.build_tangent_line_family", "fqgeom.hermitian",
     "build_tangent_line_family", True),
    ("hermitian.tangent_lines_at", "fqgeom.hermitian", "tangent_lines_at", False),
    ("hermitian.classify_line", "fqgeom.hermitian", "classify_line", False),
    ("io.save_pointset", "fqgeom.io", "save_pointset", True),
    ("io.load_pointset", "fqgeom.io", "load_pointset", True),
    ("io.save_linefamily", "fqgeom.io", "save_linefamily", True),
    ("cli.main", "fqgeom.cli", "main", True),
]

# (counter, module, attribute path): calls counted, not timed
COUNTED = [("gf.scalar_calls", "fqgeom.gf", f"FieldCtx.{op}")
           for op in ("add", "sub", "neg", "mul", "pow", "inv")]

STAGES = (
    "sampler-exhausted",
    "counting-not-in-paradox-regime",
    "restriction-survives",
    "g0-vanishes-on-all-directions",
)

# every per-layer metric the traced run reports, with its unit; the
# comment names the end-to-end metric and workload it should move
PER_LAYER = [
    ("gf.scalar_calls", "count"),                          # extension.wall_s
    ("gf.field_of_order.s", "s"),                          # extension.wall_s
    ("geom.line_table.s", "s"),                            # verify.wall_s
    ("geom.line_table.calls", "count"),                    # verify.wall_s
    ("geom.line_table.alloc_mb", "MB"),                    # verify.peak_rss_mb
    ("geom.line_points.s", "s"),                           # pipeline.wall_s
    ("geom.line_points.calls", "count"),                   # pipeline.wall_s
    ("geom.canonical_line.calls", "count"),                # pipeline.wall_s
    ("geom.proj_space.s", "s"),                            # extension.wall_s
    ("geom.ProjSpace.line_points.s", "s"),                 # extension.wall_s
    ("geom.ProjSpace.line_points.calls", "count"),         # extension.wall_s
    ("geom.ProjSpace.hyperplanes_through_line.s", "s"),    # extension.wall_s
    ("geom.ProjSpace.hyperplanes_through_line.calls", "count"),
    ("poly.interpolate_vanishing.self_s", "s"),            # interpolate.wall_s
    ("poly.constraint_rows_matrix.s", "s"),                # interpolate.wall_s
    ("poly.constraint_rows_matrix.rows", "count"),         # interpolate.wall_s
    ("poly.multiplicity_at.s", "s"),                       # interpolate.wall_s
    ("poly.multiplicity_at.calls", "count"),               # interpolate.wall_s
    ("poly.shifted_coefficient.calls", "count"),           # interpolate, extension
    ("poly.restrict_to_line.s", "s"),                      # interpolate.wall_s
    ("poly.restrict_to_line.calls", "count"),              # interpolate.wall_s
    ("poly.MonomialBasis.s", "s"),                         # pipeline, interpolate
    ("linalg.rref_mod_p.s", "s"),                          # interpolate.wall_s
    ("linalg.rref_mod_p.cells", "count"),                  # interpolate.wall_s
    ("linalg.rref_ctx.s", "s"),                            # extension.wall_s
    ("linalg.rref_ctx.cells", "count"),                    # extension.wall_s
    ("kakeya.verify_kakeya.self_s", "s"),                  # verify.wall_s
    ("kakeya.build_quadratic_residue_set.s", "s"),         # verify.wall_s
    ("kakeya.sample_fractional_subset.s", "s"),            # pipeline.wall_s
    ("kakeya.sampler.attempts", "count"),                  # pipeline.wall_s
    ("kakeya.sampler.accept_ratio", "ratio"),              # pipeline.wall_s
] + [
    (f"kakeya.pipeline.stage.{s}", "count") for s in STAGES  # pipeline.wall_s
] + [
    ("nikodym.verify_nikodym.self_s", "s"),                # verify.wall_s
    ("incidence.count_incidences.s", "s"),                 # verify.wall_s
    ("incidence.mixing_discrepancy_check.s", "s"),         # verify.wall_s
    ("hermitian.build_hermitian.s", "s"),                  # extension.wall_s
    ("hermitian.build_tangent_line_family.s", "s"),        # extension.wall_s
    ("hermitian.tangent_lines_at.s", "s"),                 # extension.wall_s
    ("hermitian.classify_line.calls", "count"),            # extension.wall_s
    ("io.save_pointset.s", "s"),                           # verify.wall_s
    ("io.load_pointset.s", "s"),                           # verify.wall_s
    ("io.save_linefamily.s", "s"),                         # extension.wall_s
    ("cli.main.self_s", "s"),                              # verify, extension
    ("trace.overhead_s", "s"),                             # moves nothing
]

# the per-layer metrics that repeat exactly for a fixed seed
EXACT_SUFFIXES = (".calls", ".rows", ".cells")
EXACT_NAMES = ("gf.scalar_calls", "kakeya.sampler.attempts")


def is_exact(name: str) -> bool:
    return (name in EXACT_NAMES or name.endswith(EXACT_SUFFIXES)
            or name.startswith("kakeya.pipeline.stage."))


class Tracer:
    """Frames, spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent span index or -1]
        self.stats = {}      # prefix -> [calls, total seconds, self seconds]
        self.counters = {}   # counter name -> number
        self.absent = []     # "module:attribute" targets that do not exist
        self._stack = []     # open frames: [child seconds, nearest span index]

    def wrap(self, name, fn, record, observe=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else -1
            if record:
                frame = [0.0, len(spans)]
                spans.append([name, 0.0, 0.0, parent_span])
            else:
                frame = [0.0, parent_span]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if record:
                    spans[frame[1]][1] = start
                    spans[frame[1]][2] = end
                if observe is not None:
                    observe(self, args, kwargs, result, exc)

        return traced

    def count(self, counter, fn):
        counters = self.counters
        counters.setdefault(counter, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount


# -- observers: counts taken where the work happens -------------------------

def _rows(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.add("poly.constraint_rows_matrix.rows", int(result.shape[0]))


def _cells_mod_p(tracer, args, kwargs, result, exc):
    shape = getattr(args[0], "shape", None)
    if shape is not None and len(shape) == 2:
        tracer.add("linalg.rref_mod_p.cells", int(shape[0]) * int(shape[1]))


def _cells_ctx(tracer, args, kwargs, result, exc):
    rows = args[0]
    if rows:
        tracer.add("linalg.rref_ctx.cells", len(rows) * len(rows[0]))


def _sampler(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.add("kakeya.sampler.attempts", result.attempts)
        tracer.add("kakeya.sampler.accepted", 1)
    elif exc is not None and type(exc).__name__ == "RetryExhausted":
        cap = args[4] if len(args) > 4 else kwargs.get("retry_cap", 1000)
        tracer.add("kakeya.sampler.attempts", cap)


def _stage(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.add(f"kakeya.pipeline.stage.{result.stage}", 1)


OBSERVERS = {
    "poly.constraint_rows_matrix": _rows,
    "linalg.rref_mod_p": _cells_mod_p,
    "linalg.rref_ctx": _cells_ctx,
    "kakeya.sample_fractional_subset": _sampler,
    "kakeya.fractional_pipeline": _stage,
}


def _with_alloc(tracer, fn):
    """Add the bytes tracemalloc sees allocated (at peak) inside each call."""

    @functools.wraps(fn)
    def measured(*args, **kwargs):
        if tracemalloc.is_tracing():
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add("geom.line_table.alloc_bytes", tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    return measured


def _resolve(module, path):
    """(owner, attribute name, current value), or None when any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


def _rebind(orig, new):
    """Point every module-level name in the package bound to ``orig`` at
    ``new``, so that callers which imported the function by name see the
    wrapper too."""
    mods = [m for n, m in list(sys.modules.items()) if n.startswith("fqgeom.")]
    for mod in mods:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)


def install(tracer, targets=TARGETS, counted=COUNTED):
    """Wrap every target that exists; record the others as absent."""
    for name, module, path, record in targets:
        found = _resolve(module, path)
        if found is None:
            tracer.absent.append(f"{module}:{path}")
            continue
        owner, attr, orig = found
        fn = orig
        if name == "geom.line_table":
            fn = _with_alloc(tracer, fn)
        wrapped = tracer.wrap(name, fn, record, OBSERVERS.get(name))
        setattr(owner, attr, wrapped)
        if "." not in path:
            _rebind(orig, wrapped)
    for name, module, path in counted:
        found = _resolve(module, path)
        if found is None:
            tracer.absent.append(f"{module}:{path}")
            continue
        owner, attr, orig = found
        setattr(owner, attr, tracer.count(name, orig))


def layer_metrics(tracer):
    """Every PER_LAYER metric as {name: value}; a metric whose function is
    absent reads 0, and trace.overhead_s is left to the caller."""
    stats = tracer.stats
    counters = tracer.counters
    out = {}
    for name, _unit in PER_LAYER:
        prefix, _, kind = name.rpartition(".")
        if name in counters:
            value = counters[name]
        elif kind in ("s", "calls", "self_s") and prefix in stats:
            calls, total, self_s = stats[prefix]
            value = {"s": total, "calls": calls, "self_s": self_s}[kind]
        else:
            value = 0
        out[name] = value
    attempts = counters.get("kakeya.sampler.attempts", 0)
    accepted = counters.get("kakeya.sampler.accepted", 0)
    out["kakeya.sampler.accept_ratio"] = accepted / attempts if attempts else 0.0
    out["geom.line_table.alloc_mb"] = counters.get("geom.line_table.alloc_bytes", 0) / 2 ** 20
    return out
