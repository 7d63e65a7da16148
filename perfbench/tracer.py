"""Outside-in tracer: spans and counters around calls into ruledkit.

Nothing inside `ruledkit` knows about tracing. `instrumented(tracer)`
rebinds each traced name, in every `ruledkit` module that holds it (and
on the classes that define the traced methods), to a wrapper that records
a span or bumps a counter. Leaving the `with` block restores every
original binding, also when the block raised.

Hot leaves (field `eval`, `jacobian_sigma`, `FramedCurve.frame_values`,
`ParameterMap.t` and the small kernels) are counted, not timed, to keep
the overhead down; their time stays in the enclosing span's self time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans and counters kept in memory until the run writes them out.

    A span is the tuple (id, parent, op, name, start, end). `parent` is
    the id of the span that was open when it started (None at the top)
    and `op` is the benchmark operation it belongs to, so the spans of
    one operation share that identifier. Counters are plain named totals.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op: str | None = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self.spans.append((sid, parent, self.op, name, time.perf_counter(), None))
        return sid

    def end(self, sid: int):
        end = time.perf_counter()
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {sid} closed out of order")
        self.spans[sid] = self.spans[sid][:5] + (end,)

    @contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (overlapping children count once)."""
    children = defaultdict(list)
    for sid, parent, _, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, _, _, start, end in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def aggregate(spans) -> dict[str, dict]:
    """Per span name: number of calls, total (inclusive) and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for sid, _, _, name, start, end in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += selfs[sid]
    return out


# -- what gets wrapped -------------------------------------------------------

def _span(name, on_result=None):
    def make(tracer, fn):
        def wrapper(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if on_result is not None:
                on_result(tracer.counts, result)
            return result
        return wrapper
    return make


def _count(*names):
    def make(tracer, fn):
        counts = tracer.counts

        def wrapper(*args, **kwargs):
            for n in names:
                counts[n] += 1
            return fn(*args, **kwargs)
        return wrapper
    return make


def _frame_values(tracer, fn):
    # a call is a miss when it triggered a field eval, a hit otherwise
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        before = counts["fields.eval.calls"]
        result = fn(*args, **kwargs)
        counts["parametric.frame_values.calls"] += 1
        if counts["fields.eval.calls"] == before:
            counts["parametric.frame_values.hits"] += 1
        return result
    return wrapper


def _add_fallbacks(counts, sheet):
    counts["striction.solve_striction.fallbacks"] += len(sheet.fallback_ts)


def _add_nfev(counts, fit):
    counts["striction.least_squares.nfev"] += int(fit.nfev)


#: module-level functions, by the ruledkit module that defines (or, for
#: scipy's least_squares, imports) them
FUNCTIONS = [
    ("scene", "ingest", _span("scene.ingest")),
    ("parametric", "gram_schmidt_frame", _span("parametric.gram_schmidt_frame")),
    ("analysis", "analyze", _span("analysis.analyze")),
    ("classify", "classify_patch", _span("classify.classify_patch")),
    ("classify", "converse_check", _span("classify.converse_check")),
    ("distribution", "degree_profile", _span("distribution.degree_profile")),
    ("distribution", "pivot_frame", _span("distribution.pivot_frame")),
    ("distribution", "rho_at", _span("distribution.rho_at")),
    ("ruledgeom", "second_form_scan", _span("ruledgeom.second_form_scan")),
    ("ruledgeom", "rank_one_check", _span("ruledgeom.rank_one_check")),
    ("ruledgeom", "first_normal_bounds_check", _span("ruledgeom.first_normal_bounds_check")),
    ("ruledgeom", "flatness_check", _span("ruledgeom.flatness_check")),
    ("ruledgeom", "tangent_space_stability", _span("ruledgeom.tangent_space_stability")),
    ("ruledgeom", "sectional_curvature", _span("ruledgeom.sectional_curvature")),
    ("ruledgeom", "jacobian_sigma", _count("ruledgeom.jacobian_sigma.calls")),
    ("striction", "assemble_system", _count("striction.assemble_system.calls")),
    ("striction", "solve_striction", _span("striction.solve_striction", _add_fallbacks)),
    ("striction", "singular_locus", _span("striction.singular_locus")),
    ("striction", "equivalent_condition_check", _span("striction.equivalent_condition_check")),
    ("striction", "striction_jacobian_rank", _count("striction.striction_jacobian_rank.calls")),
    ("striction", "directrix_invariance", _span("striction.directrix_invariance")),
    ("striction", "least_squares", _span("striction.least_squares", _add_nfev)),
    ("striction", "write_striction_csv", _span("striction.write_striction_csv")),
    ("multilinear", "wedge_norm", _count("multilinear.wedge_norm.calls")),
    ("multilinear", "numerical_rank", _count("multilinear.numerical_rank.calls")),
    ("exports", "write_json", _span("exports.write_json")),
    ("exports", "write_mesh_obj", _span("exports.write_mesh_obj")),
    ("oracles", "max_derivative_error", _span("oracles.max_derivative_error")),
    ("selftest", "run_selftest", _span("selftest.run_selftest")),
]


def _methods():
    """(class, attribute, wrapper factory) for the traced methods."""
    from ruledkit import fields, parametric

    out = [
        (fields.ParameterMap, "__init__", _span("fields.ParameterMap.init")),
        (fields.ParameterMap, "t", _count("fields.ParameterMap.t.calls")),
        (parametric.FramedCurve, "frame_values", _frame_values),
    ]
    todo, seen = list(fields.VectorField.__subclasses__()), set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        if "eval" in vars(cls):
            out.append((cls, "eval",
                        _count("fields.eval.calls", f"fields.{cls.__name__}.eval.calls")))
    return out


def ruledkit_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ruledkit" or name.startswith("ruledkit."))]


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind every traced name to a tracing wrapper for the block's duration.

    A function is rebound under every name that holds it in any loaded
    `ruledkit` module, so calls made through `from .x import f` bindings
    are seen as well as calls inside the defining module.
    """
    homes = {name: importlib.import_module(f"ruledkit.{name}")
             for name, _, _ in FUNCTIONS}
    modules = ruledkit_modules()
    saved = []
    try:
        for modname, attr, make in FUNCTIONS:
            original = getattr(homes[modname], attr)
            wrapper = make(tracer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for cls, attr, make in _methods():
            original = vars(cls)[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, make(tracer, original))
        yield tracer
    finally:
        for owner, key, original in reversed(saved):
            setattr(owner, key, original)
