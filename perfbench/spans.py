"""Span tracing for the benchmark, recorded from outside the program.

`Tracer.install` replaces every public function a boolres module exposes,
whether defined there or imported from another layer, with a wrapper that
records a span, and does the same for the public methods of the classes each
layer defines.  Patching the attribute in every module that holds it means
each call site sees the wrapper, for example `boolres.duality.solve_lp`,
`boolres.witness.fwht` and `boolres.cli.build_one_resilient`.  The program's
sources are not touched; `uninstall` puts the originals back.

A span is `[name, start, end, parent, job, counts]`: `name` is
`<layer>.<function>` after the module that defines the function, `parent` is
the index of the enclosing span (-1 at the root) and `counts` holds the
counters read off the arguments and result at that boundary.  Class
constructors are not wrapped, because `isinstance` checks need the real
class; their time lands in the caller's self time.  Everything runs on one
thread, so no span waits and no wait time is recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from time import perf_counter

LAYERS = (
    "cli", "zoo", "hypercube", "lp", "duality",
    "builder", "witness", "amplify", "designs", "learner",
)


def _lp_counts(args, kwargs, result):
    lp = args[0]
    m, n = lp.eq_matrix.shape
    free = int(sum(1 for lo, hi in zip(lp.lower, lp.upper)
                   if not math.isfinite(lo) and not math.isfinite(hi)))
    artificial = m if kwargs.get("initial_basis") is None else 0
    return {
        "pivots": result.iterations,
        "nonoptimal": int(result.status != "optimal"),
        # computed: the tableau _Simplex holds, rows x standardized columns
        "tableau_elems": m * (n + free + artificial),
    }


def _fwht_counts(args, kwargs, result):
    values = args[0]
    size = len(values)
    stages = size.bit_length() - 1
    # computed: one add/sub per element per stage; each stage reads and
    # writes the whole array
    return {
        "ops": stages * size,
        "bytes": 2 * stages * size * result.itemsize,
    }


def _cyclerun_counts(args, kwargs, result):
    return {"points": 1 << int(args[0])}


def _builder_counts(args, kwargs, result):
    return {"iterations": len(result.iterations)}


def _witness_counts(args, kwargs, result):
    return {"exact_certified": int(result.exact_zero_certified)}


def _amplify_counts(args, kwargs, result):
    return {"samples": result.samples}


COUNTERS = {
    "lp.solve_lp": _lp_counts,
    "hypercube.fwht": _fwht_counts,
    "zoo.cyclerun": _cyclerun_counts,
    "builder.build_one_resilient": _builder_counts,
    "witness.build_witness": _witness_counts,
    "amplify.amplification_report": _amplify_counts,
}


def _targets():
    """(owner, attribute, original, span name) for every patch point."""
    modules = {layer: importlib.import_module(f"boolres.{layer}") for layer in LAYERS}
    layer_of = {module.__name__: layer for layer, module in modules.items()}
    for layer, module in modules.items():
        for attr, value in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__ in layer_of:
                yield module, attr, value, f"{layer_of[value.__module__]}.{value.__name__}"
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for mattr, method in list(vars(value).items()):
                    if not mattr.startswith("_") and inspect.isfunction(method):
                        yield value, mattr, method, f"{layer}.{value.__name__}.{mattr}"


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                record[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            return
        for owner, attr, original, name in list(_targets()):
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, job, counts in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "job": job, "counts": counts,
                }) + "\n")


def layer_totals(spans: list[list], first: int, stop: int) -> dict[str, float]:
    """Additive per-layer sums over the spans `spans[first:stop]`.

    The slice must hold whole call trees, such as the spans of one job.
    Self time is a span's duration minus the durations of its direct
    children; children nest strictly inside their parent on one thread.
    Inclusive time of a function or a layer counts only its outermost
    spans, so recursion and calls within one layer are not counted twice.
    """
    part = spans[first:stop]
    child = [0.0] * len(part)
    for rec in part:
        if rec[3] >= first:
            child[rec[3] - first] += rec[2] - rec[1]

    def layer(name):
        return name.split(".", 1)[0]

    def has_ancestor(i, same):
        parent = part[i][3]
        while parent >= first:
            if same(part[parent - first][0]):
                return True
            parent = part[parent - first][3]
        return False

    totals = {f"{lay}.self_s": 0.0 for lay in LAYERS}
    totals.update({f"{lay}.busy_s": 0.0 for lay in LAYERS})
    for i, (name, start, end, _parent, _job, counts) in enumerate(part):
        duration = end - start
        lay = layer(name)
        totals[f"{lay}.self_s"] += duration - child[i]
        if not has_ancestor(i, lambda other: layer(other) == lay):
            totals[f"{lay}.busy_s"] += duration
        if not has_ancestor(i, lambda other: other == name):
            totals[f"{name}:incl_s"] = totals.get(f"{name}:incl_s", 0.0) + duration
        totals[f"{name}:calls"] = totals.get(f"{name}:calls", 0) + 1
        for key, value in (counts or {}).items():
            totals[f"{name}:{key}"] = totals.get(f"{name}:{key}", 0) + value
    return totals


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """The reported per-layer metrics, derived from `layer_totals` sums."""

    def get(key):
        return totals.get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{lay}.self_s": get(f"{lay}.self_s") for lay in LAYERS}
    pivots = get("lp.solve_lp:pivots")
    iterations = get("builder.build_one_resilient:iterations")
    out.update({
        "lp.busy_s": get("lp.busy_s"),
        "lp.solves": get("lp.solve_lp:calls"),
        "lp.pivots": pivots,
        "lp.s_per_pivot": ratio(get("lp.solve_lp:incl_s"), pivots),
        "lp.tableau_elems": get("lp.solve_lp:tableau_elems"),
        "lp.nonoptimal": get("lp.solve_lp:nonoptimal"),
        "duality.resilience_s": get("duality.distance_to_resilience:incl_s"),
        "duality.l1_s": get("duality.l1_poly_distance:incl_s"),
        "hypercube.fwht_s": get("hypercube.fwht:incl_s"),
        "hypercube.fwht_calls": get("hypercube.fwht:calls"),
        "hypercube.fwht_ops": get("hypercube.fwht:ops"),
        "hypercube.fwht_bytes": get("hypercube.fwht:bytes"),
        "zoo.cyclerun_s": get("zoo.cyclerun:incl_s"),
        "zoo.cyclerun_points": get("zoo.cyclerun:points"),
        "builder.build_s": get("builder.build_one_resilient:incl_s"),
        "builder.audit_s": get("builder.audit_invariants:incl_s"),
        "builder.iterations": iterations,
        "builder.audit_s_per_iteration": ratio(get("builder.audit_invariants:incl_s"), iterations),
        "witness.build_s": get("witness.build_witness:incl_s"),
        "witness.exact_certified": get("witness.build_witness:exact_certified"),
        "amplify.report_s": get("amplify.amplification_report:incl_s"),
        "amplify.samples_per_s": ratio(
            get("amplify.amplification_report:samples"),
            get("amplify.amplification_report:incl_s"),
        ),
        "designs.busy_s": get("designs.busy_s"),
        "learner.exact_s": get("learner.learn_exact:incl_s"),
        "learner.sampled_s": get("learner.learn_sampled:incl_s"),
    })
    return out
