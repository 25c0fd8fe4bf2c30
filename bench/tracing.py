"""Per-layer tracing of the superpenner package from outside it.

Tracer.install() rebinds each traced public function in every superpenner
module that holds it (so `decorated.ginv`, `checks.superflip`, the
`grassmann.gmul` global that GrassmannElement.__mul__ resolves, and so on
all reach the wrapper) and wraps the __init__ of the traced classes.
Tracer.uninstall() restores every binding.  Spans are recorded only
between begin_op() and end_op(), kept in memory as tuples and reduced to
per-layer metrics, and optionally written out, when the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "superpenner"

# module -> public names whose calls are spans; classes are traced through
# their __init__
TARGETS = {
    "grassmann": ("gmul", "ginv", "gsqrt", "glog", "parse_element"),
    "fatgraph": ("FatGraph", "topology", "boundary_cycles", "flip_quadrilateral",
                 "whitehead_flip", "find_isomorphisms"),
    "spin": ("enumerate_spin_classes", "brute_force_spin_classes", "flip_orientation",
             "reflection_vertices_between", "classify_punctures"),
    "decorated": ("superflip", "DecoratedState", "shear_coordinates"),
    "checks": ("random_decorated_state", "aligned_equal_mod_sign"),
    "fileio": ("load_state", "render_state"),
    "cli": ("main",),
}

# the vertex counts the three workloads flip at; the superflip latency
# curve reports one median per entry (0 where a workload has none)
CURVE_VERTICES = (4, 6, 8, 10, 32, 48, 64, 96, 128)


def _gmul_counts(counts, args, result):
    xs, ys = args[0].terms, args[1].terms
    counts["term_pairs"] += len(xs) * len(ys)
    counts["disjoint"] += sum(1 for s in xs for t in ys if not s & t)
    counts["peak_terms"] = max(counts["peak_terms"], len(result.terms))


def _parse_counts(counts, args, result):
    counts["terms"] += len(result.terms)


def _iso_counts(counts, args, result):
    if args[0].num_half_edges == args[1].num_half_edges:
        counts["targets"] += args[0].num_half_edges
    counts["found"] += len(result)


def _spin_counts(counts, args, result):
    counts["masks"] += 1 << args[0].num_edges
    counts["classes"] += len(result)


def _load_counts(counts, args, result):
    counts["bytes"] += len(args[0])


def _render_counts(counts, args, result):
    counts["bytes"] += len(result)


COUNTERS = {
    "grassmann.gmul": _gmul_counts,
    "grassmann.parse_element": _parse_counts,
    "fatgraph.find_isomorphisms": _iso_counts,
    "spin.enumerate_spin_classes": _spin_counts,
    "fileio.load_state": _load_counts,
    "fileio.render_state": _render_counts,
}


# per-layer quantities besides calls and self_ms, with their units
EXTRA_METRICS = {
    "grassmann.gmul": (("term_pairs", "count"), ("disjoint_share", "share"),
                       ("peak_terms", "count"), ("calls_per_flip", "calls/flip")),
    "grassmann.parse_element": (("terms", "count"),),
    "fatgraph.find_isomorphisms": (("targets", "count"), ("found_share", "share")),
    "spin.enumerate_spin_classes": (("masks", "count"), ("class_share", "share")),
    "fileio.load_state": (("bytes", "bytes"),),
    "fileio.render_state": (("bytes", "bytes"),),
}


def layer_metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, names in TARGETS.items():
        for name in names:
            key = "%s.%s" % (module, name)
            out += [(key + ".calls", "count"), (key + ".self_ms", "ms")]
            out += [("%s.%s" % (key, q), unit) for q, unit in EXTRA_METRICS.get(key, ())]
    out += [("decorated.superflip.p50_ms.V%d" % v, "ms") for v in CURVE_VERTICES]
    out.append(("trace.overhead_share", "share"))
    return out


class Tracer:
    """Span recorder for the functions in TARGETS.

    A span is (span_id, parent_id, op_id, name, t0, t1, t2): t1 - t0 is the
    call, t2 - t0 also covers the counting done after it, which is charged
    neither to the call nor to its parent.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.flip_ms = defaultdict(list)   # vertex count -> superflip durations
        self._stack = []
        self._next_id = 1
        self._op_id = 0
        self._op_t0 = 0.0
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, names in TARGETS.items():
            module = importlib.import_module("%s.%s" % (PACKAGE, module_name))
            for name in names:
                key = "%s.%s" % (module_name, name)
                original = getattr(module, name)
                if isinstance(original, type):
                    init = original.__dict__["__init__"]
                    self._restore.append((original, "__init__", init))
                    setattr(original, "__init__", self._wrap(key, init))
                    continue
                wrapper = self._wrap(key, original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore = []

    def _wrap(self, key, fn):
        count = COUNTERS.get(key)
        is_flip = key == "decorated.superflip"
        stack = self._stack
        spans = self.spans
        counts = self.counts[key]

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                stack.pop()
                spans.append((span_id, parent, self._op_id, key, t0, t1, t1))
                raise
            t1 = perf_counter()
            stack.pop()
            if count is not None:
                count(counts, args, result)
            if is_flip:
                self.flip_ms[args[0].graph.num_vertices].append((t1 - t0) * 1e3)
            spans.append((span_id, parent, self._op_id, key, t0, t1, perf_counter()))
            return result

        return traced

    # -- ops ------------------------------------------------------------------

    def begin_op(self):
        self._op_id = self._next_id
        self._next_id += 1
        self._stack.append(self._op_id)
        self._op_t0 = perf_counter()

    def end_op(self):
        self._stack.pop()
        t = perf_counter()
        self.spans.append((self._op_id, 0, self._op_id, "op", self._op_t0, t, t))

    # -- results --------------------------------------------------------------

    def layer_metrics(self, overhead_share):
        """Every metric of layer_metric_names(), as {name: value}."""
        covered = defaultdict(float)
        for _, parent, _, _, t0, _, t2 in self.spans:
            covered[parent] += t2 - t0
        calls = defaultdict(int)
        self_ms = defaultdict(float)
        for span_id, _, _, key, t0, t1, _ in self.spans:
            calls[key] += 1
            self_ms[key] += (t1 - t0 - covered[span_id]) * 1e3
        values = {}
        for module, names in TARGETS.items():
            for name in names:
                key = "%s.%s" % (module, name)
                values[key + ".calls"] = calls[key]
                values[key + ".self_ms"] = self_ms[key]
        c = self.counts
        gmul = c["grassmann.gmul"]
        values["grassmann.gmul.term_pairs"] = gmul["term_pairs"]
        values["grassmann.gmul.disjoint_share"] = _share(gmul["disjoint"], gmul["term_pairs"])
        values["grassmann.gmul.peak_terms"] = gmul["peak_terms"]
        values["grassmann.gmul.calls_per_flip"] = _share(
            calls["grassmann.gmul"], calls["decorated.superflip"])
        values["grassmann.parse_element.terms"] = c["grassmann.parse_element"]["terms"]
        iso = c["fatgraph.find_isomorphisms"]
        values["fatgraph.find_isomorphisms.targets"] = iso["targets"]
        values["fatgraph.find_isomorphisms.found_share"] = _share(iso["found"], iso["targets"])
        enum = c["spin.enumerate_spin_classes"]
        values["spin.enumerate_spin_classes.masks"] = enum["masks"]
        values["spin.enumerate_spin_classes.class_share"] = _share(enum["classes"], enum["masks"])
        values["fileio.load_state.bytes"] = c["fileio.load_state"]["bytes"]
        values["fileio.render_state.bytes"] = c["fileio.render_state"]["bytes"]
        for v in CURVE_VERTICES:
            times = self.flip_ms.get(v)
            values["decorated.superflip.p50_ms.V%d" % v] = (
                statistics.median(times) if times else 0.0)
        values["trace.overhead_share"] = overhead_share
        return values

    def write_spans(self, path):
        """Write every span as one tab-separated line, times in ns from the first."""
        base = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for span_id, parent, op_id, key, t0, t1, _ in self.spans:
                fh.write("%d\t%d\t%d\t%s\t%d\t%d\n" % (
                    span_id, parent, op_id, key,
                    round((t0 - base) * 1e9), round((t1 - base) * 1e9)))


def _share(part, whole):
    return part / whole if whole else 0.0
