"""Benchmark of the superpenner library and CLI.

Run from the repository root:

    python3 bench/run.py --workload superwalk --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and NOTES.md): superwalk, classical, cli.  Each
is a single-process closed loop with one caller: the next op starts when
the previous one returns.  Set-up (importing the package and generating
graphs, states and documents) runs SETUP_REPEATS times and its median is
setup_s; then whole rounds of ops run until --seconds have passed and at
least MIN_OPS ops were made.

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1 every round runs twice on the same inputs, first untraced and
then traced, and the last line holds the per-layer metrics of the traced
runs; trace.overhead_share compares the op time of the two.
Every run writes its result, with the interpreter, platform, CPU count,
seed and source revision, under .bench_work/; traced runs also write
their spans there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from time import perf_counter

import tracing

PACKAGE = "superpenner"
BENCH_MODULES = ("workloads", "randgraph")
WORKDIR = ".bench_work"
SETUP_REPEATS = 3
MIN_OPS = 100
# Latencies and rates are reported at a reference machine speed: the speed
# at which reference_work() takes REFERENCE_MS.  Each run measures that
# loop every CALIBRATION_INTERVAL_S between its ops (see NOTES.md, "Noise").
REFERENCE_MS = 0.1
CALIBRATION_INTERVAL_S = 0.01
SCALED = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms")


def reference_work():
    """Fixed pure-Python work whose duration tracks the machine's speed."""
    d = {}
    for i in range(1000):
        k = i & 255
        d[k] = d.get(k, 0) + i
    return len(d)


class Recorder:
    """Times ops and counts failed ones; one failure per op at most."""

    def __init__(self, tracer=None):
        self.latencies = []
        self.failed = 0
        self.failures = Counter()
        self.tracebacks = {}
        self.max_err = 0.0
        self.calibration = []   # reference_work() durations, seconds
        self._tracer = tracer
        self._last_failed = True
        self._calibrated_at = 0.0

    def op(self, fn, *args):
        """fn(*args) as one timed op; its result, or None when it raised."""
        tracer = self._tracer
        if tracer is not None:
            tracer.begin_op()
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            self.latencies.append(perf_counter() - t0)
            self._last_failed = False
            self._fail(type(exc).__name__, traceback.format_exc())
            result = None
        else:
            self.latencies.append(perf_counter() - t0)
            self._last_failed = False
        finally:
            if tracer is not None:
                tracer.end_op()
        self._calibrate()
        return result

    def _calibrate(self):
        t0 = perf_counter()
        if t0 - self._calibrated_at >= CALIBRATION_INTERVAL_S:
            reference_work()
            self._calibrated_at = perf_counter()
            self.calibration.append(self._calibrated_at - t0)

    def slowdown(self):
        """Mean reference_work() time over REFERENCE_MS; samples over three
        times the median (the process was descheduled) are left out."""
        cap = 3 * statistics.median(self.calibration)
        kept = [x for x in self.calibration if x <= cap]
        return statistics.fmean(kept) * 1e3 / REFERENCE_MS

    def gate(self, name, fn, *args):
        """Check the last op's output: fn(*args) must be true and not raise."""
        try:
            ok = bool(fn(*args))
        except Exception as exc:
            self._fail("%s:%s" % (name, type(exc).__name__), traceback.format_exc())
            return False
        if not ok:
            self._fail(name)
        return ok

    def error(self, value):
        self.max_err = max(self.max_err, value)

    def _fail(self, reason, trace=None):
        self.failures[reason] += 1
        if trace is not None:
            self.tracebacks.setdefault(reason, trace)
        if not self._last_failed:
            self.failed += 1
            self._last_failed = True


def measure(run_round, rec, seconds):
    """Call run_round(0), run_round(1), ... until `seconds` have passed and
    rec holds MIN_OPS ops (or twice `seconds` have passed); return the count."""
    start = perf_counter()
    done = 0
    while True:
        elapsed = perf_counter() - start
        if elapsed >= seconds and (len(rec.latencies) >= MIN_OPS or elapsed >= 2 * seconds):
            return done
        run_round(done)
        done += 1


def traced_rounds(workload, rec, traced, tracer):
    """Each round twice on the same inputs: plain into rec, traced into traced.

    Alternating keeps both halves under the same machine conditions, so
    their op times give the tracing overhead."""
    def run_round(index):
        workload.run_round(index, rec)
        tracer.install()
        try:
            workload.run_round(index, traced)
        finally:
            tracer.uninstall()
    return run_round


def end_to_end(rec, setup_times, slowdown=1.0):
    """The end-to-end metrics; times are divided, and rates multiplied, by
    slowdown."""
    lat_ms = [x * 1e3 / slowdown for x in rec.latencies]
    return {
        "setup_s": (statistics.median(setup_times) / slowdown, "s"),
        "ops_per_s": (len(lat_ms) / sum(rec.latencies) * slowdown, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def fresh_import(src):
    """Import the workloads (and with them the package) from scratch."""
    for name in list(sys.modules):
        if name in BENCH_MODULES or name == PACKAGE or name.startswith(PACKAGE + "."):
            del sys.modules[name]
    module = importlib.import_module("workloads")
    origin = os.path.dirname(os.path.abspath(sys.modules[PACKAGE].__file__))
    if origin != os.path.join(src, PACKAGE):
        raise ImportError("%s was imported from %s, not from %s" % (PACKAGE, origin, src))
    return module


def git_commit(root):
    """HEAD's commit when root is a git checkout, else None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src):
    """sha256 over the package's source files, names and contents."""
    digest = hashlib.sha256()
    pkg = os.path.join(src, PACKAGE)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(args, root, src):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(src),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, PACKAGE, "__init__.py")):
        print("error: %s holds no src/%s; run from the repository root" % (root, PACKAGE),
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(root, WORKDIR, "%s-%d" % (args.workload, args.seed))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workloads = fresh_import(src)
        if args.workload not in workloads.WORKLOADS:
            print("error: unknown workload %r; choose from %s"
                  % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
            return 2
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_times.append(perf_counter() - t0)

    # the input pools are static: keep them out of the collector's scans, so
    # that pauses scale with what the ops allocate, not with the pool size
    gc.collect()
    gc.freeze()
    rec = Recorder()
    if args.trace:
        tracer = tracing.Tracer()
        traced = Recorder(tracer)
        rounds = measure(traced_rounds(workload, rec, traced, tracer), rec, args.seconds)
        overhead = sum(traced.latencies) / sum(rec.latencies) - 1
        units = dict(tracing.layer_metric_names())
        metrics = {k: (v, units[k]) for k, v in tracer.layer_metrics(overhead).items()}
        all_recs = (rec, traced)
    else:
        rounds = measure(lambda index: workload.run_round(index, rec), rec, args.seconds)
        slowdown = rec.slowdown()
        metrics = end_to_end(rec, setup_times, slowdown)
        raw = end_to_end(rec, setup_times)
        all_recs = (rec,)

    attempted = sum(len(r.latencies) for r in all_recs)
    failed = sum(r.failed for r in all_recs)
    failures = sum((r.failures for r in all_recs), Counter())
    max_err = max(r.max_err for r in all_recs)
    env = environment(args, root, src)
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)

    print("env: %s" % json.dumps(env, sort_keys=True))
    print("%s: %d rounds, %d ops, setup repeated %d times"
          % (args.workload, rounds, attempted, SETUP_REPEATS))
    for name, (value, unit) in metrics.items():
        print("  %-48s %.6g %s" % (name, value, unit))
    print("  %-48s %.6g share (%d of %d ops)" % ("failed_share", failed / attempted, failed,
                                                attempted))
    print("  %-48s %.6g (%s)" % ("max_err", max_err, workload.ERROR_MEANING))
    if not args.trace:
        print("  op samples: %d, %d beyond op_p90_ms" % (len(rec.latencies),
                                                          len(rec.latencies) // 10))
        print("  machine slowdown %.4f against reference speed (%d calibrations); unscaled: %s"
              % (slowdown, len(rec.calibration),
                 " ".join("%s=%.6g" % (k, v) for k, (v, _) in raw.items() if k in SCALED)))
    for reason, count in sorted(failures.items()):
        print("  failed %s: %d" % (reason, count))
    for reason, text in sorted(set().union(*(r.tracebacks.items() for r in all_recs))):
        print("first failure %s:\n%s" % (reason, text), file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, env=env, rounds=rounds, failures=dict(failures),
                  failed_share=failed / attempted, max_err=max_err,
                  setup_times_s=setup_times)
    if not args.trace:
        detail.update(slowdown=slowdown,
                      unscaled={k: v for k, (v, _) in raw.items() if k in SCALED})
    os.makedirs(os.path.join(root, WORKDIR), exist_ok=True)
    with open(os.path.join(root, WORKDIR, "result-%s.json" % tag), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    if args.trace:
        tracer.write_spans(os.path.join(root, WORKDIR, "spans-%s.tsv" % tag))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
