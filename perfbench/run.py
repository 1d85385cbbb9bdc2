"""liedef benchmark: seeded workloads through the public API, outputs checked.

    python3 perfbench/run.py --workload checker --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json); --seed negates a seeded
subset of the ad-nilpotent basis vectors of each generated algebra (gen.py
says why only those) and orders each pass:

- oracle-mix   12 criterion-8 algebras (stream seed 20260816), each under
               presentation i % 3, plus every pinned corpus presentation;
               op = oracle -> emit_verdict -> verify, plus a Sturm check of
               each NotDefinable witness.
- coeff-large  20 algebras of the same shape with eigenvalue parts p/q,
               |p|, q <= 100, plus ROADMAP item 2's reproducer under all
               three presentations; same op.
- modules      the 12 supersolvable corpus algebras, each under four fixed
               shears, two h3 x| D with seeded weights (a, -a, 0) and
               h3 + aff; op = supersolvable_triangular_rep ->
               emit_representation -> verify.
- checker      every committed certificate twice intact (must be accepted)
               and under two seeded known-false corruptions (must be
               rejected); op = json.loads -> verify_certificate.

One closed-loop caller in this process: each operation starts after the
previous one returns.  A pass builds the operations from the seed (timed as
set-up) and runs each once; passes repeat while another fits in --seconds,
at least two of them.  Every output is checked after its timer stops,
against the reference committed in data/.

Times are corrected for the host's speed (speed.py): a fixed calibration
kernel, which never calls liedef, is timed every 50 ms all through the run,
and each interval is scaled by a reference kernel time over the kernel's
median time around it.  Latencies and throughput use each operation's
median corrected time over its runs; an op with repeat > 1 runs that many
times in a row in each pass.  setup_s is the median corrected build time.
The uncorrected figures (each op's fastest run, the median build) go on
the detail line.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones: an
untraced pass and a traced pass alternate, the traced one with every public
liedef function wrapped from outside (tracer.py).  Counts come from the
first traced pass and repeat exactly for a seed; times are medians.

End-to-end metrics: ops_per_s, op_p50_ms, op_tail_ms (the highest whole
percentile with 10 ops beyond it), ok_rate = 1 - failure_rate, decided_rate
= 1 - unknown_rate, setup_s (median build time of a pass) and peak_rss_mb.
The rates are reported as complements so that no metric is ever 0.  An op
fails when it raises, its certificate is rejected (or a corrupted one
accepted), its witness is not Sturm-confirmed, or its verdict or module
dimension contradicts the reference; "correct" is false when any op gave a
wrong answer, while ops that raised only count as failed.

The last line of stdout is the result object; the line before it records
the failure and unknown rates, the tail percentile, the uncorrected
wall-clock figures, the kernel's median time and the machine (Python
version, nproc, platform).  Numbers compare only on one machine.
--workload all prints the two lines for each workload in turn, in one
process, so there peak_rss_mb is the peak of the process so far.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

from speed import Sampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

EXTRA_SETUPS = 10
# every op's median time is taken over at least this many passes
MIN_PASSES = 2
MIN_BEYOND_TAIL = 10

LAYERS = ("weights", "lie", "poly", "linalg", "reps", "certs", "formats",
          "torus", "structure", "definability")
COUNTED = ("weights.common_eigenspace", "lie.subalgebra",
           "poly.gaussian_roots", "poly.rational_roots",
           "poly.sturm_count_real_roots", "linalg.rref", "linalg.solve",
           "linalg.kernel", "linalg.char_poly", "reps.extend_rep")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="oracle-mix, coeff-large, modules, checker or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import liedef from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "liedef", "__init__.py")):
        raise SystemExit("perfbench: no liedef sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import liedef
    if not os.path.abspath(liedef.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: liedef imported from %s, not %s"
                         % (liedef.__file__, SRC))


class Tally:
    """Outcomes of every op run, the (start, seconds) of each op's runs and
    each op's fastest time.

    The same ops run in every pass, so every op is timed several times
    across a run.
    """

    def __init__(self, n_ops):
        self.runs = [[] for _ in range(n_ops)]
        self.best = [math.inf] * n_ops
        self.attempted = 0
        self.busy = 0.0
        self.failures = {}
        self.failed_labels = []
        self.unknown = 0
        self.wrong = 0
        self.reported = set()   # exception types already shown on stderr

    def record(self, i, op, began, seconds, failure, outcome):
        self.attempted += 1
        self.busy += seconds
        self.runs[i].append((began, seconds))
        self.best[i] = min(self.best[i], seconds)
        if outcome == "Unknown":
            self.unknown += 1
        if failure is None:
            return
        self.failures[failure] = self.failures.get(failure, 0) + 1
        if len(self.failed_labels) < 20:
            self.failed_labels.append("%s: %s" % (op.label, failure))
        if not failure.startswith("raised:"):
            self.wrong += 1

    @property
    def failed(self):
        return sum(self.failures.values())

    def rates(self):
        return {"failure_rate": self.failed / self.attempted,
                "unknown_rate": self.unknown / self.attempted,
                "failures": self.failures,
                "failed_ops": self.failed_labels}


def run_op(op, reported, clock=time.perf_counter):
    """(began, seconds, failure, outcome) of one call, checked untimed.

    began is wall time, seconds is measured on clock.  The first traceback
    of each exception type goes to stderr.
    """
    began = time.perf_counter()
    start = clock()
    try:
        out = op.call()
    except Exception as e:  # a raising op is a counted failure, not a stop
        elapsed = clock() - start
        if type(e) not in reported:
            reported.add(type(e))
            print("%s raised:\n%s" % (op.label, traceback.format_exc()),
                  file=sys.stderr)
        return began, elapsed, "raised:" + type(e).__name__, None
    elapsed = clock() - start
    failure, outcome = op.check(out)
    return began, elapsed, failure, outcome


def run_pass(ops, tally, clock=time.perf_counter):
    start = time.perf_counter()
    for i, op in enumerate(ops):
        for _ in range(op.repeat):
            tally.record(i, op, *run_op(op, tally.reported, clock))
    return time.perf_counter() - start


def tail_percentile(n_ops):
    """The highest whole percentile with MIN_BEYOND_TAIL ops beyond it."""
    if n_ops < 2 * MIN_BEYOND_TAIL:
        return None
    return (100 * (n_ops - MIN_BEYOND_TAIL)) // n_ops


def percentile(values, p):
    """Nearest-rank percentile: never a value between two ops' times."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


class Setup:
    """Builds a pass's ops from the seed and times every build on clock."""

    def __init__(self, workloads, name, seed):
        self.build = lambda: workloads.build(name, seed)
        self.clock = time.perf_counter
        self.times = []     # (began, seconds) of each build

    def __call__(self):
        began = time.perf_counter()
        start = self.clock()
        ops = self.build()
        self.times.append((began, self.clock() - start))
        return ops


def end_to_end(setup, seconds):
    """Passes, each on freshly built ops, while another fits in seconds."""
    with Sampler() as sampler:
        setup.clock = sampler.clock
        for _ in range(EXTRA_SETUPS):
            setup()
        start = time.perf_counter()
        tally = None
        passes = 0
        last = 0.0
        while (passes < MIN_PASSES
               or time.perf_counter() - start + last <= seconds):
            begin = time.perf_counter()
            ops = setup()
            tally = tally or Tally(len(ops))
            run_pass(ops, tally, sampler.clock)
            last = time.perf_counter() - begin
            passes += 1
    tail = tail_percentile(len(ops))
    if tail is None:
        raise SystemExit("perfbench: a pass of %d ops is too short for a "
                         "tail percentile" % len(ops))
    op_s = [statistics.median(sampler.corrected(*run) for run in runs)
            for runs in tally.runs]
    metrics = {
        "ops_per_s": (len(ops) / sum(op_s), "1/s"),
        "op_p50_ms": (1000.0 * percentile(op_s, 50), "ms"),
        "op_tail_ms": (1000.0 * percentile(op_s, tail), "ms"),
        "ok_rate": (1.0 - tally.failed / tally.attempted, "ratio"),
        "decided_rate": (1.0 - tally.unknown / tally.attempted, "ratio"),
        "setup_s": (statistics.median(sampler.corrected(*build)
                                      for build in setup.times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {"passes": passes, "ops_per_pass": len(ops),
              "tail_percentile": tail, "tail_samples": len(ops),
              "busy_ops_per_s": tally.attempted / tally.busy,
              "setups": len(setup.times),
              "kernel_median_ms": 1000.0 * statistics.median(sampler.took),
              "speed_samples": len(sampler.took),
              "uncorrected": {
                  "ops_per_s": len(ops) / sum(tally.best),
                  "op_p50_ms": 1000.0 * percentile(tally.best, 50),
                  "op_tail_ms": 1000.0 * percentile(tally.best, tail),
                  "setup_s": statistics.median(s for _, s in setup.times)}}
    detail.update(tally.rates())
    return tally, metrics, detail


def count_metrics(tracer):
    """The machine-independent per-layer metrics of one traced pass."""
    calls = tracer.calls
    metrics = {key + ".calls": (calls[key], "count") for key in COUNTED}
    metrics["weights.passes"] = (calls["weights.module_weights"]
                                 + calls["weights.real_flag"], "count")
    finds = calls["definability.tbc_find"]
    metrics["definability.candidates_per_find"] = (
        tracer.nested["definability.tbc_verify"] / finds if finds else 0.0,
        "count/call")
    metrics["scalars.fraction_new"] = (tracer.fraction_new, "count")
    metrics["scalars.gaussrat_new"] = (tracer.gaussrat_new, "count")
    return metrics


def traced_pass(tracer, ops, tally):
    import workloads

    tracer.reset()
    tracer.install(callers=[workloads])
    try:
        return run_pass(ops, tally)
    finally:
        tracer.uninstall()


def per_layer(setup, seconds):
    """Untraced and traced passes alternate while another pair fits."""
    from tracer import Tracer

    ops = setup()
    tally = Tally(len(ops))
    tracer = Tracer()
    plain, traced, self_times = [], [], []
    counts = None
    start = time.perf_counter()
    while not plain or (time.perf_counter() - start + plain[-1] + traced[-1]
                        <= seconds):
        plain.append(run_pass(ops, tally))
        traced.append(traced_pass(tracer, ops, tally))
        self_times.append(dict(tracer.self_s))
        if counts is None:
            counts = count_metrics(tracer)

    def self_s(key):
        return statistics.median(t.get(key, 0.0) for t in self_times)

    metrics = {layer + ".self_s": (self_s(layer), "s") for layer in LAYERS}
    metrics["definability.tbc_verify.self_s"] = (
        self_s("definability.tbc_verify"), "s")
    metrics.update(counts)
    metrics["trace.overhead"] = (statistics.median(traced)
                                 / statistics.median(plain), "ratio")
    detail = {"passes": len(plain), "ops_per_pass": len(ops)}
    detail.update(tally.rates())
    return tally, metrics, detail


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "platform": platform.platform()}


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import workloads
    if args.workload == "all":
        names = list(workloads.WORKLOADS)
    elif args.workload in workloads.WORKLOADS:
        names = [args.workload]
    else:
        raise SystemExit("perfbench: unknown workload %r (one of %s, all)"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
    measure = per_layer if args.trace else end_to_end
    for name in names:
        setup = Setup(workloads, name, args.seed)
        tally, metrics, detail = measure(setup, args.seconds)
        detail.update(workload=name, seed=args.seed, trace=args.trace,
                      machine=machine())
        print(json.dumps({"detail": detail}, sort_keys=True))
        print(json.dumps({
            "correct": tally.wrong == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {metric: {"value": value, "unit": unit}
                        for metric, (value, unit) in metrics.items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
