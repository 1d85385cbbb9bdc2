"""The benchmark's own tests: seeded inputs and traced counts repeat exactly.

    python3 -m pytest perfbench/tests
"""
import json
import math
import os
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, BENCH]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from liedef.formats import algebra_to_dict  # noqa: E402
from liedef.lie import LieAlgebra  # noqa: E402
from liedef.linalg import Mat  # noqa: E402

SLOW = "h3+aff"


def _plain(x):
    if isinstance(x, LieAlgebra):
        return algebra_to_dict(x)
    if isinstance(x, Mat):
        return [[str(c) for c in row] for row in x.rows]
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def inputs(name, seed):
    return json.dumps([(op.label, _plain(op.args))
                       for op in workloads.build(name, seed)])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    assert inputs(name, 7) == inputs(name, 7)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs(name):
    assert inputs(name, 7) != inputs(name, 8)


def test_reference_covers_every_oracle_mix_input():
    # the structures do not depend on the seed (only their shear does),
    # so this holds for every seed
    ref = workloads.load_reference()["oracle"]
    for i, s in enumerate(gen.fuzz_structures(workloads.ORACLE_FUZZ)):
        assert workloads.reference_key(s, gen.KINDS[i % 3]) in ref, i


def _count_script(name, seed, limit):
    return ("import json, sys\n"
            "sys.path[:0] = [%r, %r]\n"
            "import run, workloads\n"
            "from tracer import Tracer\n"
            "ops = [op for op in workloads.build(%r, %d)\n"
            "       if op.label != %r][:%d]\n"
            "t = Tracer()\n"
            "counts = []\n"
            "for _ in range(2):\n"
            "    run.traced_pass(t, ops, run.Tally(len(ops)))\n"
            "    counts.append(run.count_metrics(t))\n"
            "print(json.dumps(counts))\n"
            % (SRC, BENCH, name, seed, SLOW, limit))


@pytest.mark.parametrize("name,limit", [("oracle-mix", 15),
                                        ("coeff-large", 8),
                                        ("modules", 8),
                                        ("checker", 60)])
def test_traced_counts_repeat_exactly(name, limit):
    """Across passes and across processes with different hash seeds."""
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c",
                              _count_script(name, 3, limit)],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=300)
        first, second = json.loads(out.stdout)
        assert first == second
        runs.append(first)
    assert runs[0] == runs[1]
    assert runs[0]["scalars.fraction_new"][0] > 0


def test_checker_pass_accepts_intact_and_rejects_corrupted():
    ops = workloads.build("checker", 5)
    tally = run.Tally(len(ops))
    run.run_pass(ops, tally)
    assert tally.attempted == len(ops)
    assert tally.failures == {}
    kinds = {op.label.split()[1] for op in ops}
    assert kinds == {"Verdict", "TBC", "Flag", "Representation",
                     "TorusEquations"}


def test_every_corruption_is_rejected():
    from liedef.certs import verify_certificate

    for item in workloads.load_checker_pool():
        subject = workloads.subject_args(item["subject"])
        for name, corrupt in workloads.corruptions(item["cert"]):
            bad = json.loads(json.dumps(item["cert"]))
            corrupt(bad)
            report = verify_certificate(bad, **subject)
            assert not report.ok, (item["cert"]["kind"], name)
            assert report.clause and report.detail


def test_tail_percentile_keeps_ten_ops_beyond_it():
    for n in range(20, 400):
        p = run.tail_percentile(n)
        assert n * (100 - p) / 100 >= 10 > n * (100 - p - 1) / 100
    assert run.tail_percentile(19) is None


def test_sampler_clock_leaves_out_sampling_time():
    import time

    import speed

    with speed.Sampler() as sampler:
        wall, net = time.perf_counter(), sampler.clock()
        while len(sampler.took) < 12:
            speed.kernel()
        wall, net = time.perf_counter() - wall, sampler.clock() - net
    assert abs((wall - net) - sampler.spent) < 1e-3
    assert sampler.spent >= sum(sampler.took)
    # a sample's own interval, corrected by the samples around it
    at, took = sampler.at[5], sampler.took[5]
    around = [t for a, t in zip(sampler.at, sampler.took)
              if at - speed.WINDOW_S <= a <= at + took + speed.WINDOW_S]
    assert math.isclose(sampler.corrected(at, took),
                        took * speed.REF_S / statistics.median(around))


def test_repeated_ops_run_repeat_times_per_pass():
    ops = [op for op in workloads.build("modules", 2) if op.label != SLOW]
    cheap = [op for op in ops if op.repeat > 1][:3]
    assert cheap and all(op.repeat == workloads.MODULE_REPEAT for op in cheap)
    tally = run.Tally(len(cheap))
    run.run_pass(cheap, tally)
    assert tally.attempted == len(cheap) * workloads.MODULE_REPEAT
    assert tally.failures == {}
