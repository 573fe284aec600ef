"""Benchmark of the algseries command line, one workload per process.

    python3 perfbench/run.py --workload extract-Q --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory.  The script first re-executes itself with
PYTHONHASHSEED=0.  A run imports algseries and builds the workload's
seeded jobs (set-up, done SETUP_REPEATS times), then repeats
whole rounds of those jobs until ``--seconds`` of rounds have passed (at
least MIN_ROUNDS).  The first round fills the program's caches and is not
timed.  Each job calls ``algseries.cli.main(argv)`` in this
process with stdout and stderr captured and files written to a work
directory under perfbench/out/.

Timing: a fixed pure-Python reference probe of about 1 ms runs
PROBES_BETWEEN times between jobs and, by a timer signal, every
PROBE_PERIOD_S during each job (its time is taken out of the job's).  Each
job's time is rescaled to ``time * REF_NOMINAL_S / mean(probes around and
during the job)``, which reads as seconds on a machine where the probe takes
REF_NOMINAL_S.  That cancels the speed phases of a shared machine (see
README.md).  Raw seconds are printed beside the rescaled ones.

Checks: the first round's outputs go through the independent checks in
checks.py; later rounds must reproduce the first round's outputs exactly.
A nonzero exit code, an exception or a failed check counts as a failed
operation.

With ``--trace 1`` odd rounds run with the layer wrappers of layertrace.py
installed; the last line then holds the per-layer metrics, and the spans are
written to perfbench/out/ when the run ends.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layertrace
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

REF_NOMINAL_S = 0.001  # probe time the rescaled seconds refer to (see README.md)
PROBES_BETWEEN = 10
PROBE_PERIOD_S = 0.05
SETUP_REPEATS = 5
MIN_ROUNDS = 4  # the first round warms caches and is checked, not timed


class _Ring:
    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p


_RING = _Ring(65537)
_BIG = (3 ** 1200, 7 ** 1000)


def probe():
    """One reference probe, about 1 ms of fixed pure-Python work; seconds.

    It mixes, in roughly equal shares, the kinds of work the program does:
    method calls with small-int modular arithmetic (finite fields), a
    tuple-keyed dict recurrence (bivariate expansions), big-int products
    and gcds (Q) and a list convolution (truncated series).
    """
    start = time.perf_counter()
    acc = 1
    for x in range(1, 901):
        acc = _RING.add(_RING.mul(acc, x), 3)
    table = {}
    for i in range(24):
        for j in range(24):
            table[(i, j)] = (table.get((i - 1, j), 1) * 7 + j) % 10007
    a, b = _BIG
    for k in range(4):
        acc = math.gcd(a * b + k, b + acc)
    xs = [(i * 7) % 5 for i in range(60)]
    conv = [0] * 60
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(xs[:60 - i]):
                if y:
                    conv[i + j] = (conv[i + j] + x * y) % 5
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the machine's speed around and during timed work.

    ``between()`` runs PROBES_BETWEEN probes.  ``timed(fn)`` runs fn with a
    timer signal that runs one probe every PROBE_PERIOD_S; the time spent in
    those probes is taken out of fn's time, and recorded as a "probe" span
    when ``tracer`` is set so that it is not counted as a layer's self time.
    ``factor(samples)`` turns the probe times around and during a piece of
    work into its rescaling factor.
    """

    def __init__(self):
        self.tracer = None
        self._during = []
        self._in_probes = 0.0

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self._during.append(probe())
        end = time.perf_counter()
        self._in_probes += end - start
        if self.tracer:
            self.tracer.record("probe", start, end)

    def between(self):
        gc.collect()
        return [probe() for _ in range(PROBES_BETWEEN)]

    def timed(self, fn):
        """(seconds of fn without probes, probe times during fn, fn's value)."""
        self._during, self._in_probes = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        start = time.perf_counter()
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        return elapsed - self._in_probes, self._during, value

    @staticmethod
    def factor(samples):
        return REF_NOMINAL_S / statistics.fmean(samples)


@dataclass
class Result:
    """What one CLI job returned: exit code, streams and written files."""

    rc: object
    stdout: str
    stderr: str
    files: dict = field(default_factory=dict)

    def key(self):
        return (self.rc, self.stdout, self.stderr, self.files)


def _purge_algseries():
    for name in [n for n in sys.modules
                 if n == "algseries" or n.startswith("algseries.")]:
        del sys.modules[name]


def setup(workload, seed, probes):
    """Import algseries and build the jobs, SETUP_REPEATS times.

    Returns the median rescaled set-up time, the cli module and the jobs.
    """
    def import_and_build():
        return (importlib.import_module("algseries.cli"),
                WORKLOADS[workload](random.Random(seed)))

    samples = []
    for _ in range(SETUP_REPEATS):
        _purge_algseries()
        before = probes.between()
        elapsed, during, (cli, jobs) = probes.timed(import_and_build)
        samples.append(elapsed * probes.factor(before + during + probes.between()))
    return statistics.median(samples), cli, jobs


def _read_outputs(job, workdir):
    files = {}
    for rel in job.outputs:
        path = workdir / rel
        paths = sorted(path.iterdir()) if path.is_dir() else [path]
        for item in paths:
            if item.is_file():
                files[str(item.relative_to(workdir))] = item.read_text()
    return files


def _call(cli, argv, out, err):
    """Exit code of one CLI invocation, or the exception it raised."""
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code
    except Exception as exc:  # the job failed; the run goes on
        return f"{type(exc).__name__}: {exc}"


@dataclass
class Round:
    """One pass over the jobs: per-job raw seconds and rescaling factors."""

    traced: bool
    raw: list
    factors: list
    probe_s: float  # median probe time between the jobs
    layers: dict = None

    @property
    def scaled(self):
        return [t * f for t, f in zip(self.raw, self.factors)]


def run_round(cli, jobs, workdir, probes, tracer=None):
    """Run every job once; returns the Round and the jobs' Results."""
    raw, factors, between, results = [], [], [], []
    before = probes.between()
    for idx, job in enumerate(jobs):
        argv = [a.replace("{dir}", str(workdir)) for a in job.argv]
        out, err = io.StringIO(), io.StringIO()
        close = tracer.job_span(idx) if tracer else None
        elapsed, during, rc = probes.timed(lambda: _call(cli, argv, out, err))
        if close:
            close()
        after = probes.between()
        raw.append(elapsed)
        factors.append(probes.factor(before + during + after))
        between += after
        before = after
        results.append(Result(rc, out.getvalue(), err.getvalue(),
                              _read_outputs(job, workdir)))
    return Round(tracer is not None, raw, factors, statistics.median(between)), results


def measure(cli, jobs, workdir, seconds, probes, tracer=None):
    """Repeat whole rounds until ``seconds`` of rounds have run.

    Returns the rounds, one verdict per job (None when every round passed)
    and the counts of failed operations and of wrong outputs.
    """
    first = None          # round-0 results, independently checked
    verdicts = []
    rounds = []
    failed = wrong = 0
    busy = 0.0
    while len(rounds) < MIN_ROUNDS or busy < seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        rdir = workdir / f"round{len(rounds)}"
        rdir.mkdir()
        first_span = len(tracer.spans) if traced else 0
        if traced:
            tracer.install()
            probes.tracer = tracer
        start = time.perf_counter()
        try:
            rnd, results = run_round(cli, jobs, rdir, probes, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
                probes.tracer = None
        busy += time.perf_counter() - start
        if traced:
            rnd.layers = tracer.layer_totals(first_span, rnd.factors)
        if first is None:
            first = results
            verdicts = [_verdict(job, res, rdir) for job, res in zip(jobs, results)]
        for idx, res in enumerate(results):
            if verdicts[idx] is None and res.key() != first[idx].key():
                verdicts[idx] = "wrong: output differs from the checked first round"
            if verdicts[idx] is not None:
                failed += 1
                wrong += verdicts[idx].startswith("wrong")
        shutil.rmtree(rdir)
        rounds.append(rnd)
    return rounds, verdicts, failed, wrong


def _verdict(job, result, workdir):
    if result.rc != 0:
        return f"error: exit {result.rc}: {result.stderr.strip()[:200]}"
    try:
        job.check(result, workdir)
    except (checks.CheckFailed, ValueError, LookupError, TypeError) as exc:
        return f"wrong: {type(exc).__name__}: {exc}"  # malformed output reads as wrong
    return None


def _per_job_medians(rounds):
    per_job = zip(*[r.scaled for r in rounds[1:] if not r.traced])
    return [statistics.median(times) for times in per_job]


def end_to_end(rounds, setup_s):
    medians = _per_job_medians(rounds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "work_s": {"value": sum(medians), "unit": "s"},
        "job_ms_p50": {"value": 1000 * statistics.median(medians), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MiB"},
    }


def per_layer(rounds):
    """Median over traced rounds of each per-layer metric."""
    traced = [r.layers for r in rounds if r.traced]
    metrics = {}
    for layer, kind in layertrace.METRICS:
        index = {"ms": 0, "calls": 1}.get(kind, 2)
        value = statistics.median(t[layer][index] for t in traced)
        metrics[f"{layer}.{kind}"] = {"value": value,
                                      "unit": "ms" if kind == "ms" else "count"}
    return metrics


def _report(workload, seed, jobs, rounds, verdicts, setup_s):
    """Human-readable lines before the JSON result."""
    untraced = [r for r in rounds[1:] if not r.traced]
    raw_work = statistics.median(sum(r.raw) for r in untraced)
    scaled_work = statistics.median(sum(r.scaled) for r in untraced)
    probe_ms = 1000 * statistics.median(r.probe_s for r in rounds)
    print(f"{workload} seed {seed}: {len(rounds)} rounds of {len(jobs)} jobs "
          f"(the first untimed), set-up {setup_s:.4f} s")
    print(f"  round work: {scaled_work:.3f} s rescaled, {raw_work:.3f} s raw; "
          f"probe {probe_ms:.3f} ms (nominal {1000 * REF_NOMINAL_S:.3f} ms)")
    for job, verdict, ms in zip(jobs, verdicts, _per_job_medians(rounds)):
        print(f"  {1000 * ms:10.1f} ms  {job.name[:100]}")
        if verdict:
            print(f"  FAILED: {verdict}")
    traced = [sum(r.scaled) for r in rounds if r.traced]
    if traced:
        overhead = statistics.median(traced) - scaled_work
        print(f"  trace overhead: {overhead:+.3f} s per round "
              f"({100 * overhead / scaled_work:+.1f}% of untraced work)")


def run_one(args):
    if not (ROOT / "src" / "algseries" / "cli.py").is_file():
        print(f"error: no algseries source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    probes = SpeedProbe()
    setup_s, cli, jobs = setup(args.workload, args.seed, probes)
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: algseries imported from {cli.__file__}", file=sys.stderr)
        return 2
    tracer = layertrace.Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        rounds, verdicts, failed, wrong = measure(cli, jobs, workdir, args.seconds,
                                                  probes, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _report(args.workload, args.seed, jobs, rounds, verdicts, setup_s)
    if tracer:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "jobs": [job.name for job in jobs]})
        print(f"  spans written to {path.relative_to(ROOT)}")
        metrics = per_layer(rounds)
    else:
        metrics = end_to_end(rounds, setup_s)
    print(json.dumps({"correct": wrong == 0, "attempted": len(rounds) * len(jobs),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(proc.stdout, end="")
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # With a random hash seed per process, dict and set layouts change from
        # run to run, and with them the time of short commands by several
        # percent (see README.md).  Replace this process by one with a fixed
        # seed; no child process is started.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    sys.exit(main())
