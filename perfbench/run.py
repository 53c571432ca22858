"""Benchmark of qrealize: workloads ``chain``, ``mutants`` and ``oracle``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: set-up time, then
a closed loop with one caller over the workload's fixed mix of models, in a
fixed number of whole passes that last about ``--seconds`` seconds at the
reference speed.  With ``--trace 1`` it makes one untraced and one traced
pass over the mix and reports the per-layer metrics of the traced pass and
the tracing overhead.  Every verdict is
checked against a known answer.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program runs in this one process, on one thread: numpy's BLAS pool is
limited to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"      # model files of the oracle workload
TRACES = HERE / "traces"  # spans written by traced runs
SETUP_REPEATS = 5         # generate-and-parse rounds in set-up, for the median
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile

# Seconds one pass over each mix takes at the seed commit on the reference
# host (baseline.json).  A run makes round(--seconds / PASS_SECONDS) passes,
# so the sample count, and with it the tail percentile, does not depend on
# the speed of the program under test.
PASS_SECONDS = {"chain": 9.4, "mutants": 14.0, "oracle": 8.6}

# The oracle's defaults (``qreal check --oracle``): per-mode truncation and
# guard band.
FOCK_N = 6
GUARD = 4

sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402
    CAVITY_TEXT,
    FAMILY_CONDITIONS,
    MIXES,
    chain_hamiltonian_terms,
    chain_text,
)

END_TO_END = [
    ("setup_s", "s"),
    ("models_per_s", "1/s"),
    ("verdict_s.p50", "s"),
    ("verdict_s.tail", "s"),
    ("peak_rss_mb", "MB"),
]

# Reported by a traced run besides the layer metrics of tracing.py.
TRACE_RUN = [
    ("trace.models_per_s.untraced", "1/s"),
    ("trace.models_per_s.traced", "1/s"),
    ("trace.overhead.models_per_s", "1/s"),
    ("trace.spans", "count"),
]


class SetupError(Exception):
    """The program under test is missing or cannot be imported."""


# -- set-up -------------------------------------------------------------------

def setup(workload: str, seed: int):
    """Import qrealize and numpy, generate and parse the mix; return seconds too.

    The import can only be timed once in a process; generating and parsing
    the mix is repeated SETUP_REPEATS times and its median added to it.  The
    oracle's model files are written after the set-up time is taken.
    """
    start = time.perf_counter()
    if not (SRC / "qrealize" / "__init__.py").is_file():
        raise SetupError(f"no qrealize package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import numpy  # noqa: F401
        import qrealize
        import qrealize.cli
    except ImportError as exc:
        raise SetupError(f"cannot import qrealize: {exc}") from exc
    if Path(qrealize.__file__).resolve().parent != (SRC / "qrealize").resolve():
        raise SetupError(f"imported qrealize from {qrealize.__file__}, not {SRC}")
    import_s = time.perf_counter() - start
    rounds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cases = MIXES[workload](seed)
        models = [qrealize.parse_model(case.text) for case in cases]
        rounds.append(time.perf_counter() - t0)
    if workload == "oracle":
        WORK.mkdir(exist_ok=True)
        for i, case in enumerate(cases):
            case.path = WORK / f"{workload}-{seed}-{os.getpid()}-{i}.qsde"
            case.path.write_text(case.text)
    return import_s + statistics.median(rounds), qrealize, cases, models


# -- one model to a verdict ---------------------------------------------------

def run_case(qrealize, workload, case, model):
    """Bring one model to a verdict through the workload's public entry point."""
    if workload == "oracle":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = qrealize.cli.main(["check", str(case.path), "--float", "--oracle", "--json"])
        return code, out.getvalue()
    return qrealize.run_checks(model)


def timed_pass(qrealize, workload, cases, models, order, samples, results):
    for i in order:
        t0 = time.perf_counter()
        try:
            out = run_case(qrealize, workload, cases[i], models[i])
        except Exception as exc:  # the program failed on this model; count it
            out = exc
        samples.append(time.perf_counter() - t0)
        results.append((i, out))


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def closed_loop(qrealize, workload, cases, models, order, passes):
    """Run ``passes`` whole passes over the mix, one model after another."""
    samples, results = [], []
    start = time.perf_counter()
    for _ in range(passes):
        timed_pass(qrealize, workload, cases, models, order, samples, results)
    return time.perf_counter() - start, samples, results


# -- known answers ------------------------------------------------------------

def _failing_ids(conditions):
    return sorted(c.condition_id for c in conditions if not c.passed)


def guard_sees(residual) -> bool:
    """Whether the oracle can tell this nonzero residual from zero.

    The oracle compares matrix entries between states whose every occupation
    is at most cap = N - 1 - guard, with N and guard raised to fit the
    residual's degree.  The normal-ordered monomial a'^m a^n has such an
    entry (from the state with occupations n) exactly when every m_j and
    n_j is at most cap, and distinct monomials give independent entries.
    """
    degree = residual.max_degree
    guard = max(GUARD, degree)
    cap = max(FOCK_N, degree + 2, guard + 1) - 1 - guard
    return any(max(mono.creation + mono.annihilation) <= cap
               for mono, coeff in residual.terms.items() if not coeff.is_zero())


class Verifier:
    """Checks each verdict against the known answer of its case."""

    def __init__(self, qrealize, workload, cases):
        self.q = qrealize
        self.workload = workload
        self.cases = cases
        self._exact = {}
        self.errors = []

    def exact_failing(self, i):
        """Failing condition ids of case i in exact mode, all and those whose
        residuals the oracle's guarded subspace can see."""
        if i not in self._exact:
            report = self.q.run_checks(self.q.parse_model(self.cases[i].text))
            seen = sorted(c.condition_id for c in report.conditions
                          if not c.passed and any(guard_sees(r) for r in c.residuals))
            self._exact[i] = _failing_ids(report.conditions), seen
        return self._exact[i]

    def check(self, i, out) -> str | None:
        """None when the verdict is right, else what is wrong."""
        case = self.cases[i]
        if isinstance(out, Exception):
            return f"raised {type(out).__name__}: {out}"
        if self.workload == "oracle":
            return self._check_oracle(i, case, out)
        if case.expect == "fail":
            return None if out.overall is False else "passed, expected FAIL"
        return self._check_chain(case, out)

    def _check_chain(self, case, report):
        if len(report.conditions) != FAMILY_CONDITIONS:
            return f"{len(report.conditions)} conditions, expected {FAMILY_CONDITIONS}"
        bad = [c.condition_id for c in report.conditions
               if not c.passed or c.residual_norm != 0.0]
        if bad:
            return f"conditions not passing with zero residual: {bad}"
        hbar = (report.derived or {}).get("hamiltonian")
        if hbar is None:
            return "no Hamiltonian derived"
        got = {(m.creation, m.annihilation): (c.re, c.im) for m, c in hbar.terms.items()}
        if got != chain_hamiltonian_terms(case.n):
            return "Hamiltonian differs from the chain's closed form"
        return None

    def _check_oracle(self, i, case, out):
        code, text = out
        want = 0 if case.expect == "pass" else 1
        if code != want:
            return f"exit code {code}, expected {want}"
        try:
            payload = json.loads(text)
        except ValueError:
            return "output is not JSON"
        failing = sorted(c["condition_id"] for c in payload["checks"] if not c["pass"])
        if case.expect == "pass":
            if failing or not all(e["pass"] for e in payload.get("oracle", [])):
                return f"expected every check and oracle entry to pass, failing {failing}"
            return None
        exact, seen = self.exact_failing(i)
        if failing != exact:
            return f"float failing set {failing} differs from exact {exact}"
        oracle_failing = sorted(e["condition_id"] for e in payload.get("oracle", [])
                                if not e["pass"])
        if oracle_failing != seen:
            return (f"oracle failing set {oracle_failing} differs from the exact "
                    f"failures the guard can see {seen}")
        return None

    def count(self, results) -> int:
        failed = 0
        for i, out in results:
            problem = self.check(i, out)
            if problem is not None:
                failed += 1
                if len(self.errors) < 20:
                    self.errors.append(f"{self.cases[i].label}: {problem}")
                if isinstance(out, Exception) and len(self.errors) <= 1:
                    traceback.print_exception(out, file=sys.stderr)
        return failed


def self_check(qrealize) -> list:
    """Generator sanity: chain(2) is the cavity model."""
    if not qrealize.parse_model(chain_text(2, 2)).equals(qrealize.parse_model(CAVITY_TEXT)):
        return ["chain(2) does not equal the cavity model"]
    return []


# -- statistics ---------------------------------------------------------------

def tail(samples):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples beyond it.

    Nearest-rank percentiles; with too few samples the maximum is returned as
    percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100, xs[-1]
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, xs[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value, unit):
    return {"value": value, "unit": unit}


# -- the two kinds of run -----------------------------------------------------

def measure(args, setup_s, qrealize, cases, models, verifier):
    order = list(range(len(cases)))
    random.Random(args.seed).shuffle(order)
    passes = pass_count(args.workload, args.seconds)
    elapsed, samples, results = closed_loop(
        qrealize, args.workload, cases, models, order, passes)
    failed = verifier.count(results)
    attempted = len(results)
    pct, tail_value = tail(samples)
    values = {
        "setup_s": setup_s,
        "models_per_s": attempted / elapsed,
        "verdict_s.p50": statistics.median(samples),
        "verdict_s.tail": tail_value,
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"workload {args.workload}, seed {args.seed}: {passes} passes over "
          f"{len(cases)} models in {elapsed:.2f} s, closed loop with one caller")
    print(f"  setup_s         {values['setup_s']:.4f} s  (import, then median of {SETUP_REPEATS} generate-and-parse rounds)")
    print(f"  models_per_s    {values['models_per_s']:.4f} 1/s")
    print(f"  verdict_s.p50   {values['verdict_s.p50']:.4f} s  ({attempted} samples)")
    print(f"  verdict_s.tail  {tail_value:.4f} s  (p{pct} of {attempted} samples)")
    print(f"  failed_ratio    {failed / attempted:.4f}  ({failed} of {attempted})")
    print(f"  peak_rss_mb     {values['peak_rss_mb']:.2f} MB")
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
    return attempted, failed, metrics


def measure_layers(args, qrealize, cases, models, verifier):
    from tracing import LAYER_METRICS, Tracer

    order = list(range(len(cases)))
    samples, untraced, traced = [], [], []  # per-model times are not reported here
    t0 = time.perf_counter()
    timed_pass(qrealize, args.workload, cases, models, order, samples, untraced)
    untraced_rate = len(order) / (time.perf_counter() - t0)

    tracer = Tracer()
    tracer.install()
    try:
        for case in cases:
            qrealize.parse_model(case.text)
        t0 = time.perf_counter()
        timed_pass(qrealize, args.workload, cases, models, order, samples, traced)
        traced_rate = len(order) / (time.perf_counter() - t0)
    finally:
        tracer.uninstall()
    failed = verifier.count(untraced) + verifier.count(traced)

    TRACES.mkdir(exist_ok=True)
    tracer.write(TRACES / f"{args.workload}.npz")
    values = tracer.layer_metrics()
    values["trace.models_per_s.untraced"] = untraced_rate
    values["trace.models_per_s.traced"] = traced_rate
    values["trace.overhead.models_per_s"] = untraced_rate - traced_rate
    values["trace.spans"] = len(tracer.span_start)
    units = dict(LAYER_METRICS + TRACE_RUN)
    print(f"workload {args.workload}, seed {args.seed}: one untraced and one traced "
          f"pass over {len(cases)} models; {values['trace.spans']} spans")
    for name, value in values.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")
    metrics = {name: metric(values[name], units[name]) for name in values}
    return 2 * len(order), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MIXES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        setup_s, qrealize, cases, models = setup(args.workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        verifier = Verifier(qrealize, args.workload, cases)
        if args.trace:
            attempted, failed, metrics = measure_layers(args, qrealize, cases, models, verifier)
        else:
            attempted, failed, metrics = measure(args, setup_s, qrealize, cases, models, verifier)
    finally:
        for case in cases:
            if case.path is not None:
                case.path.unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    problems = self_check(qrealize) + verifier.errors
    for problem in problems:
        print(f"  wrong: {problem}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
