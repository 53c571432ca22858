"""Checks of the benchmark itself; not part of the repository's test suite.

    python3 perfbench/selfcheck.py          # smoke, then counts
    python3 perfbench/selfcheck.py smoke    # a few seconds
    python3 perfbench/selfcheck.py counts   # two traced runs per workload

``smoke`` runs each workload on the first model of its mix (chain(2), one
cavity mutant, one oracle call), untraced and traced, and asserts that
every metric named in BENCHMARK.json is printed and that no verdict failed.
``counts`` makes two traced runs of each workload at one seed and asserts
that every count, maximum and ratio repeats exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import COUNT_METRICS  # noqa: E402

SEED = 7


def _names(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def _first_model_only(mix):
    return lambda seed: mix(seed)[:1]


def smoke():
    full = dict(run.MIXES)
    try:
        for workload, mix in full.items():
            run.MIXES[workload] = _first_model_only(mix)
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = run.main(["--workload", workload, "--seed", str(SEED),
                                     "--seconds", "0.1", "--trace", str(trace)])
                lines = out.getvalue().splitlines()
                result = json.loads(lines[-1])
                assert code == 0, (workload, trace, code)
                assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
                assert result["correct"] and result["failed"] == 0, (workload, lines)
                assert sorted(result["metrics"]) == sorted(_names(kind)), (
                    workload, trace, set(result["metrics"]) ^ set(_names(kind)))
                for name in result["metrics"]:
                    assert any(line.split()[:1] == [name] for line in lines[:-1]), name
                if trace == 0:
                    assert any(line.split()[:2] == ["failed_ratio", "0.0000"]
                               for line in lines), lines
                print(f"smoke {workload} trace={trace}: "
                      f"{len(result['metrics'])} metrics, {result['attempted']} verdicts")
    finally:
        run.MIXES.update(full)


def _traced_counts(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {name: result["metrics"][name]["value"] for name in COUNT_METRICS}


def counts():
    for workload in run.MIXES:
        first, second = _traced_counts(workload), _traced_counts(workload)
        differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        assert not differ, (workload, differ)
        print(f"counts {workload}: {len(first)} counts repeat exactly")


def main(argv):
    checks = argv or ["smoke", "counts"]
    for name in checks:
        {"smoke": smoke, "counts": counts}[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
