"""Command-line front end.

Subcommands:
  check    parse a model, run selected checks, emit a text or JSON report
  extract  print nbar, the extracted Hamiltonian and the coupling vector
  oracle   re-verify every symbolic check residual on truncated Fock space

Exit codes: 0 = all selected checks pass, 1 = at least one check failed,
2 = parse or configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .algebra import render
from .checks import (
    CHECK_NAMES,
    CheckReport,
    check_physical_realizability,
    double,
    extract_hamiltonian,
    realization_derived,
    run_checks,
)
from .fock import oracle_results
from .model import ParseError, parse_model
from .scalars import DEFAULT_TOL

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qreal`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qreal",
        description="Symbolic physical-realizability checks for nonlinear QSDE models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="model file in the qsde text format")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--tol", type=float, default=None,
                       help="floating-mode tolerance (default 1e-9 or $QREAL_TOL)")
        p.add_argument("--float", dest="floating", action="store_true",
                       help="degrade all coefficients to binary64 "
                            "(default: exact rational coefficients)")

    def fock_options(p):
        p.add_argument("--fock-n", type=int, default=6,
                       help="per-mode Fock truncation for the oracle")
        p.add_argument("--guard", type=int, default=4,
                       help="guard band excluded from oracle comparisons")

    p_check = sub.add_parser("check", help="run verification checks")
    common(p_check)
    p_check.add_argument("--checks", default="all",
                         help="comma list of: class, preserve, realize, lossless, "
                              "storage (default: all)")
    p_check.add_argument("--oracle", action="store_true",
                         help="re-verify residuals on truncated Fock space")
    fock_options(p_check)
    p_check.add_argument("--literal-theta-bar", action="store_true",
                         help="also report the Hamiltonian computed with the "
                              "literal diag(theta, theta*) inverse")

    p_extract = sub.add_parser("extract", help="extract Hamiltonian and coupling")
    common(p_extract)
    p_extract.add_argument("--force", action="store_true",
                           help="extract even when realizability fails")

    p_oracle = sub.add_parser("oracle", help="numerically confirm all checks")
    common(p_oracle)
    fock_options(p_oracle)
    # ``oracle`` is ``check --checks all --oracle``
    p_oracle.set_defaults(checks="all", oracle=True, literal_theta_bar=False)
    return parser


def _load_model(args):
    tol = args.tol
    if tol is None:
        tol = float(os.environ.get("QREAL_TOL", DEFAULT_TOL))
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    model = parse_model(text, tol=tol)
    if getattr(args, "floating", False):
        model = model.to_float()
    return model


def _selected_checks(args):
    if args.checks.strip() == "all":
        return CHECK_NAMES
    names = tuple(s.strip() for s in args.checks.split(",") if s.strip())
    for name in names:
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check {name!r}; choose from {', '.join(CHECK_NAMES)}")
    if not names:
        raise ValueError("empty check selection")
    return names


def _print_text_report(report: CheckReport, oracle=None, stream=None):
    stream = stream if stream is not None else sys.stdout
    print(f"model: {report.model_id}", file=stream)
    for cond in report.conditions:
        mark = "PASS" if cond.passed else "FAIL"
        print(f"[{mark}] {cond.condition_id}: {cond.description} "
              f"(residual={cond.residual_norm:g})", file=stream)
        for w in cond.witness:
            print(f"       {w['entry']}: {w['residual']}", file=stream)
    if oracle is not None:
        for entry in oracle:
            mark = "PASS" if entry["pass"] else "FAIL"
            print(f"[{mark}] oracle {entry['condition_id']}: "
                  f"max deviation {entry['max_deviation']:.3g}", file=stream)
    if report.derived:
        d = report.derived
        if "nbar" in d:
            print(f"nbar = {d['nbar']}", file=stream)
        if "hamiltonian" in d:
            verdict = "yes" if d.get("hamiltonian_self_adjoint") else "NO"
            print(f"Hbar = {render(d['hamiltonian'])} (self-adjoint: {verdict})",
                  file=stream)
        if "coupling" in d:
            for i, entry in enumerate(d["coupling"], start=1):
                print(f"Lbar[{i}] = {render(entry)}", file=stream)
        if "storage_function" in d:
            origin = "synthesized" if d.get("storage_synthesized") else "declared"
            print(f"phi = {render(d['storage_function'])} ({origin})", file=stream)
    print(f"overall: {'PASS' if report.overall else 'FAIL'}", file=stream)


def _emit(report: CheckReport, args, oracle=None) -> int:
    if args.json:
        payload = report.to_dict()
        if oracle is not None:
            payload["oracle"] = oracle
        # JSON (RFC 8259) has no infinity or NaN: a norm beyond binary64 is "inf"
        for entry in payload["checks"] + payload.get("oracle", []):
            for key in entry.keys() & {"residual_norm", "max_deviation"}:
                entry[key] = entry[key] if math.isfinite(entry[key]) else str(entry[key])
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        _print_text_report(report, oracle)
    ok = report.overall and (oracle is None or all(e["pass"] for e in oracle))
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_check(args) -> int:
    model = _load_model(args)
    selected = _selected_checks(args)
    dm = double(model)
    report = run_checks(model, selected, model_id=args.input, dm=dm)
    if args.literal_theta_bar and not model.A.is_zero:
        hbar = extract_hamiltonian(model, use_printed_theta_bar=True, dm=dm)
        report.derived = {**(report.derived or {}), "hamiltonian_printed_theta_bar": hbar}
    oracle = None
    if args.oracle:
        oracle = oracle_results(report, model, args.fock_n, args.guard)
    return _emit(report, args, oracle)


def _cmd_extract(args) -> int:
    model = _load_model(args)
    dm = double(model)
    report = check_physical_realizability(model, model_id=args.input, dm=dm)
    if not report.overall and not args.force:
        print("physical realizability fails; re-run with --force to extract anyway",
              file=sys.stderr)
        _print_text_report(report, stream=sys.stderr)
        return EXIT_FAIL
    if model.A.is_zero:
        print("error: the drift is identically zero, nbar is undefined", file=sys.stderr)
        return EXIT_FAIL
    if report.derived is None:
        report.derived = realization_derived(model, dm)
    if not report.overall:
        print("warning: model is not physically realizable; values are formal",
              file=sys.stderr)
    return _emit(report, args)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_PASS
    try:
        if args.command in ("check", "oracle"):
            return _cmd_check(args)
        if args.command == "extract":
            return _cmd_extract(args)
        raise ValueError(f"unknown command {args.command!r}")
    except (ParseError, OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
