"""Span tracing of qrealize's layers, installed from outside the package.

``Tracer.install`` wraps the public entry points of each module: methods
are replaced on their classes, and module functions are rebound in every
``qrealize`` module that imported them (``checks.double``,
``cli.run_checks`` ...).  ``Tracer.uninstall`` restores every original.

Each call records a span (name, parent span, start, end) in flat arrays held
in memory; ``write`` saves them when the run ends.  A span's self time is its
duration minus the durations of its child spans: one thread runs the
program, so children nest inside their parent and never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, class, attribute, span name).  Scalar's reflected ``__rsub__`` and
# ``__rtruediv__`` delegate to the wrapped forward operators, so wrapping them
# too would count one operation twice.
METHODS = [
    ("scalars", "Scalar", "__add__", "scalars.Scalar"),
    ("scalars", "Scalar", "__radd__", "scalars.Scalar"),
    ("scalars", "Scalar", "__sub__", "scalars.Scalar"),
    ("scalars", "Scalar", "__mul__", "scalars.Scalar"),
    ("scalars", "Scalar", "__rmul__", "scalars.Scalar"),
    ("scalars", "Scalar", "__truediv__", "scalars.Scalar"),
    ("algebra", "Algebra", "require_compatible", "algebra.require_compatible"),
    ("algebra", "CommutationMatrix", "is_diagonal", "algebra.is_diagonal"),
    ("algebra", "OperatorPolynomial", "__mul__", "algebra.poly_mul"),
    ("algebra", "OperatorPolynomial", "__add__", "algebra.poly_add"),
    ("algebra", "OperatorPolynomial", "__radd__", "algebra.poly_add"),
    ("algebra", "OperatorPolynomial", "commutator", "algebra.commutator"),
    ("algebra", "OperatorPolynomial", "adjoint", "algebra.adjoint"),
    ("matrices", "OperatorMatrix", "__matmul__", "matrices.matmul"),
    ("model", "QsdeModel", "to_float", "model.to_float"),
]

# (module, function, span name)
FUNCTIONS = [
    ("scalars", "grid_equal", "scalars.grid_equal"),
    ("algebra", "render", "algebra.render"),
    ("matrices", "outer_commutator", "matrices.commutators"),
    ("matrices", "row_commutator", "matrices.commutators"),
    ("matrices", "scalar_vec_commutator", "matrices.commutators"),
    ("matrices", "matrix_vector_commutators", "matrices.commutators"),
    ("model", "parse_model", "model.parse_model"),
    ("model", "double", "model.double"),
    ("checks", "check_class", "checks.class"),
    ("checks", "check_preservation", "checks.preserve"),
    ("checks", "check_physical_realizability", "checks.realize"),
    ("checks", "check_lossless", "checks.lossless"),
    ("checks", "check_storage_condition", "checks.storage"),
    ("checks", "synthesize_storage", "checks.synthesize"),
    ("fock", "represent", "fock.represent"),
    ("fock", "verify_identity", "fock.verify_identity"),
    ("fock", "guarded_indices", "fock.guarded_indices"),
    ("cli", "main", "cli.main"),
]

CHECK_FAMILIES = ("class", "preserve", "realize", "lossless", "storage", "synthesize")

# The per-layer metrics a traced run reports: (name, unit).
LAYER_METRICS = [
    ("scalars.grid_equal.calls", "count"),
    ("scalars.grid_equal.self_s", "s"),
    ("algebra.require_compatible.calls", "count"),
    ("algebra.require_compatible.self_s", "s"),
    ("scalars.Scalar.ops", "count"),
    ("scalars.Scalar.self_s", "s"),
    ("algebra.poly_mul.calls", "count"),
    ("algebra.poly_mul.self_s", "s"),
    ("algebra.poly_add.calls", "count"),
    ("algebra.poly_add.self_s", "s"),
    ("algebra.commutator.calls", "count"),
    ("algebra.commutator.self_s", "s"),
    ("algebra.adjoint.calls", "count"),
    ("algebra.is_diagonal.calls", "count"),
    ("algebra.render.calls", "count"),
    ("algebra.render.self_s", "s"),
    ("matrices.matmul.calls", "count"),
    ("matrices.matmul.self_s", "s"),
    ("matrices.matmul.products", "count"),
    ("matrices.matmul.zero_factor_ratio", "ratio"),
    ("matrices.commutators.self_s", "s"),
    ("model.parse_model.calls", "count"),
    ("model.parse_model.self_s", "s"),
    ("model.double.calls", "count"),
    ("model.double.self_s", "s"),
    ("model.to_float.self_s", "s"),
] + [(f"checks.{f}.s", "s") for f in CHECK_FAMILIES] + [
    ("checks.synthesize.calls", "count"),
    ("checks.synthesize.found_ratio", "ratio"),
    ("fock.represent.calls", "count"),
    ("fock.represent.self_s", "s"),
    ("fock.verify_identity.calls", "count"),
    ("fock.verify_identity.self_s", "s"),
    ("fock.guarded_indices.self_s", "s"),
    ("fock.dim.max", "count"),
    ("fock.zero_residual_ratio", "ratio"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
]

# Metrics that must repeat exactly between two traced runs at one seed.
COUNT_METRICS = [name for name, unit in LAYER_METRICS if unit in ("count", "ratio")]


def _matmul_probe(tracer, args):
    """Count the entry products of ``a @ b`` and those with a zero factor."""
    a, b = args[0], args[1]
    rows, inner, cols = a.rows, a.cols, b.cols
    nonzero = sum(
        sum(not a.entry(i, k).is_zero for i in range(rows))
        * sum(not b.entry(k, j).is_zero for j in range(cols))
        for k in range(inner)
    )
    tracer.counts["matmul.products"] += rows * inner * cols
    tracer.counts["matmul.zero_factor"] += rows * inner * cols - nonzero


def _represent_probe(tracer, args):
    p, truncation = args[0], args[1]
    tracer.counts["represent.zero"] += p.is_zero
    dim = truncation ** p.algebra.modes
    tracer.counts["dim.max"] = max(tracer.counts["dim.max"], dim)


PROBES = {"matrices.matmul": _matmul_probe, "fock.represent": _represent_probe}


class Tracer:
    """Spans and counts of one traced pass over a workload."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.counts = {"matmul.products": 0, "matmul.zero_factor": 0,
                       "represent.zero": 0, "dim.max": 0, "synthesize.found": 0}
        self._restore = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        probe = PROBES.get(name)
        found = name == "checks.synthesize"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(self, args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if found and result is not None:
                self.counts["synthesize.found"] += 1
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "qrealize" or key.startswith("qrealize.")]
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[f"qrealize.{mod_name}"], cls_name)
            orig = cls.__dict__[attr]
            if isinstance(orig, property):
                new = property(self.wrap(orig.fget, span), orig.fset, orig.fdel, orig.__doc__)
            else:
                new = self.wrap(orig, span)
            setattr(cls, attr, new)
            self._restore.append((cls, attr, orig))
        for mod_name, fn_name, span in FUNCTIONS:
            orig = getattr(sys.modules[f"qrealize.{mod_name}"], fn_name)
            new = self.wrap(orig, span)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, new)
                        self._restore.append((mod, attr, orig))

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.span_name, dtype=np.int32).copy(),
            np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            np.frombuffer(self.span_start, dtype=np.float64).copy(),
            np.frombuffer(self.span_end, dtype=np.float64).copy(),
        )

    def write(self, path):
        """Save every span: name index, parent span index (-1 at top), start, end."""
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)

    def summary(self) -> dict:
        """Per-span-name call counts, total and self seconds; family times."""
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_total = np.bincount(name, weights=self_time, minlength=k)
        out = {n: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_total[i])}
               for i, n in enumerate(self.names)}
        # A family's time counts only calls made outside another check family,
        # so preservation inside realize and lossless inside synthesis are
        # charged to realize and synthesize, as run_checks selects them.
        family_ids = {self.name_ids[f"checks.{f}"]: f for f in CHECK_FAMILIES
                      if f"checks.{f}" in self.name_ids}
        families = dict.fromkeys(CHECK_FAMILIES, 0.0)
        for idx in np.flatnonzero(np.isin(name, list(family_ids))):
            up = parent[idx]
            while up >= 0 and name[up] not in family_ids:
                up = parent[up]
            if up < 0:
                families[family_ids[name[idx]]] += float(dur[idx])
        return {"spans": out, "families": families}

    def layer_metrics(self) -> dict:
        summ = self.summary()
        spans = summ["spans"]

        def get(span, key):
            return spans.get(span, {}).get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        values = {}
        for metric, _unit in LAYER_METRICS:
            span, _, key = metric.rpartition(".")
            if key in ("calls", "self_s"):
                values[metric] = get(span, key)
        values.update({
            "scalars.Scalar.ops": get("scalars.Scalar", "calls"),
            "matrices.matmul.products": c["matmul.products"],
            "matrices.matmul.zero_factor_ratio": ratio(c["matmul.zero_factor"],
                                                       c["matmul.products"]),
            "checks.synthesize.found_ratio": ratio(c["synthesize.found"],
                                                   get("checks.synthesize", "calls")),
            "fock.dim.max": c["dim.max"],
            "fock.zero_residual_ratio": ratio(c["represent.zero"],
                                              get("fock.represent", "calls")),
            "cli.main.s": get("cli.main", "s"),
        })
        for family, seconds in summ["families"].items():
            values[f"checks.{family}.s"] = seconds
        return {metric: values[metric] for metric, _unit in LAYER_METRICS}
