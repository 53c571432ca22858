"""The benchmark's tracer wraps qrealize's entry points by name.

``perfbench/tracing.py`` replaces methods on their classes and rebinds
module functions in every ``qrealize`` module that imported them, then
restores each original after a traced pass.  ``Tracer.install`` raises when
a name it wraps is gone, so renaming or deleting one fails here.
"""

import importlib.util
import sys
from pathlib import Path

import qrealize.cli  # noqa: F401  (the tracer wraps cli.main and fock's kernels)
import qrealize.fock  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_hook_and_restores_each_original():
    tracing = load_tracing()
    modules = [m for key, m in sys.modules.items()
               if key == "qrealize" or key.startswith("qrealize.")]
    methods = [(getattr(sys.modules[f"qrealize.{mod}"], cls), attr)
               for mod, cls, attr, _ in tracing.METHODS]
    functions = [(sys.modules[f"qrealize.{mod}"], fn) for mod, fn, _ in tracing.FUNCTIONS]
    owners = modules + [cls for cls, _ in methods]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr in methods + functions:
            assert vars(owner)[attr] is not before[owners.index(owner)][attr], attr
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == saved.keys()
        assert all(now[attr] is value for attr, value in saved.items()), owner
