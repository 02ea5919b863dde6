"""The benchmark's tracer hooks must name attributes that still exist.

perfbench/run.py wraps module attributes (for example
needleboard.search.breakpoint_offsets) to time layers and count work in its
--trace 1 pass; a refactor that renames or removes one would break that pass
without failing any other test.
"""

import importlib.util
from pathlib import Path

import needleboard
import needleboard.cli  # noqa: F401  (binds needleboard.cli)

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_hooks_name_existing_attributes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    hooks = run._hooks(needleboard)
    assert hooks
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in hooks
               if not callable(getattr(module, attr, None))]
    assert missing == []
