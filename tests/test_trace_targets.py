"""Every function the benchmark tracer wraps must exist in the package.

perfbench/spans.install looks each TARGETS name up with getattr and no
default, so a renamed or deleted function would break traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{short}.{name}"
        for short, names in spans.TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"smalldiv.{short}"), name, None))
    ]
    assert not missing, missing
