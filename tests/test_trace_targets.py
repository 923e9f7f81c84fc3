"""Every function the benchmark traces is still defined where its span name says.

perfbench/run.py's TRACE_TARGETS names spans `<module>.<function>` of
rawphone. A target that no longer resolves makes every traced benchmark
run incorrect, so a change that deletes or renames one fails here. The
file is parsed, not imported, so the benchmark's own imports stay out of
the test run.
"""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def trace_targets():
    for node in ast.parse(RUN_PY.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACE_TARGETS" for t in node.targets
        ):
            return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"{RUN_PY} assigns no TRACE_TARGETS")


def test_every_trace_target_resolves_to_a_callable():
    targets = trace_targets()
    assert len(targets) > 10
    missing = []
    for name in targets:
        module, func = name.split(".", 1)
        if not callable(getattr(importlib.import_module(f"rawphone.{module}"), func, None)):
            missing.append(name)
    assert missing == []
