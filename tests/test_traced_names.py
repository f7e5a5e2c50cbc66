"""The benchmark tracer rebinds package functions by name; each must exist.

perfbench/tracing.py lists them in TRACED as (module, attribute) pairs,
with Class.method for classmethods.  A rename in the package would break
the traced benchmark run, so this reads the list without importing the
benchmark and resolves every entry.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced() -> list[tuple[str, str]]:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise LookupError(f"no TRACED assignment in {TRACING}")


@pytest.mark.parametrize(
    "module_name, attr", [pytest.param(*pair, id=".".join(pair)) for pair in _traced()]
)
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(f"primegaps.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert isinstance(getattr(module, cls_name).__dict__[meth], classmethod)
    else:
        assert callable(getattr(module, attr))
