"""Every exported name resolves, and so does every function the benchmark
tracer wraps, so a deletion cannot silently break a traced benchmark run."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import fracnls

MODULES = ["fracnls"] + [f"fracnls.{m.name}" for m in pkgutil.iter_modules(fracnls.__path__)]


def _traced():
    """``TRACED`` of perfbench/spans.py, loaded from its file (stdlib-only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


TRACED = _traced()


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("span, module, attr", TRACED, ids=[span for span, _, _ in TRACED])
def test_traced_functions_resolve(span, module, attr):
    owner = importlib.import_module(f"fracnls.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
