"""Every exported name resolves, and so does every function the benchmark
tracer wraps, so a deletion cannot silently break a traced benchmark run.
The public constructors reject what the config resolver rejects."""

import importlib
import importlib.util
import math
import pkgutil
import re
from pathlib import Path

import pytest

import fracnls
from fracnls.fbm import TimeGrid
from fracnls.field import GridSpec
from fracnls.ldp import EventSpec
from fracnls.solver import NonlinearitySpec, SolverConfig

MODULES = ["fracnls"] + [f"fracnls.{m.name}" for m in pkgutil.iter_modules(fracnls.__path__)]


def _traced():
    """``TRACED`` of perfbench/spans.py, loaded from its file (stdlib-only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


TRACED = _traced()


def test_pyproject_version_is_the_package_version():
    # a regex, not tomllib, which Python 3.10 does not have
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    versions = re.findall(r'^version = "([^"]*)"$', text, re.MULTILINE)
    assert versions == [fracnls.__version__]


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


NON_FINITE = {
    "grid-L-nan": (GridSpec, 1, 8, math.nan),
    "grid-L-inf": (GridSpec, 1, 8, math.inf),
    "time-T-nan": (TimeGrid, math.nan, 4),
    "time-T-inf": (TimeGrid, math.inf, 4),
    "solver-T-nan": (SolverConfig, math.nan, 4),
    "solver-T-inf": (SolverConfig, math.inf, 4),
    "solver-threshold-nan": (SolverConfig, 1.0, 4, math.nan),
    "solver-threshold-inf": (SolverConfig, 1.0, 4, math.inf),
    "kerr-sigma-nan": (NonlinearitySpec, "kerr", 1, math.nan),
    "kerr-sigma-inf": (NonlinearitySpec, "kerr", 1, math.inf),
    "kerr-kappa-nan": (NonlinearitySpec, "kerr", 1, 1.0, math.nan),
    "saturated-kappa-nan": (NonlinearitySpec, "saturated", 1, 1.0, math.nan),
    "saturated-kappa-inf": (NonlinearitySpec, "saturated", 1, 1.0, math.inf),
    "event-threshold-nan": (EventSpec, "sup-norm-exceed", math.nan),
    "event-threshold-inf": (EventSpec, "sup-norm-exceed", math.inf),
    "event-index-nan": (EventSpec, "sup-norm-exceed", 1.0, math.nan),
}


@pytest.mark.parametrize("make", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_numbers_are_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make[0](*make[1:])
