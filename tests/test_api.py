"""Every exported name resolves, and so does every function the benchmark
tracer wraps, so a deletion cannot silently break a traced benchmark run.
The public constructors reject what the config resolver rejects, and every
function that reads the kernel constant rejects a Hurst index outside (0, 1)."""

import importlib
import importlib.util
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import fracnls
from fracnls import fbm, noise, oracles
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
    # the one line of the form version = "...", found by a regex
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


_TG = TimeGrid(1.0, 4)
_SPEC = noise.CorrelationSpec(GridSpec(1, 8, math.pi), np.ones(8))
_PHI = np.ones(4)

# Every function that reads the kernel constant c_H, itself or through a call,
# with valid arguments apart from the Hurst index.
HURST_CALLS = {
    "kernel_eval": lambda H: fbm.kernel_eval(H, 1.0, 0.5),
    "kernel_eval_grid": lambda H: fbm.kernel_eval_grid(H, 1.0, 0.5),
    "kernel_time_derivative": lambda H: fbm.kernel_time_derivative(H, 1.0, 0.5),
    "covariance_from_kernel": lambda H: fbm.covariance_from_kernel(H, _TG),
    "increment_covariance_beta": lambda H: fbm.increment_covariance_beta(H, _TG.points),
    "apply_kt_star": lambda H: fbm.apply_kt_star(H, _PHI, _TG.points, 0.5),
    "duality_pairing": lambda H: fbm.duality_pairing(H, _PHI, _PHI, _TG),
    "rkhs_inner_product": lambda H: fbm.rkhs_inner_product(H, _PHI, _PHI, _TG),
    "build_Q": lambda H: noise.build_Q(_SPEC, H, _TG),
    "kernel_rule_gap": lambda H: oracles.kernel_rule_gap(H, 1.0, 0.5, 8),
    "kernel_derivative_fd_error": lambda H: oracles.kernel_derivative_fd_error(H, 1.0, 0.5, 1e-6),
    "covariance_quadrature_error": lambda H: oracles.covariance_quadrature_error(H, _TG),
    "duality_gap": lambda H: oracles.duality_gap(H, _PHI, _PHI, _TG),
    "restriction_gap": lambda H: oracles.restriction_gap(H, _PHI, _TG, 2),
    "rkhs_covariance_error": lambda H: oracles.rkhs_covariance_error(H, _TG, 0.5, 0.25),
    "q_ll_residual": lambda H: oracles.q_ll_residual(_SPEC, H, _TG),
}


@pytest.mark.parametrize("H", [0, 1, 1.5, math.nan], ids=["0", "1", "1.5", "nan"])
@pytest.mark.parametrize("call", HURST_CALLS.values(), ids=HURST_CALLS.keys())
def test_hurst_index_is_validated_where_it_is_read(call, H):
    with pytest.raises(ValueError, match="Hurst parameter must lie in"):
        call(H)
