"""Numerical laboratory for nonlinear Schrodinger equations driven by
fractional-in-time, colored-in-space additive noise.

Subpackages:
    fbm     -- fractional Brownian kernel, transforms, scalar samplers
    field   -- periodic spatial grid, complex fields, Schrodinger group
    noise   -- spatial correlation operator, stochastic convolution, L and Q
    solver  -- mild-formulation time stepper, blow-up semantics, skeleton
    ldp     -- rare-event Monte Carlo, rate bounds, Holder estimation
    cli     -- configuration, orchestration, serialization
"""

from .errors import ConfigError, InvariantViolation

__version__ = "0.16.0"

__all__ = ["ConfigError", "InvariantViolation", "__version__"]
