"""Shared numeric tolerances.

All defaults live on one mutable instance, ``TOLERANCES``, so a caller (or
the CLI) can tighten or relax every check in one place.
"""

from __future__ import annotations

import cmath
import dataclasses

ENV_TOL = "CONETUBE_TOL"


@dataclasses.dataclass
class Tolerances:
    algebraic: float = 1e-12       # identities between exact algebraic expressions
    newton: float = 1e-13          # residual max-norm for Newton convergence
    group_relation: float = 1e-11  # matrix relation residuals
    trace_relation: float = 1e-9   # cusp trace identities
    curve_residual: float = 1e-9   # polynomial residual of a Taylor branch
    sample_agreement: float = 1e-6 # stencil-to-stencil agreement when sampling


TOLERANCES = Tolerances()


def ensure_finite(*values: complex) -> None:
    """Reject NaN/Inf before they propagate into an algebraic pipeline."""
    for z in values:
        z = complex(z)
        if not cmath.isfinite(z):
            raise ValueError(f"non-finite value {z!r}")
