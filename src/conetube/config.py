"""Shared numeric thresholds.

Every threshold that a guard or a verdict applies is a field of the frozen
table ``TOLERANCES``, named after what it bounds; no module keeps a literal
of its own. Thresholds that bound the same kind of quantity share a field.
Step sizes, radii and norms are algorithm parameters and stay in their
modules. The table cannot be assigned to. The CLI's ``--tol`` (fallback
``$CONETUBE_TOL``) overrides only the fields its command's verdict reads.
"""

from __future__ import annotations

import cmath
import dataclasses

ENV_TOL = "CONETUBE_TOL"


@dataclasses.dataclass(frozen=True)
class Tolerances:
    algebraic: float = 1e-12  # identities between exact algebraic expressions
    newton: float = 1e-13  # residual max-norm for Newton convergence
    group_relation: float = 1e-11  # matrix relation residuals
    trace_relation: float = 1e-9  # cusp trace identities
    curve_residual: float = 1e-9  # polynomial residual of a Taylor branch
    sample_agreement: float = 1e-6  # stencil-to-stencil agreement when sampling
    commutator_trace: float = 1e-10  # |tr[alpha, beta] - 2 + y| on the holonomy family
    k_reference: float = 1e-8  # jet (k0, k1) against the closed form, k0 relative
    branch_match: float = 1e-8  # relative miss of a branch value: sqrt^2, exp(log), z^2
    vanishing: float = 1e-9  # relative size of a part that must vanish: shifted or stray
    singular: float = 1e-14  # |denominator| of a refused division: Jacobian det, tr^2 - 4
    degenerate_shape: float = 1e-8  # distance of a tetrahedron shape from 0 or 1
    unit_determinant: float = 1e-8  # |det - 1| of an SL(2, C) holonomy matrix
    involution: float = 1e-9  # |a2 + m0 a1 - l0 a1^2| of a curve the cone expansion reads
    filling_residual: float = 1e-12  # a solved cone structure's filling relations, scale relative
    tube_identity: float = 1e-12  # relative miss of mu = theta sinh R and the area identity
    base_point: float = 1e-10  # a declared base point off its curve (value or sampler(0))
    crossing: float = 1e-8  # dA/dl, dA/dm read as zero (branch crossing), scale relative
    double_root: float = 1e-8  # relative gap below which two crossing slopes are one root
    degenerate_order: float = 1e-10  # an order equation's linear term read as zero, scale relative
    stationary_parameter: float = 1e-6  # |dm/ds| at the base of a sampled curve read as zero


TOLERANCES = Tolerances()


def ensure_finite(*values: complex) -> None:
    """Reject NaN/Inf before they propagate into an algebraic pipeline."""
    for z in values:
        z = complex(z)
        if not cmath.isfinite(z):
            raise ValueError(f"non-finite value {z!r}")
