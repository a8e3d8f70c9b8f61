"""The public API: exactly the names the CLI, the bench and library callers use."""

from __future__ import annotations

import conetube
from conetube import curves, gluing, holonomy, jets, surgery, tube

PUBLIC = [
    "BASE_SHAPES", "BivariatePolynomial", "BranchError",
    "ConeExpansion", "ConvergenceRow", "CurveError", "CuspEigenvalues",
    "GeometricCurve", "GluingError", "HolonomyError", "Jet",
    "JetError", "KExpansion", "PeripheralMatrices", "Representation",
    "Slope", "SolvedStructure", "SurgeryError", "TOLERANCES", "TetShapes", "TubeError",
    "TubeMeasurement", "VarietyPoint", "base_representation",
    "commutator_trace_minus2", "compose", "cone_expansion", "constant",
    "convergence_table",
    "cusp_eigenvalues", "ensure_finite", "expand_from_polynomial",
    "expand_from_samples",
    "figure_eight_a_polynomial", "filled_curve_sampler", "fit_k_expansion",
    "jet_log", "jet_sqrt", "k1_range_check", "k_expansion_closed_form",
    "k_expansions", "measure_tube", "mu_hat_squared_numeric",
    "peripheral_matrices", "real_modulus_jet", "relation_residuals", "residuals",
    "reversion", "solve_cone_structure", "solve_shapes", "trace_identity_l1",
    "trace_identity_m1", "tube_cosh2R", "unfilled_curve_sampler", "variable",
    "whitehead_a_polynomial", "whitehead_k_reference", "y_from_l2",
]

# names that copied another definition, served only the tests, became
# module-private, held branch state that points now carry as values,
# capped or unrolled what one generic jet path now does, or continued a
# branch that the shapes' orientation now fixes, by the namespace that
# defined them; the test-only ones live in tests/oracles.py
GONE = {
    tube: [
        "core_length", "commutator_trace_minus2_from_eigenvalues", "monotonicity_report",
        "tube_cosh2R_trace_form", "cross_ratio", "line_distance", "INFINITY", "_homogeneous",
        "_k_quartic", "_mu_hat_sq_jet",
    ],
    curves: ["involution_defect", "_branch_coefficients"],
    curves.GeometricCurve: ["is_involution_symmetric"],
    gluing: [
        "alternate_eigenvalues", "_continued_disc_sqrt", "_walk_disc_sqrt", "_root", "_BASE_DISC",
        "_BASE_DISC_SQRT", "_SEGMENT_HOPS", "_MIN_HOP", "_HOP_ENDS", "_MAX_REL_STEP",
        "BranchAnchors", "_stack", "_continue_stacked", "_eigenvalues", "_walk_eigenvalues",
    ],
    holonomy: [
        "build_representation", "z_radicand", "RepresentationFamily", "continue_representation",
        "cusp_relation_residuals", "l2_eigenvalue", "_continued", "_walk_representation",
    ],
    surgery: ["_ChartWalker", "_LogAnchors", "_filled_base_walker", "_continue_point"],
    jets: [
        "sqrt_along_path", "log_along_path", "_walk", "_MAX_DEPTH", "jet_exp", "MAX_ORDER",
        "_CONVOLUTION", "_TOEPLITZ", "continue_sqrt", "continue_log", "_ratio_of_steps",
        "_sqrt_of_steps", "_MAX_REL_STEP", "_continue_sqrt_path",
    ],
    jets.Jet: ["truncate"],
}


def test_public_names_are_pinned():
    assert len(PUBLIC) == 58
    assert sorted(conetube.__all__) == PUBLIC


def test_every_public_name_resolves():
    assert [name for name in PUBLIC if not hasattr(conetube, name)] == []


def test_removed_names_are_gone():
    left = [
        f"{owner.__name__}.{name}"
        for owner, names in GONE.items()
        for name in names
        if hasattr(owner, name) or hasattr(conetube, name)
    ]
    assert left == []
