"""Characteristic functions of pure 1/k-contractions on the unit ball.

The package computes, for unitarily invariant kernels admitting a complete
Nevanlinna-Pick factor, the explicit characteristic function of a pure
1/k-contraction together with the supporting objects (coefficient series,
model tuples, defect operators, dilation isometries) and verification
routines for every identity the construction rests on.
"""

from .series import (
    KernelSeries,
    RealSeries,
    KernelFactorization,
    FactorizationError,
    NonnegativityCertificate,
    AdmissibilityReport,
    admissibility_report,
    bergman_kernel,
    cauchy_product,
    contraction_diagonal,
    dirichlet_kernel,
    drury_arveson_kernel,
    factor_through_pick,
    is_complete_pick,
    is_positive_quotient,
    kernel_from_coefficients,
    kernel_from_spec,
    kernel_to_spec,
    quotient,
    reciprocal_complement,
    szego_kernel,
)
from .multiindex import (
    MultiIndex,
    enumerate_up_to_degree,
    multinomial,
)
from .operators import (
    OperatorTuple,
    DefectData,
    PurityReport,
    ConvergenceError,
    NotContractionError,
    NotPureError,
    compress,
    defect_data,
    model_tuple,
    operator_series,
    purity_check,
    quadratic_form_certificate,
    random_coinvariant_compression,
    tuple_from_spec,
    tuple_to_spec,
)
from .dilation import (
    DilationData,
    MonomialWindow,
    AssociatedTupleCertificate,
    WindowError,
    associated_tuple_test,
    build_dilation,
    intertwining_residuals,
    kernel_vector_gap,
)
from .charfn import (
    CharFnData,
    TaylorCoefficients,
    MultiplierMatrix,
    FactorizationResidual,
    KInnerData,
    AlignmentData,
    CharFnBuildError,
    EmptyKInnerError,
    align_factorizations,
    build_charfn,
    build_multiplier,
    charfn_blocks_dict,
    coincidence_residual,
    evaluation_gap,
    factorization_residual,
    functional_model,
    inverse_identity_residual,
    k_inner_subspace,
    pointwise_identity_residual,
    row_symbol_margin,
)

__version__ = "0.1.0"
