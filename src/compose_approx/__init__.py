"""High-order derivatives of composite functions, Jacobi-weighted norms, and
weighted minimax polynomial approximation."""

from .combinatorics import (
    CompositionMatrix,
    PartitionVector,
    bell_number,
    enumerate_composition_matrices,
    enumerate_partition_vectors,
    incomplete_bell,
    incomplete_bell_ones,
    multinomial,
)
from .errors import (
    EvalDomainError,
    EvaluationError,
    ExprSyntaxError,
    ResourceLimitError,
    SingularSystemError,
)
from .expr import ExprAst, eval_jet1, eval_scalar, parse, to_string
from .faadibruno import (
    composite_derivative_1d,
    composite_derivative_nd,
    composite_jet,
    composite_value,
)
from .harness import (
    CompositeCheck,
    ExponentSelector,
    LemmaCheck,
    RateReport,
    select_exponents,
    verify_composite_bound,
    verify_lemma,
    verify_rate,
)
from .jets import Jet1, JetN, jet_compose, jet_lift, jetn_partials
from .minimax import (
    ApproxReport,
    ChebPoly,
    RemezOptions,
    cheb_interpolant,
    favard_rhs,
    weighted_remez,
)
from .weighted import (
    GridConfig,
    JacobiWeight,
    NormReport,
    chained_lemma_constant,
    lemma_constant,
    multivariate_sobolev_norm,
    phi_eval,
    sobolev_norm,
    weight_eval,
    weighted_sup_norm,
)

__version__ = "0.1.0"
