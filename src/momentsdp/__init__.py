"""Moment relaxations of polynomial and measure-valued optimization problems.

The pipeline: polynomials and graded-lex monomial indexing
(`polynomials`), moment vectors and matrix stencils (`moments`), the one
relaxation builder for polynomial minimization and generalized moment
problems (`relaxation`), multi-measure problems with transport constraints
(`gmp`), a dense primal-dual interior-point conic solver (`sdp`), rank
certificates with atom extraction (`extraction`), pencil utilities and
shadow sampling (`spectra`), built-in benchmark problems (`casestudies`),
one text format for problem files (`problemfile`) and a command-line front
end (`cli`).
"""

from .extraction import (
    Certificate,
    ExtractionError,
    certify,
    extract_atoms,
    numerical_rank,
)
from .gmp import (
    DegreeTooHighError,
    DynamicsProblem,
    DynamicsSpec,
    GMPProblem,
    GMPResult,
    MeasureDecl,
    MomentConstraint,
    build_dynamics_gmp,
    build_gmp_relaxation,
    piecewise_liouville,
    resolve_minimal_time,
    solve_gmp,
)
from .moments import (
    MatrixStencil,
    MomentVector,
    evaluate_stencil,
    localizing_matrix_stencil,
    moment_matrix_stencil,
)
from .polynomials import (
    Polynomial,
    VarSpace,
    grlex_exponent,
    grlex_index,
    monomial_count,
    parse_polynomial,
)
from .problemfile import ParsedProblem, ProblemFileError, load_problem, parse_problem_text
from .relaxation import (
    POPProblem,
    SemialgebraicSet,
    bound_and_moments,
    build_relaxation,
    half_degree,
)
from .sdp import (
    Block,
    BlockData,
    ConicProgram,
    SDPSolution,
    SolveOptions,
    solve,
    solve_batch,
)
from .spectra import Pencil, defining_polynomials, membership, shadow_support_points

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockData",
    "Certificate",
    "ConicProgram",
    "DegreeTooHighError",
    "DynamicsProblem",
    "DynamicsSpec",
    "ExtractionError",
    "GMPProblem",
    "GMPResult",
    "MatrixStencil",
    "MeasureDecl",
    "MomentConstraint",
    "MomentVector",
    "POPProblem",
    "ParsedProblem",
    "Pencil",
    "Polynomial",
    "ProblemFileError",
    "SDPSolution",
    "SemialgebraicSet",
    "SolveOptions",
    "VarSpace",
    "bound_and_moments",
    "build_dynamics_gmp",
    "build_gmp_relaxation",
    "build_relaxation",
    "certify",
    "defining_polynomials",
    "evaluate_stencil",
    "extract_atoms",
    "grlex_exponent",
    "grlex_index",
    "half_degree",
    "load_problem",
    "localizing_matrix_stencil",
    "membership",
    "moment_matrix_stencil",
    "monomial_count",
    "numerical_rank",
    "parse_polynomial",
    "parse_problem_text",
    "piecewise_liouville",
    "resolve_minimal_time",
    "shadow_support_points",
    "solve",
    "solve_batch",
    "solve_gmp",
]
