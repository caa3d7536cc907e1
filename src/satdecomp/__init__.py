"""Decomposition hardness of CNF formulas.

Estimate how much total work a complete solver needs across every branch
of a variable subset, search for subsets that minimize it, solve by
decomposition, and certify unsatisfiability with split proof bundles.
"""

from .decompose import (
    BranchResult,
    DecomposedVerdict,
    simulate_parallel,
    solve_with_backdoor,
    solve_with_backdoors,
    write_branch_ledger,
)
from .estimator import (
    DecompositionSet,
    DHardnessEstimate,
    EstimatorConfig,
    RhoEstimate,
    SampleStats,
    branch_assignment,
    branch_bits,
    estimate_d_hardness,
    estimate_rho,
    exact_d_hardness,
    required_sample_size,
    sample_assignments,
)
from .formula import (
    Assignment,
    Clause,
    CnfError,
    CnfFormula,
    check_assignment,
    evaluate,
    parse_dimacs,
    substitute,
    trivially_unsat,
    write_dimacs,
)
from .proofs import (
    BundleCheck,
    CubeGroupFormula,
    ProofBundle,
    build_cube_group,
    check_proof_bundle,
    generate_proof_bundle,
)
from .search import (
    FitnessEvaluator,
    GaConfig,
    GaResult,
    Individual,
    SatDiscovered,
    SearchSpace,
    find_minimum_sbs,
    ga_minimize,
    reduce_search_space,
    variable_weights,
    write_history_csv,
)
from .solver import (
    CONFLICTS,
    PROPAGATIONS,
    SAT,
    TIME,
    UNSAT,
    BranchOutcome,
    DratProof,
    PropagateResult,
    SolverConfig,
    check_drat,
    propagate_only,
    solve,
    workload,
)

__version__ = "0.1.0"
