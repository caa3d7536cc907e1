"""Solving through decomposition sets.

A decomposition set B splits a formula into 2^|B| branch formulas, each
first probed by unit propagation and escalated to CDCL search on the same
engine only when the probe leaves it undecided. Several sets combine
through the Cartesian product of their undecided branches. Branch workloads are
observed identically to the hardness estimator, so decomposed totals line
up with estimates to the last propagation.
"""

from __future__ import annotations

import csv
import heapq
import itertools
from dataclasses import dataclass

from .estimator import (
    DecompositionSet,
    _check_cap,
    branch_bits,
    map_branches,
    sweep_branches,
)
from .formula import Assignment, CnfFormula
from .solver import (
    CDCL,
    LIMIT,
    SAT,
    UNDECIDED,
    UNKNOWN,
    UNSAT,
    UP_DECIDED,
    BranchOutcome,
    SolverConfig,
)

__all__ = [
    "UP_DECIDED",
    "CDCL",
    "BranchResult",
    "HardSet",
    "DecomposedVerdict",
    "solve_with_backdoor",
    "solve_with_backdoors",
    "simulate_parallel",
    "write_branch_ledger",
    "LEDGER_HEADER",
]

LEDGER_HEADER = [
    "backdoor_id",
    "beta_bits",
    "tier",
    "verdict",
    "propagations",
    "conflicts",
    "elapsed_s",
]


@dataclass(frozen=True)
class BranchResult:
    """One solved branch: its assignment bits, tier, verdict, and workload."""

    backdoor_id: int
    beta_bits: str
    tier: str
    verdict: str
    propagations: int
    conflicts: int
    elapsed_s: float
    model: Assignment | None = None


@dataclass(frozen=True)
class HardSet:
    """Branches of one decomposition set that unit propagation cannot decide."""

    backdoor: DecompositionSet
    hard: tuple[Assignment, ...]


@dataclass(frozen=True)
class DecomposedVerdict:
    verdict: str
    witness: Assignment | None
    branches: tuple[BranchResult, ...]
    propagations: int
    conflicts: int
    elapsed_s: float
    easy_count: int
    hard_count: int
    vacuous_count: int = 0
    hard_sets: tuple[HardSet, ...] = ()


def _total_witness(num_vars: int, model: Assignment) -> Assignment:
    # unconstrained variables default to false
    return {v: bool(model.get(v, False)) for v in range(1, num_vars + 1)}


def _branch_result(backdoor_id: int, bits: str, out: BranchOutcome) -> BranchResult:
    return BranchResult(
        backdoor_id,
        bits,
        out.tier,
        out.verdict,
        out.propagations,
        out.conflicts,
        out.elapsed,
        model=out.model,
    )


def _finish(branches, witness, vacuous=0, hard_sets=()):
    if witness is not None:
        verdict = SAT
    elif any(b.verdict == LIMIT for b in branches):
        verdict = UNKNOWN
    else:
        verdict = UNSAT
    return DecomposedVerdict(
        verdict=verdict,
        witness=witness,
        branches=tuple(branches),
        propagations=sum(b.propagations for b in branches),
        conflicts=sum(b.conflicts for b in branches),
        elapsed_s=sum(b.elapsed_s for b in branches),
        easy_count=sum(1 for b in branches if b.tier == UP_DECIDED),
        hard_count=sum(1 for b in branches if b.tier == CDCL),
        vacuous_count=vacuous,
        hard_sets=tuple(hard_sets),
    )


def solve_with_backdoor(
    formula: CnfFormula, B: DecompositionSet, cfg: SolverConfig | None = None,
    workers: int = 1,
) -> DecomposedVerdict:
    """Decide a formula by solving every branch of one decomposition set.

    Branches run in lexicographic order of the assignment bits. A
    satisfiable branch short-circuits the rest; unsatisfiability requires
    every branch refuted. A branch that hits cfg.conflict_limit makes the
    verdict UNKNOWN unless some branch is satisfiable. Any other verdict
    matches a direct solve. Refused before any branch when 2^|B| exceeds
    ENUMERATION_CAP.
    """
    branches: list[BranchResult] = []
    for beta, out in sweep_branches(formula, B, cfg, workers=workers):
        branches.append(_branch_result(0, branch_bits(B, beta), out))
        if out.verdict == SAT:
            return _finish(branches, _total_witness(formula.num_vars, out.model))
    return _finish(branches, None)


def solve_with_backdoors(
    formula: CnfFormula,
    backdoors: list[DecompositionSet] | tuple[DecompositionSet, ...],
    cfg: SolverConfig | None = None, workers: int = 1,
) -> DecomposedVerdict:
    """Decide a formula through several decomposition sets at once.

    Every branch of every set is classified by unit propagation; the
    undecided ones form per-set hard lists whose Cartesian product is then
    solved branch by branch. Sets may overlap: a product element whose
    parts contradict each other covers no assignment and is skipped,
    counted as vacuous. Unsatisfiable iff every easy branch and every
    nonvacuous merged branch is; UNKNOWN when a merged branch hits
    cfg.conflict_limit and none is satisfiable. Each set, before any is
    probed, and the product, before any merged branch is solved, is held
    to ENUMERATION_CAP.
    """
    if not backdoors:
        raise ValueError("need at least one decomposition set")
    # every set is checked before any is probed
    sweeps = [
        sweep_branches(formula, B, search=False, workers=workers) for B in backdoors
    ]

    branches: list[BranchResult] = []
    hard_sets: list[HardSet] = []
    for bid, (B, sweep) in enumerate(zip(backdoors, sweeps)):
        hard: list[Assignment] = []
        for beta, out in sweep:
            if out.tier == UNDECIDED:
                hard.append(beta)
                continue
            branches.append(_branch_result(bid, branch_bits(B, beta), out))
            if out.verdict == SAT:
                witness = _total_witness(formula.num_vars, out.model)
                return _finish(branches, witness, hard_sets=hard_sets)
        hard_sets.append(HardSet(B, tuple(hard)))

    product_total = 1
    for hs in hard_sets:
        product_total *= len(hs.hard)
    _check_cap(product_total)

    union_mask = 0
    for B in backdoors:
        union_mask |= B.mask
    union_set = DecompositionSet(formula.num_vars, union_mask)

    vacuous = 0
    merged = []  # indices of the nonvacuous merged branches over union_set
    for parts in itertools.product(*(hs.hard for hs in hard_sets)):
        gamma = {v: val for part in parts for v, val in part.items()}
        if any(gamma[v] != val for part in parts for v, val in part.items()):
            vacuous += 1  # overlapping parts disagree: no assignment is covered
        else:
            merged.append(int(branch_bits(union_set, gamma), 2))
    for gamma, out in map_branches(
        formula, union_set, merged, cfg, up_first=False, workers=workers
    ):
        branches.append(_branch_result(-1, branch_bits(union_set, gamma), out))
        if out.verdict == SAT:
            witness = _total_witness(formula.num_vars, out.model)
            return _finish(branches, witness, vacuous=vacuous, hard_sets=hard_sets)
    return _finish(branches, None, vacuous=vacuous, hard_sets=hard_sets)


def simulate_parallel(branch_costs, workers: int) -> float:
    """Makespan of greedy list scheduling over the given costs, in order.

    One worker reduces to the plain running sum; more workers hand each
    queued job to whichever worker frees up first.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    costs = list(branch_costs)
    if any(c < 0 for c in costs):
        raise ValueError("costs must be nonnegative")
    if not costs:
        return 0.0
    free = [(0.0, i) for i in range(workers)]
    heapq.heapify(free)
    makespan = 0.0
    for c in costs:
        t, i = heapq.heappop(free)
        t += c
        makespan = max(makespan, t)
        heapq.heappush(free, (t, i))
    return makespan


def write_branch_ledger(result: DecomposedVerdict, path) -> None:
    """Write one CSV row per solved branch to the file at `path`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LEDGER_HEADER)
        for br in result.branches:
            writer.writerow(
                [
                    br.backdoor_id,
                    br.beta_bits,
                    br.tier,
                    br.verdict,
                    br.propagations,
                    br.conflicts,
                    f"{br.elapsed_s:.6f}",
                ]
            )
