"""Monte Carlo estimation of decomposition hardness.

The d-hardness of a formula C with respect to a decomposition set B and a
deterministic complete solver is the total solver workload summed over all
2^|B| substituted branch formulas. For large B it is estimated as
2^|B| times the sample mean of branch workloads over uniformly drawn
assignments of B, with the sample grown adaptively until a
Chebyshev-derived sample-size condition certifies the requested relative
accuracy epsilon at confidence 1 - delta.

Estimates are carried as (mean, |B|) with a log2 view, so comparisons stay
meaningful when 2^|B| overflows double precision: the value then saturates
to infinity while the log2 view stays exact.

There is one estimate, estimate_d_hardness. Every branch is probed by unit
propagation first, and the estimate also reports easy_count, the observed
branches that the probe decides, and rho from its first round.
"""
from __future__ import annotations

import hashlib
import math
import random
import statistics
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterator, Sequence

from . import parallel
from .formula import Assignment, CnfFormula
from .solver import (
    MEASURES,
    PROPAGATIONS,
    PROBE_ONLY,
    SAT,
    UP_DECIDED,
    BranchOutcome,
    SolverConfig,
    evaluate_branch,
    workload,
)

ENUMERATION_CAP = 1 << 20  # most branches any walk over a whole set visits


@dataclass(frozen=True)
class DecompositionSet:
    """A set of variables, stored as a bit mask over 1..num_vars."""

    num_vars: int
    mask: int

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("num_vars must be nonnegative")
        if self.mask < 0 or self.mask >> self.num_vars:
            raise ValueError("mask has bits outside 1..num_vars")

    @classmethod
    def from_vars(cls, variables, num_vars: int) -> "DecompositionSet":
        mask = 0
        for v in variables:
            if not 1 <= v <= num_vars:
                raise ValueError(f"variable {v} outside 1..{num_vars}")
            bit = 1 << (v - 1)
            if mask & bit:
                raise ValueError(f"variable {v} listed twice")
            mask |= bit
        return cls(num_vars, mask)

    @cached_property
    def members(self) -> tuple[int, ...]:
        return tuple(
            v for v in range(1, self.num_vars + 1) if (self.mask >> (v - 1)) & 1
        )

    def __len__(self) -> int:
        return self.mask.bit_count()


@dataclass
class EstimatorConfig:
    epsilon: float = 0.1
    delta: float = 0.1
    initial_n: int = 1000
    max_n: int = 100_000
    seed: int = 0
    measure: str = PROPAGATIONS
    workers: int = 1

    def __post_init__(self) -> None:
        if not (0 < self.epsilon):
            raise ValueError("epsilon must be positive")
        if not (0 < self.delta < 1):
            raise ValueError("delta must be in (0, 1)")
        if self.initial_n < 2:
            raise ValueError("initial_n must be at least 2")
        if self.max_n < self.initial_n:
            raise ValueError("max_n must be >= initial_n")
        if self.measure not in MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class SampleStats:
    """Sample size, mean and unbiased variance of branch workloads."""

    n: int
    mean: float
    variance: float


@dataclass(frozen=True)
class RhoEstimate:
    """Fraction of sampled branches decided by unit propagation alone."""

    rho: float
    n: int
    easy_count: int
    exhaustive: bool


@dataclass(frozen=True)
class DHardnessEstimate:
    stats: SampleStats
    value: float
    log2_value: float
    converged: bool
    exhaustive: bool
    sat_found: bool
    easy_count: int  # observed branches that unit propagation decides
    witness: Assignment | None = None
    rho: RhoEstimate | None = None  # of the first round; None once SAT is found


@dataclass(frozen=True)
class SampleDraw:
    assignments: tuple[Assignment, ...]
    exhaustive: bool


def mask_seed(seed: int, mask: int) -> int:
    """Derive a per-mask estimation seed; independent of evaluation order."""
    digest = hashlib.sha256(f"{seed}#{mask:x}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def branch_assignment(B: DecompositionSet, index: int) -> Assignment:
    """index-th assignment of B in lexicographic (big-endian) order."""
    members = B.members
    m = len(members)
    if not 0 <= index < (1 << m):
        raise ValueError("branch index out of range")
    return {v: (index >> (m - 1 - i)) & 1 for i, v in enumerate(members)}


def _branch_at(formula, B, cfg, index):
    beta = branch_assignment(B, index)
    out = evaluate_branch(formula, beta, cfg)
    if out.model is not None:  # beta completes the residual's model
        out.model.update(beta)
    return beta, out


def _branch_fn(formula: CnfFormula, B: DecompositionSet, cfg=None):
    if B.num_vars != formula.num_vars:
        raise ValueError("decomposition set and formula disagree on num_vars")
    return partial(_branch_at, formula, B, cfg)


def map_branches(
    formula: CnfFormula, B: DecompositionSet, indices: Sequence[int],
    cfg: SolverConfig | None = None, workers: int = 1,
) -> Iterator[tuple[Assignment, BranchOutcome]]:
    """Evaluate the branches of B at the given indices: (beta, outcome) pairs
    in the order given. Each branch is probed by unit propagation and then
    searched within cfg's conflict limit; PROBE_ONLY gives the probe alone.

    The one place a branch is evaluated, and the one place a satisfiable
    branch's witness is built: its outcome's model is the residual's model
    with beta on top, a model of the formula itself. B and the formula must
    agree on num_vars, and workers must be positive: both are checked at call
    time. Only indices and (beta, outcome) pairs cross to the call's one
    pool; at one worker branches run lazily, so a caller may stop early.
    """
    return parallel.ordered_map(_branch_fn(formula, B, cfg), indices, workers)


def _check_cap(count: int) -> None:
    """Refuse a walk over more than ENUMERATION_CAP branches, read at call time."""
    if count > ENUMERATION_CAP:
        raise ValueError(
            f"{count} branches exceed the enumeration cap {ENUMERATION_CAP}"
        )


def sweep_branches(
    formula: CnfFormula, B: DecompositionSet, cfg: SolverConfig | None = None, *,
    workers: int = 1,
) -> Iterator[tuple[Assignment, BranchOutcome]]:
    """Evaluate every branch of B: (beta, outcome) pairs in lexicographic order.

    The checked walk over a whole decomposition set: map_branches over all
    2^|B| indices, refused at call time, before any branch, when 2^|B|
    exceeds ENUMERATION_CAP.
    """
    count = 1 << len(B)
    _check_cap(count)
    return map_branches(formula, B, range(count), cfg, workers=workers)


def branch_bits(B: DecompositionSet, beta: Assignment) -> str:
    return "".join(str(beta[v]) for v in B.members)


def _draw(B: DecompositionSet, n: int, seed: int) -> tuple[Sequence[int], bool]:
    """n uniform branch indices of B, or every index when 2^|B| <= n.

    Returns (indices, exhaustive). Every index comes in lexicographic order
    when 2^|B| <= n; otherwise draw j is a fixed function of (seed, B, j): one
    Mersenne Twister stream keyed by SHA-256 of the seed and the member list,
    so a longer draw extends a shorter one. Index r stands for
    branch_assignment(B, r).
    """
    if len(B) == 0:
        raise ValueError("decomposition set is empty")
    if n < 1:
        raise ValueError("n must be positive")
    m = len(B)
    if (1 << m) <= n:
        return range(1 << m), True
    digest = hashlib.sha256(f"{seed}|{','.join(map(str, B.members))}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    return [rng.getrandbits(m) for _ in range(n)], False


def sample_assignments(B: DecompositionSet, n: int, seed: int) -> SampleDraw:
    """Draw n uniform assignments of B; full enumeration when 2^|B| <= n."""
    indices, exhaustive = _draw(B, n, seed)
    return SampleDraw(tuple(branch_assignment(B, i) for i in indices), exhaustive)


def required_sample_size(stats: SampleStats, epsilon: float, delta: float) -> int:
    """Smallest sample size certifying relative error epsilon at confidence
    1 - delta by the Chebyshev bound: ceil(s^2 / (eps^2 delta mean^2)).

    Computed with exact rational arithmetic over the decimal face value of
    the inputs, so results at integer boundaries match hand calculations.
    A zero mean returns 1 (the estimate is degenerate and treated as
    converged); zero variance returns 1.
    """
    from fractions import Fraction

    if epsilon <= 0 or not (0 < delta < 1):
        raise ValueError("need epsilon > 0 and 0 < delta < 1")
    if stats.mean < 0 or stats.variance < 0:
        raise ValueError("mean and variance must be nonnegative")
    if stats.mean == 0:
        return 1
    bound = Fraction(repr(float(stats.variance))) / (
        Fraction(repr(float(epsilon))) ** 2
        * Fraction(repr(float(delta)))
        * Fraction(repr(float(stats.mean))) ** 2
    )
    return max(1, math.ceil(bound))


def compute_stats(observations) -> SampleStats:
    n = len(observations)
    if n < 1:
        raise ValueError("no observations")
    mean = sum(observations) / n
    variance = float(statistics.variance(observations)) if n > 1 else 0.0
    return SampleStats(n, float(mean), variance)


def _estimate_fields(stats: SampleStats, b_size: int) -> tuple[float, float]:
    try:
        value = math.ldexp(stats.mean, b_size)
    except OverflowError:
        value = math.inf
    log2_value = math.log2(stats.mean) + b_size if stats.mean > 0 else -math.inf
    return value, log2_value


class _Branches:
    """Branch observations of one estimate, each branch evaluated once.

    Observations are kept under their branch index, so a repeated draw and
    the switch from sampling to enumeration reuse work already done.
    """

    def __init__(self, run, measure: str) -> None:
        self.map = run  # index list -> (beta, outcome) pairs, in order
        self.measure = measure
        self.seen: dict[int, tuple[int | float, bool]] = {}  # index -> (cost, easy)
        self.witness: Assignment | None = None

    def evaluate(self, indices) -> None:
        """Evaluate the unseen branches among indices, in order of first
        appearance. Stops at a satisfiable branch, keeping its witness."""
        todo = [i for i in dict.fromkeys(indices) if i not in self.seen]
        for i, (_, out) in zip(todo, self.map(todo)):
            if out.verdict == SAT:
                self.witness = out.model
                return
            self.seen[i] = (workload(out, self.measure), out.tier == UP_DECIDED)

    def observed(self, indices) -> tuple[list, int]:
        """Costs and easy count of indices up to the first unevaluated one."""
        costs = []
        easy = 0
        for i in indices:
            hit = self.seen.get(i)
            if hit is None:
                break
            costs.append(hit[0])
            easy += hit[1]
        return costs, easy


def estimate_d_hardness(
    formula: CnfFormula, B: DecompositionSet, cfg: EstimatorConfig | None = None
) -> DHardnessEstimate:
    """Adaptive Monte Carlo estimate of 2^|B| times the mean branch workload.

    The sample starts at cfg.initial_n observations and doubles (pooling
    all observations) until the required-sample-size condition holds or
    cfg.max_n is reached; exhaustive enumeration replaces sampling as soon
    as 2^|B| fits the current sample size, giving the exact value. Each
    distinct branch is evaluated once: repeated draws and the enumeration
    reuse earlier observations. Any SAT branch aborts estimation with
    sat_found set and a witness. One pool serves all rounds.

    Every branch is probed by unit propagation first, and an undecided one
    goes on into search on the same engine, so the workload is the plain
    solver's. easy_count counts the observed branches that unit propagation
    decides, repeated draws counted each time. The first round's probe
    results give rho, the share of branches that unit propagation decides
    (estimate_rho on the first draw). estimate_d_hardness_with_up_preprocessing
    is this function under a second name, kept for the benchmark.
    """
    cfg = cfg or EstimatorConfig()
    b = len(B)
    with parallel.Pool(_branch_fn(formula, B), cfg.workers) as pool:
        branches = _Branches(pool.map, cfg.measure)
        target = cfg.initial_n
        rho = None
        while True:
            drawn, exhaustive = _draw(B, target, cfg.seed)
            if exhaustive:
                _check_cap(len(drawn))
            branches.evaluate(drawn)
            # the estimate over the observed prefix of the draw; a satisfiable
            # branch makes it neither converged nor exhaustive
            observations, easy = branches.observed(drawn)
            stats = (
                compute_stats(observations) if observations else SampleStats(0, 0.0, 0.0)
            )
            sat = branches.witness is not None
            if rho is None and not sat:  # the first round, observed in full
                rho = RhoEstimate(easy / len(drawn), len(drawn), easy, exhaustive)
            exhaustive = exhaustive and not sat
            # a zero mean needs a sample of 1, so it counts as converged
            converged = not sat and (
                exhaustive or stats.n >= required_sample_size(stats, cfg.epsilon, cfg.delta)
            )
            if sat or exhaustive or converged or stats.n >= cfg.max_n:
                return DHardnessEstimate(
                    stats, *_estimate_fields(stats, b),
                    converged=converged, exhaustive=exhaustive, sat_found=sat,
                    witness=branches.witness, easy_count=easy,
                    rho=None if sat else rho,
                )
            target = min(2 * stats.n, cfg.max_n)


# the benchmark calls and traces the estimate under this name
estimate_d_hardness_with_up_preprocessing = estimate_d_hardness


def estimate_rho(
    formula: CnfFormula, B: DecompositionSet, n: int = 10_000, seed: int = 0
) -> RhoEstimate:
    """Fraction of branch formulas decided by unit propagation (PROBE_ONLY);
    each distinct draw is probed once and counted as often as it is drawn."""
    indices, exhaustive = _draw(B, n, seed)
    distinct = list(dict.fromkeys(indices))
    probes = map_branches(formula, B, distinct, PROBE_ONLY)
    easy = {i for i, (_, out) in zip(distinct, probes) if out.tier == UP_DECIDED}
    decided = sum(1 for i in indices if i in easy)
    return RhoEstimate(decided / len(indices), len(indices), decided, exhaustive)


def exact_d_hardness(
    formula: CnfFormula, B: DecompositionSet, measure: str = PROPAGATIONS
) -> int | float:
    """Brute-force d-hardness: total workload over all 2^|B| branches.

    Accepts the empty set (the sum is then the single workload of the
    formula itself). Integer measures return an exact arbitrary-precision
    integer.
    """
    return sum(workload(out, measure) for _, out in sweep_branches(formula, B))
