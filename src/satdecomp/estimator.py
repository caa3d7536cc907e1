"""Monte Carlo estimation of decomposition hardness.

The d-hardness of a formula C with respect to a decomposition set B and a
deterministic complete solver is the total solver workload summed over all
2^|B| substituted branch formulas. For large B it is estimated as
2^|B| times the sample mean of branch workloads over uniformly drawn
assignments of B, with the sample grown adaptively until a
Chebyshev-derived sample-size condition certifies the requested relative
accuracy epsilon at confidence 1 - delta.

Estimates are carried as (mean, |B|) with a log2 view, so comparisons stay
meaningful when 2^|B| overflows double precision.
"""
from __future__ import annotations

import hashlib
import math
import random
import statistics
from dataclasses import dataclass
from functools import cached_property, partial

from . import parallel
from .formula import Assignment, CnfFormula
from .solver import (
    MEASURES,
    PROPAGATIONS,
    SAT,
    UNDECIDED,
    UP_DECIDED,
    evaluate_branch,
    solve,
    workload,
)


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
    enumeration_cap: int = 1 << 20
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
        if self.enumeration_cap < 1:
            raise ValueError("enumeration_cap must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class SampleStats:
    """Sample size, mean and unbiased variance of branch workloads."""

    n: int
    mean: float
    variance: float


@dataclass(frozen=True)
class DHardnessEstimate:
    stats: SampleStats
    b_size: int
    value: float
    log2_value: float
    converged: bool
    exhaustive: bool
    sat_found: bool
    witness: Assignment | None = None
    easy_count: int | None = None


@dataclass(frozen=True)
class RhoEstimate:
    """Fraction of sampled branches decided by unit propagation alone."""

    rho: float
    n: int
    easy_count: int
    exhaustive: bool


@dataclass(frozen=True)
class SampleDraw:
    assignments: tuple[Assignment, ...]
    exhaustive: bool


def _stream_seed(seed: int, members: tuple[int, ...]) -> int:
    digest = hashlib.sha256(
        f"{seed}|{','.join(map(str, members))}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


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


def branch_bits(B: DecompositionSet, beta: Assignment) -> str:
    return "".join(str(beta[v]) for v in B.members)


class _BetaStream:
    """Uniform branch indices of B with a seed-stable prefix.

    Draw j is a fixed function of (seed, B, j): one Mersenne Twister stream
    keyed by SHA-256 of the seed and the member list, consumed in order.
    Index r stands for branch_assignment(B, r).
    """

    def __init__(self, B: DecompositionSet, seed: int) -> None:
        self._bits = len(B)
        self._rng = random.Random(_stream_seed(seed, B.members))
        self._drawn: list[int] = []

    def prefix(self, n: int) -> list[int]:
        while len(self._drawn) < n:
            self._drawn.append(self._rng.getrandbits(self._bits))
        return self._drawn[:n]


def sample_assignments(B: DecompositionSet, n: int, seed: int) -> SampleDraw:
    """Draw n uniform assignments of B; full enumeration when 2^|B| <= n."""
    if len(B) == 0:
        raise ValueError("decomposition set is empty")
    if n < 1:
        raise ValueError("n must be positive")
    m = len(B)
    if m <= 60 and (1 << m) <= n:
        full = [branch_assignment(B, i) for i in range(1 << m)]
        return SampleDraw(tuple(full), True)
    drawn = _BetaStream(B, seed).prefix(n)
    return SampleDraw(tuple(branch_assignment(B, r) for r in drawn), False)


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
    value = math.ldexp(stats.mean, b_size)
    log2_value = math.log2(stats.mean) + b_size if stats.mean > 0 else -math.inf
    return value, log2_value


class _Branches:
    """Branch observations of one estimate, each branch evaluated once.

    Observations are kept under their branch index, so a repeated draw and
    the switch from sampling to enumeration reuse work already done.
    """

    def __init__(
        self, formula: CnfFormula, B: DecompositionSet, cfg: EstimatorConfig, use_up: bool
    ) -> None:
        self.B = B
        self.measure = cfg.measure
        self.workers = cfg.workers
        self.kernel = partial(evaluate_branch, formula, up_first=use_up)
        self.seen: dict[int, tuple[int | float, bool]] = {}  # index -> (cost, easy)
        self.witness: Assignment | None = None

    def evaluate(self, indices) -> bool:
        """Evaluate the unseen branches among indices, in order of first
        appearance. Stops at a satisfiable branch, keeping its witness, and
        returns False then."""
        todo = [i for i in dict.fromkeys(indices) if i not in self.seen]
        betas = [branch_assignment(self.B, i) for i in todo]
        outcomes = parallel.ordered_map(self.kernel, betas, self.workers)
        for i, beta, out in zip(todo, betas, outcomes):
            if out.verdict == SAT:
                self.witness = dict(out.model)
                self.witness.update(beta)
                return False
            self.seen[i] = (workload(out, self.measure), out.tier == UP_DECIDED)
        return True

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


def _validate_b(formula: CnfFormula, B: DecompositionSet) -> None:
    if B.num_vars != formula.num_vars:
        raise ValueError("decomposition set and formula disagree on num_vars")
    if len(B) == 0:
        raise ValueError("decomposition set is empty")


def _estimate(
    formula: CnfFormula, B: DecompositionSet, cfg: EstimatorConfig, use_up: bool
) -> DHardnessEstimate:
    _validate_b(formula, B)
    b = len(B)
    full = (1 << b) if b <= 60 else None
    branches = _Branches(formula, B, cfg, use_up)

    def finish(stats, easy, converged, exhaustive):
        value, log2_value = _estimate_fields(stats, b)
        return DHardnessEstimate(
            stats=stats,
            b_size=b,
            value=value,
            log2_value=log2_value,
            converged=converged,
            exhaustive=exhaustive,
            sat_found=False,
            easy_count=easy if use_up else None,
        )

    def sat_estimate(indices):
        observations, easy = branches.observed(indices)
        stats = (
            compute_stats(observations) if observations else SampleStats(0, 0.0, 0.0)
        )
        value, log2_value = _estimate_fields(stats, b) if stats.n else (0.0, -math.inf)
        return DHardnessEstimate(
            stats=stats,
            b_size=b,
            value=value,
            log2_value=log2_value,
            converged=False,
            exhaustive=False,
            sat_found=True,
            witness=branches.witness,
            easy_count=easy if use_up else None,
        )

    def run_exhaustive():
        if full > cfg.enumeration_cap:
            raise ValueError("2^|B| exceeds the enumeration cap")
        every = range(full)
        if not branches.evaluate(every):
            return sat_estimate(every)
        observations, easy = branches.observed(every)
        return finish(compute_stats(observations), easy, True, True)

    if full is not None and full <= cfg.initial_n:
        return run_exhaustive()

    stream = _BetaStream(B, cfg.seed)
    target = cfg.initial_n
    while True:
        drawn = stream.prefix(target)
        if not branches.evaluate(drawn):
            return sat_estimate(drawn)
        observations, easy = branches.observed(drawn)
        stats = compute_stats(observations)
        # a zero mean needs a sample of 1, so it counts as converged
        if stats.n >= required_sample_size(stats, cfg.epsilon, cfg.delta):
            return finish(stats, easy, True, False)
        if stats.n >= cfg.max_n:
            return finish(stats, easy, False, False)
        target = min(2 * stats.n, cfg.max_n)
        if full is not None and full <= target:
            return run_exhaustive()


def estimate_d_hardness(
    formula: CnfFormula, B: DecompositionSet, cfg: EstimatorConfig | None = None
) -> DHardnessEstimate:
    """Adaptive Monte Carlo estimate of 2^|B| times the mean branch workload.

    The sample starts at cfg.initial_n observations and doubles (pooling
    all observations) until the required-sample-size condition holds or
    cfg.max_n is reached; exhaustive enumeration replaces sampling as soon
    as 2^|B| fits the current sample size, giving the exact value. Each
    distinct branch is solved once: repeated draws and the enumeration
    reuse earlier observations. Any SAT branch aborts estimation with
    sat_found set and a witness.
    """
    return _estimate(formula, B, cfg or EstimatorConfig(), use_up=False)


def estimate_d_hardness_with_up_preprocessing(
    formula: CnfFormula, B: DecompositionSet, cfg: EstimatorConfig | None = None
) -> DHardnessEstimate:
    """Like estimate_d_hardness, but probes each branch with unit
    propagation first and only launches the full solver on undecided
    branches. Decided branches contribute the probe workload, which matches
    the full solver's count on those branches, so exhaustive runs agree
    exactly with the plain estimator under integer measures.
    """
    return _estimate(formula, B, cfg or EstimatorConfig(), use_up=True)


def estimate_rho(
    formula: CnfFormula,
    B: DecompositionSet,
    n: int = 10_000,
    seed: int = 0,
    workers: int = 1,
) -> RhoEstimate:
    """Fraction of branch formulas decided by unit propagation alone."""
    _validate_b(formula, B)
    draw = sample_assignments(B, n, seed)
    probe = partial(evaluate_branch, formula, search=False)
    decided = sum(
        1
        for out in parallel.ordered_map(probe, draw.assignments, workers)
        if out.tier != UNDECIDED
    )
    total = len(draw.assignments)
    return RhoEstimate(decided / total, total, decided, draw.exhaustive)


def exact_d_hardness(
    formula: CnfFormula,
    B: DecompositionSet,
    measure: str = PROPAGATIONS,
    cap: int = 1 << 20,
    workers: int = 1,
) -> int | float:
    """Brute-force d-hardness: total workload over all 2^|B| branches.

    Accepts the empty set (the sum is then the single workload of the
    formula itself). Integer measures return an exact arbitrary-precision
    integer.
    """
    if B.num_vars != formula.num_vars:
        raise ValueError("decomposition set and formula disagree on num_vars")
    b = len(B)
    if b > 60 or (1 << b) > cap:
        raise ValueError("2^|B| exceeds the enumeration cap")
    if b == 0:
        return workload(solve(formula), measure)
    betas = [branch_assignment(B, i) for i in range(1 << b)]
    solve_branch = partial(evaluate_branch, formula, up_first=False)
    return sum(
        workload(out, measure)
        for out in parallel.ordered_map(solve_branch, betas, workers)
    )
