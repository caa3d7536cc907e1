"""Backdoor search: weight-based universe reduction and an elitist GA.

The search space is first narrowed to the variables whose assertion
triggers the most unit propagation, then an elitist genetic algorithm
minimizes estimated decomposition hardness over subsets of that universe.
A brute-force minimum-backdoor oracle is included for small formulas.
"""

from __future__ import annotations

import csv
import itertools
import random
import time
from dataclasses import dataclass, replace

from .estimator import (
    DecompositionSet,
    DHardnessEstimate,
    EstimatorConfig,
    estimate_d_hardness,
    mask_seed,
    sweep_branches,
)
from .formula import CnfFormula
from .solver import UNDECIDED, closure_sizes

__all__ = [
    "SearchSpace",
    "Individual",
    "GaConfig",
    "GaResult",
    "HistoryRecord",
    "SatDiscovered",
    "FitnessEvaluator",
    "variable_weights",
    "reduce_search_space",
    "ga_minimize",
    "write_history_csv",
    "find_minimum_sbs",
]


class SatDiscovered(Exception):
    """A branch probe found a satisfying assignment; the formula is SAT.

    Hardness is only defined for unsatisfiable formulas, so discovery of a
    model aborts whatever search or estimation was in flight.
    """

    def __init__(self, witness, mask: DecompositionSet | None = None):
        super().__init__("satisfying assignment discovered")
        self.witness = dict(witness) if witness else {}
        self.mask = mask


def variable_weights(formula: CnfFormula) -> list[tuple[int, int]]:
    """Score every variable by how much unit propagation it triggers.

    The weight of a variable is the number of variables assigned at the UP
    fixpoint after asserting it true, plus the same for asserting it false.
    An assertion that UP refutes counts as num_vars. All 2*num_vars
    closures are taken on one solver engine (`closure_sizes`). Returns
    (var, weight) pairs sorted by descending weight, ties broken by
    ascending index.
    """
    nv = formula.num_vars
    sizes = closure_sizes(formula, [lit for v in range(1, nv + 1) for lit in (v, -v)])
    # a refuting assertion is maximally informative: it scores the whole formula
    parts = [nv if size is None else size for size in sizes]
    weights = [(v, parts[2 * v - 2] + parts[2 * v - 1]) for v in range(1, nv + 1)]
    weights.sort(key=lambda vw: (-vw[1], vw[0]))
    return weights


@dataclass(frozen=True)
class SearchSpace:
    """Reduced universe for backdoor search: the variables of highest weight."""

    b0: DecompositionSet

    def __len__(self) -> int:
        return len(self.b0)


def reduce_search_space(formula: CnfFormula, m: int = 200) -> SearchSpace:
    """Keep the m variables with the largest unit-propagation weights.

    m is clamped to num_vars so the default is usable on small formulas.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if formula.num_vars == 0:
        raise ValueError("formula has no variables to search over")
    m = min(m, formula.num_vars)
    top = [v for v, _ in variable_weights(formula)[:m]]
    return SearchSpace(DecompositionSet.from_vars(top, formula.num_vars))


class FitnessEvaluator:
    """Caching fitness oracle: estimated d-hardness of the masked subset.

    Each mask gets its own estimation seed derived from the master seed, so
    fitness values do not depend on the order the GA happens to evaluate
    masks in. A mask whose estimation stumbles on a model raises
    SatDiscovered.
    """

    def __init__(self, formula: CnfFormula, cfg: EstimatorConfig | None = None):
        self.formula = formula
        self.cfg = cfg if cfg is not None else EstimatorConfig()
        self.fresh_evaluations = 0
        self._cache: dict[int, DHardnessEstimate] = {}

    def evaluate(self, B: DecompositionSet) -> tuple[DHardnessEstimate, bool]:
        """Return (estimate, freshly_computed); cached masks cost nothing."""
        if B.mask == 0:
            raise ValueError("fitness is undefined for the empty mask")
        hit = self._cache.get(B.mask)
        if hit is not None:
            return hit, False
        cfg = replace(self.cfg, seed=mask_seed(self.cfg.seed, B.mask))
        est = estimate_d_hardness(self.formula, B, cfg)
        if est.sat_found:
            raise SatDiscovered(est.witness, mask=B)
        self._cache[B.mask] = est
        self.fresh_evaluations += 1
        return est, True


@dataclass(frozen=True)
class Individual:
    """A candidate decomposition set with its evaluated fitness."""

    mask: DecompositionSet
    fitness: DHardnessEstimate

    @property
    def log2_fitness(self) -> float:
        return self.fitness.log2_value


@dataclass(frozen=True)
class HistoryRecord:
    elapsed_s: float
    evals: int
    card_b: int
    log2_fitness: float
    best_log2_fitness: float


@dataclass(frozen=True)
class GaResult:
    best: Individual
    history: tuple[HistoryRecord, ...]
    generations: int
    evaluations: int
    elapsed_s: float


@dataclass(frozen=True)
class GaConfig:
    """Elitist GA parameters; population = elites + crossover + mutation."""

    population: int = 16
    elites: int = 2
    crossover: int = 8
    mutation: int = 6
    init_size: int = 30
    time_limit_s: float | None = None
    generations: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ValueError("population must be positive")
        if min(self.elites, self.crossover, self.mutation) < 0:
            raise ValueError("offspring counts must be nonnegative")
        if self.elites + self.crossover + self.mutation != self.population:
            raise ValueError("population must equal elites + crossover + mutation")
        if self.init_size < 1:
            raise ValueError("init_size must be positive")
        if self.time_limit_s is not None and self.time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive")
        if self.generations is not None and self.generations < 0:
            raise ValueError("generations must be nonnegative")


MUTATION_BETA = 3.0  # exponent of the power law that mutation flip counts follow


def _power_law_cdf(beta: float, support: int) -> list[float]:
    weights = [ell ** (-beta) for ell in range(1, support + 1)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    return cdf


def _draw_flip_count(rng: random.Random, cdf: list[float]) -> int:
    u = rng.random()
    for i, c in enumerate(cdf):
        if u <= c:
            return i + 1
    return len(cdf)


def _select_index(rng: random.Random, log2_values: list[float]) -> int:
    """Fitness-proportional pick: probability of i scales with 1/F_i.

    Worked in log space so astronomically large fitness values cannot
    overflow. Zero-fitness individuals absorb the entire distribution.
    """
    lo = min(log2_values)
    if lo == float("-inf"):
        zeros = [i for i, v in enumerate(log2_values) if v == float("-inf")]
        return zeros[rng.randrange(len(zeros))]
    weights = [2.0 ** (lo - v) for v in log2_values]
    total = sum(weights)
    u = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u <= acc:
            return i
    return len(weights) - 1


def ga_minimize(
    formula: CnfFormula,
    space: SearchSpace,
    cfg: GaConfig | None = None,
    est_cfg: EstimatorConfig | None = None,
) -> GaResult:
    """Minimize estimated d-hardness over subsets of the reduced universe.

    Each generation keeps the lowest-fitness elites, then fills the
    population with two-point-crossover children and heavy-tailed bit-flip
    mutants, parents drawn with probability proportional to inverse
    fitness. Runs until the time limit or generation budget is exhausted
    (at least one must be set). Fully deterministic for a fixed seed and
    generation budget.
    """
    cfg = cfg if cfg is not None else GaConfig()
    if cfg.time_limit_s is None and cfg.generations is None:
        raise ValueError("either time_limit_s or generations must be set")
    positions = space.b0.members
    nb = len(positions)
    if nb == 0:
        raise ValueError("search space is empty")

    rng = random.Random(cfg.seed)
    evaluator = FitnessEvaluator(formula, est_cfg)
    flip_cdf = _power_law_cdf(MUTATION_BETA, max(1, nb // 2))
    start = time.perf_counter()
    history: list[HistoryRecord] = []
    best: Individual | None = None
    best_compact = 0

    def to_set(compact: int) -> DecompositionSet:
        full = 0
        for i, v in enumerate(positions):
            if (compact >> i) & 1:
                full |= 1 << (v - 1)
        return DecompositionSet(formula.num_vars, full)

    def evaluate(compact: int) -> Individual:
        nonlocal best, best_compact
        ds = to_set(compact)
        est, fresh = evaluator.evaluate(ds)
        ind = Individual(mask=ds, fitness=est)
        if best is None or (est.log2_value, compact) < (
            best.log2_fitness,
            best_compact,
        ):
            best, best_compact = ind, compact
        if fresh:
            history.append(
                HistoryRecord(
                    elapsed_s=time.perf_counter() - start,
                    evals=evaluator.fresh_evaluations,
                    card_b=len(ds),
                    log2_fitness=est.log2_value,
                    best_log2_fitness=best.log2_fitness,
                )
            )
        return ind

    def repair(compact: int) -> int:
        if compact == 0:
            return 1 << rng.randrange(nb)
        return compact

    def random_mask(card: int) -> int:
        compact = 0
        for i in rng.sample(range(nb), card):
            compact |= 1 << i
        return compact

    card0 = min(cfg.init_size, nb)
    population: list[tuple[int, Individual]] = []
    for _ in range(cfg.population):
        compact = repair(random_mask(card0))
        population.append((compact, evaluate(compact)))

    generation = 0
    while True:
        if cfg.generations is not None and generation >= cfg.generations:
            break
        if (
            cfg.time_limit_s is not None
            and time.perf_counter() - start >= cfg.time_limit_s
        ):
            break
        population.sort(key=lambda ci: (ci[1].log2_fitness, ci[0]))
        log2s = [ind.log2_fitness for _, ind in population]
        nxt = population[: cfg.elites]
        for _ in range(cfg.crossover):
            p1 = population[_select_index(rng, log2s)][0]
            p2 = population[_select_index(rng, log2s)][0]
            c1, c2 = sorted(rng.sample(range(nb + 1), 2))
            mid = ((1 << c2) - 1) ^ ((1 << c1) - 1)
            child = repair((p1 & ~mid) | (p2 & mid))
            nxt.append((child, evaluate(child)))
        for _ in range(cfg.mutation):
            parent = population[_select_index(rng, log2s)][0]
            flips = _draw_flip_count(rng, flip_cdf)
            child = parent
            for i in rng.sample(range(nb), flips):
                child ^= 1 << i
            child = repair(child)
            nxt.append((child, evaluate(child)))
        population = nxt
        generation += 1

    assert best is not None
    return GaResult(
        best=best,
        history=tuple(history),
        generations=generation,
        evaluations=evaluator.fresh_evaluations,
        elapsed_s=time.perf_counter() - start,
    )


def write_history_csv(history, path) -> None:
    """Write GA history rows to the file at `path`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["elapsed_s", "evals", "card_B", "log2_fitness", "best_log2_fitness"]
        )
        for rec in history:
            writer.writerow(
                [
                    f"{rec.elapsed_s:.6f}",
                    rec.evals,
                    rec.card_b,
                    repr(rec.log2_fitness),
                    repr(rec.best_log2_fitness),
                ]
            )


def find_minimum_sbs(formula: CnfFormula) -> DecompositionSet | None:
    """Smallest variable set whose every assignment UP decides the formula.

    Enumerates subsets by increasing cardinality, lexicographically within
    each cardinality, and returns the first set all of whose branches come
    back decided. Exponential; refuses formulas over 20 variables.
    """
    nv = formula.num_vars
    if nv > 20:
        raise ValueError("brute-force search needs num_vars <= 20")
    for k in range(nv + 1):
        for combo in itertools.combinations(range(1, nv + 1), k):
            B = DecompositionSet.from_vars(combo, nv)
            probes = sweep_branches(formula, B, search=False)
            if all(out.tier != UNDECIDED for _, out in probes):
                return B
    return None
