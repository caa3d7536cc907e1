import itertools
import math
import random

import pytest

from satdecomp.estimator import DecompositionSet, EstimatorConfig, exact_d_hardness
from satdecomp.formula import CnfFormula
from satdecomp.instances import complete_contradiction, pigeonhole
from satdecomp.search import (
    FitnessEvaluator,
    GaConfig,
    SatDiscovered,
    _select_index,
    find_minimum_sbs,
    ga_minimize,
    reduce_search_space,
    variable_weights,
    write_history_csv,
)

import conftest
from oracles import minimum_sbs_size


class TestVariableWeights:
    def test_hand_simulated_chain(self):
        f = CnfFormula(3, ((-1, 2), (-1, 3)))
        assert variable_weights(f) == [(1, 4), (2, 3), (3, 3)]

    def test_absent_variable_scores_two(self):
        f = CnfFormula(3, ((1, 2),))
        weights = dict(variable_weights(f))
        assert weights[3] == 2

    def test_refuting_assertion_counts_all_vars(self):
        f = CnfFormula(2, ((1,), (-1,)))
        assert variable_weights(f) == [(1, 4), (2, 4)]

    def test_sorted_descending_with_index_ties(self):
        f = pigeonhole(3, 2)
        weights = variable_weights(f)
        values = [w for _, w in weights]
        assert values == sorted(values, reverse=True)
        for (v1, w1), (v2, w2) in zip(weights, weights[1:]):
            if w1 == w2:
                assert v1 < v2


class TestReduceSearchSpace:
    def test_full_width_keeps_everything(self):
        f = CnfFormula(3, ((-1, 2), (-1, 3)))
        assert reduce_search_space(f, m=3).b0.members == (1, 2, 3)

    def test_single_slot_takes_argmax(self):
        f = CnfFormula(3, ((-1, 2), (-1, 3)))
        assert reduce_search_space(f, m=1).b0.members == (1,)

    def test_php43_top_four_match_exhaustive_weights(self):
        f = pigeonhole(4, 3)
        ranked = variable_weights(f)
        want = tuple(sorted(v for v, _ in ranked[:4]))
        assert reduce_search_space(f, m=4).b0.members == want

    def test_m_clamped_to_num_vars(self):
        f = CnfFormula(2, ((1, 2),))
        assert reduce_search_space(f, m=200).b0.members == (1, 2)

    def test_nonpositive_m_rejected(self):
        with pytest.raises(ValueError):
            reduce_search_space(CnfFormula(1, ((1,),)), m=0)


class TestFitness:
    def test_exhaustive_fitness_equals_exact(self):
        f = pigeonhole(4, 3)
        ev = FitnessEvaluator(f, EstimatorConfig(initial_n=4))
        B = DecompositionSet.from_vars([1, 2], 12)
        est, fresh = ev.evaluate(B)
        assert fresh
        assert est.exhaustive
        assert est.value == exact_d_hardness(f, B)

    def test_cache_returns_same_object_without_work(self):
        f = pigeonhole(4, 3)
        ev = FitnessEvaluator(f, EstimatorConfig(initial_n=4))
        B = DecompositionSet.from_vars([1, 2], 12)
        first, fresh1 = ev.evaluate(B)
        before = ev.fresh_evaluations
        second, fresh2 = ev.evaluate(B)
        assert fresh1 and not fresh2
        assert second is first
        assert ev.fresh_evaluations == before

    def test_all_pairs_reproduce_brute_force_ranking(self):
        f = pigeonhole(4, 3)
        ev = FitnessEvaluator(f, EstimatorConfig(initial_n=4))
        got = {}
        want = {}
        for pair in itertools.combinations(range(1, 13), 2):
            B = DecompositionSet.from_vars(pair, 12)
            got[pair] = ev.evaluate(B)[0].value
            want[pair] = exact_d_hardness(f, B)
        assert got == want
        rank = sorted(got, key=lambda p: (got[p], p))
        oracle_rank = sorted(want, key=lambda p: (want[p], p))
        assert rank == oracle_rank

    def test_sat_mask_raises(self):
        f = CnfFormula(2, ((1, 2),))
        ev = FitnessEvaluator(f, EstimatorConfig(initial_n=2))
        with pytest.raises(SatDiscovered):
            ev.evaluate(DecompositionSet.from_vars([1], 2))

    def test_empty_mask_rejected(self):
        ev = FitnessEvaluator(pigeonhole(3, 2), EstimatorConfig(initial_n=2))
        with pytest.raises(ValueError):
            ev.evaluate(DecompositionSet.from_vars([], 6))


class TestSelection:
    def test_lower_fitness_selected_more_often(self):
        rng = random.Random(0)
        counts = [0, 0]
        for _ in range(10000):
            counts[_select_index(rng, [1.0, 2.0])] += 1
        freq0 = counts[0] / 10000
        assert abs(freq0 - 2 / 3) <= 0.03

    def test_zero_fitness_absorbs_distribution(self):
        rng = random.Random(0)
        for _ in range(100):
            idx = _select_index(rng, [5.0, -math.inf, 8.0])
            assert idx == 1

    def test_uniform_over_ties(self):
        rng = random.Random(1)
        counts = [0, 0]
        for _ in range(10000):
            counts[_select_index(rng, [3.0, 3.0])] += 1
        assert abs(counts[0] / 10000 - 0.5) <= 0.03


def tiny_ga_config(**kw):
    base = dict(
        population=6,
        elites=2,
        crossover=2,
        mutation=2,
        init_size=2,
        generations=12,
        seed=0,
    )
    base.update(kw)
    return GaConfig(**base)


class TestGa:
    def test_finds_global_minimum_on_three_var_space(self):
        f = complete_contradiction(3)
        space = reduce_search_space(f, m=3)
        est_cfg = EstimatorConfig(initial_n=8)
        ev = FitnessEvaluator(f, est_cfg)
        best_value = min(
            ev.evaluate(DecompositionSet(3, mask))[0].value for mask in range(1, 8)
        )
        result = ga_minimize(f, space, tiny_ga_config(), est_cfg=est_cfg)
        assert result.best.fitness.value == best_value

    def test_all_elites_population_is_frozen(self):
        f = pigeonhole(3, 2)
        space = reduce_search_space(f, m=4)
        cfg = GaConfig(
            population=2,
            elites=2,
            crossover=0,
            mutation=0,
            init_size=2,
            generations=5,
            seed=3,
        )
        result = ga_minimize(f, space, cfg, est_cfg=EstimatorConfig(initial_n=16))
        assert result.generations == 5
        assert result.evaluations <= 2
        assert len(result.history) == result.evaluations

    def test_deterministic_for_fixed_seed(self):
        f = pigeonhole(4, 3)
        space = reduce_search_space(f, m=6)
        est_cfg = EstimatorConfig(initial_n=64)
        runs = [
            ga_minimize(f, space, tiny_ga_config(generations=4), est_cfg=est_cfg)
            for _ in range(2)
        ]
        a, b = runs
        assert a.best.mask == b.best.mask
        assert a.best.fitness.value == b.best.fitness.value
        trace = lambda r: [
            (h.evals, h.card_b, h.log2_fitness, h.best_log2_fitness) for h in r.history
        ]
        assert trace(a) == trace(b)

    def test_seed_changes_trajectory(self):
        f = pigeonhole(4, 3)
        space = reduce_search_space(f, m=6)
        est_cfg = EstimatorConfig(initial_n=64)
        a = ga_minimize(f, space, tiny_ga_config(generations=4, seed=0), est_cfg=est_cfg)
        b = ga_minimize(f, space, tiny_ga_config(generations=4, seed=1), est_cfg=est_cfg)
        ta = [(h.card_b, h.log2_fitness) for h in a.history]
        tb = [(h.card_b, h.log2_fitness) for h in b.history]
        assert ta != tb

    def test_best_ever_monotone_nonincreasing(self):
        f = pigeonhole(4, 3)
        space = reduce_search_space(f, m=6)
        result = ga_minimize(
            f, space, tiny_ga_config(generations=6), est_cfg=EstimatorConfig(initial_n=64)
        )
        seq = [h.best_log2_fitness for h in result.history]
        assert all(b <= a for a, b in zip(seq, seq[1:]))

    def test_offspring_stay_inside_reduced_universe(self):
        f = pigeonhole(4, 3)
        space = reduce_search_space(f, m=4)
        b0_mask = space.b0.mask
        for seed in range(3):
            result = ga_minimize(
                f,
                space,
                tiny_ga_config(generations=5, seed=seed),
                est_cfg=EstimatorConfig(initial_n=16),
            )
            assert result.best.mask.mask & ~b0_mask == 0
            assert all(h.card_b <= 4 for h in result.history)

    def test_sat_formula_aborts_search(self):
        f = conftest.double_xor()
        space = reduce_search_space(f, m=2)
        with pytest.raises(SatDiscovered):
            ga_minimize(f, space, tiny_ga_config(), est_cfg=EstimatorConfig(initial_n=4))

    def test_budget_required(self):
        f = pigeonhole(3, 2)
        space = reduce_search_space(f, m=3)
        with pytest.raises(ValueError):
            ga_minimize(
                f,
                space,
                GaConfig(population=6, elites=2, crossover=2, mutation=2),
                est_cfg=EstimatorConfig(initial_n=4),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaConfig(population=5, elites=2, crossover=2, mutation=2)
        with pytest.raises(ValueError):
            GaConfig(init_size=0)
        with pytest.raises(ValueError):
            GaConfig(time_limit_s=0.0)


class TestHistoryCsv:
    def test_schema_and_content(self, tmp_path):
        f = pigeonhole(3, 2)
        space = reduce_search_space(f, m=4)
        result = ga_minimize(
            f, space, tiny_ga_config(generations=3), est_cfg=EstimatorConfig(initial_n=16)
        )
        out = tmp_path / "history.csv"
        write_history_csv(result.history, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "elapsed_s,evals,card_B,log2_fitness,best_log2_fitness"
        assert len(lines) == 1 + len(result.history)
        first = lines[1].split(",")
        assert len(first) == 5
        float(first[0])
        assert int(first[1]) == result.history[0].evals
        assert int(first[2]) == result.history[0].card_b
        assert float(first[3]) == pytest.approx(
            result.history[0].log2_fitness, abs=0.0
        )


class TestFindMinimumSbs:
    def test_up_refutable_formula_needs_nothing(self):
        B = find_minimum_sbs(CnfFormula(1, ((1,), (-1,))))
        assert B is not None and len(B) == 0

    def test_full_square_single_var(self):
        f = CnfFormula(2, ((1, 2), (-1, 2), (1, -2), (-1, -2)))
        B = find_minimum_sbs(f)
        assert B is not None and B.members == (1,)

    def test_parity_pairs_need_two_vars(self):
        B = find_minimum_sbs(conftest.double_xor())
        assert B is not None and B.members == (1, 3)

    def test_cap_exceeded(self):
        f = CnfFormula(25, ((1, 2),))
        with pytest.raises(ValueError):
            find_minimum_sbs(f)

    def test_minimality_on_small_fixtures(self, all_fixtures):
        for name, f in all_fixtures:
            if f.num_vars > 8:
                continue
            B = find_minimum_sbs(f)
            oracle = minimum_sbs_size(f)
            if B is None:
                assert oracle is None, name
            else:
                assert oracle == len(B), name
