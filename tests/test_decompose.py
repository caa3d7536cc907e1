import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satdecomp.estimator
from satdecomp.decompose import (
    CDCL,
    LEDGER_HEADER,
    UP_DECIDED,
    simulate_parallel,
    solve_with_backdoor,
    solve_with_backdoors,
    write_branch_ledger,
)
from satdecomp.estimator import DecompositionSet, exact_d_hardness
from satdecomp.formula import CnfFormula, evaluate, substitute
from satdecomp.instances import pigeonhole, random_cnf, sgen_style, xor_ring
from satdecomp.search import reduce_search_space
from satdecomp.solver import (
    LIMIT,
    PROBE_ONLY,
    SAT,
    UNKNOWN,
    UNSAT,
    SolverConfig,
    evaluate_branch,
    propagate_only,
    solve,
)

from oracles import all_branches, truth_table_verdict


def dset(vars_, nv):
    return DecompositionSet.from_vars(vars_, nv)


class TestSingleBackdoor:
    def test_unit_pair_both_branches_up_decided(self):
        f = CnfFormula(1, ((1,), (-1,)))
        r = solve_with_backdoor(f, dset([1], 1))
        assert r.verdict == UNSAT
        assert [b.tier for b in r.branches] == [UP_DECIDED, UP_DECIDED]
        assert r.easy_count == 2 and r.hard_count == 0

    def test_sat_short_circuit_with_witness(self):
        f = CnfFormula(2, ((1, 2),))
        r = solve_with_backdoor(f, dset([1], 2))
        assert r.verdict == SAT
        assert r.witness is not None
        assert evaluate(f, r.witness)

    def test_php43_totals_equal_exact_hardness(self):
        f = pigeonhole(4, 3)
        b0 = reduce_search_space(f, m=4).b0
        r = solve_with_backdoor(f, b0)
        assert r.verdict == UNSAT
        assert r.propagations == exact_d_hardness(f, b0)

    def test_branches_enumerated_lexicographically(self):
        f = pigeonhole(3, 2)
        B = dset([1, 2], 6)
        r = solve_with_backdoor(f, B)
        assert [b.beta_bits for b in r.branches] == ["00", "01", "10", "11"]
        assert len(r.branches) == 4

    def test_counters_sum_over_branches(self):
        f = pigeonhole(4, 3)
        B = dset([1, 2, 3], 12)
        r = solve_with_backdoor(f, B)
        assert r.propagations == sum(b.propagations for b in r.branches)
        assert r.conflicts == sum(b.conflicts for b in r.branches)
        assert r.easy_count + r.hard_count == len(r.branches) == 8

    def test_cap_enforced(self):
        f = pigeonhole(6, 5)
        with pytest.raises(ValueError, match="enumeration cap"):
            solve_with_backdoor(f, dset(range(1, 22), f.num_vars))

    def test_workers_do_not_change_result(self):
        f = pigeonhole(4, 3)
        B = dset([1, 2, 3], 12)
        a = solve_with_backdoor(f, B, workers=1)
        b = solve_with_backdoor(f, B, workers=4)
        assert a.verdict == b.verdict
        assert a.propagations == b.propagations
        assert [x.beta_bits for x in a.branches] == [x.beta_bits for x in b.branches]

    def test_conflict_limit_gives_unknown_not_unsat(self):
        # satisfiable, yet both branches give up after one conflict
        f = random_cnf(40, 165, 3, seed=0)
        assert solve(f).verdict == SAT
        r = solve_with_backdoor(f, dset([1], 40), SolverConfig(conflict_limit=1))
        assert [b.verdict for b in r.branches] == [LIMIT, LIMIT]
        assert r.verdict == UNKNOWN
        assert r.witness is None

    def test_multi_set_conflict_limit_gives_unknown(self):
        f = random_cnf(40, 165, 3, seed=0)
        r = solve_with_backdoors(
            f, [dset([1], 40), dset([2], 40)], SolverConfig(conflict_limit=1)
        )
        assert any(b.verdict == LIMIT for b in r.branches)
        assert r.verdict == UNKNOWN


class TestMultiBackdoor:
    def test_single_set_degenerates_to_plain_decomposition(self):
        f = pigeonhole(4, 3)
        B = dset([1, 2], 12)
        single = solve_with_backdoor(f, B)
        multi = solve_with_backdoors(f, [B])
        assert multi.verdict == single.verdict == UNSAT
        assert multi.easy_count == single.easy_count
        assert multi.hard_count == single.hard_count
        assert multi.vacuous_count == 0

    def test_fully_easy_backdoor_empties_the_product(self):
        f = CnfFormula(1, ((1,), (-1,)))
        r = solve_with_backdoors(f, [dset([1], 1)])
        assert r.verdict == UNSAT
        assert r.hard_count == 0
        assert r.easy_count == 2

    def test_php54_disjoint_pair_matches_brute_force_classification(self):
        f = pigeonhole(5, 4)
        b1, b2 = [1, 2, 3], [5, 6, 7]
        sizes = []
        for vars_ in (b1, b2):
            hard = [
                beta
                for beta in all_branches(vars_)
                if propagate_only(substitute(f, beta)).status == "undecided"
            ]
            sizes.append(len(hard))
        r = solve_with_backdoors(f, [dset(b1, 20), dset(b2, 20)])
        assert r.verdict == UNSAT
        assert [8 - sum(b.backdoor_id == i for b in r.branches) for i in (0, 1)] == sizes
        merged = sum(b.backdoor_id == -1 for b in r.branches)
        assert merged + r.vacuous_count == sizes[0] * sizes[1]

    def test_overlapping_pair_counts_pinned(self):
        f = pigeonhole(4, 3)
        r = solve_with_backdoors(f, [dset([1, 2], 12), dset([2, 3], 12)])
        assert r.verdict == UNSAT
        assert r.easy_count == 4
        assert r.hard_count == 3
        assert r.vacuous_count == 4
        merged = [b for b in r.branches if b.backdoor_id == -1]
        assert [(b.beta_bits, b.tier) for b in merged] == [
            ("000", UP_DECIDED), ("001", CDCL), ("010", CDCL), ("100", CDCL),
            ("101", UP_DECIDED),
        ]

    @pytest.mark.parametrize("f, sets", [
        (pigeonhole(4, 3), [[1, 2], [2, 3]]),
        (pigeonhole(5, 4), [[1, 2, 3], [5, 6, 7]]),
        (pigeonhole(5, 4), [[1, 2, 3], [2, 3, 4]]),
        (sgen_style(4, seed=0), [[1, 2, 3], [3, 4, 5]]),
    ], ids=["php43", "php54_disjoint", "php54_overlap", "sgen4"])
    def test_merged_rows_are_probed_first(self, f, sets):
        # a merged row reports the zero-budget tier of its branch, and the
        # verdict and counters of solving the branch formula outright
        r = solve_with_backdoors(f, [dset(vs, f.num_vars) for vs in sets])
        union = sorted({v for vs in sets for v in vs})
        merged = [b for b in r.branches if b.backdoor_id == -1]
        assert merged
        for b in merged:
            gamma = {v: int(bit) for v, bit in zip(union, b.beta_bits)}
            assert b.tier == evaluate_branch(f, gamma, PROBE_ONLY).tier
            out = solve(substitute(f, gamma))
            assert (b.verdict, b.propagations, b.conflicts) == (
                out.verdict, out.propagations, out.conflicts
            )

    def test_sat_discovery_short_circuits(self):
        f = CnfFormula(2, ((1, 2),))
        r = solve_with_backdoors(f, [dset([1], 2), dset([2], 2)])
        assert r.verdict == SAT
        assert evaluate(f, r.witness)

    def test_product_cap_enforced(self, monkeypatch):
        # each set has 8 branches, 3 of them hard: both sweeps pass the cap
        # and the 9-element product does not
        monkeypatch.setattr(satdecomp.estimator, "ENUMERATION_CAP", 8)
        f = pigeonhole(4, 3)
        sets = [dset([1, 2, 3], 12), dset([4, 5, 6], 12)]
        with pytest.raises(ValueError, match="9 branches"):
            solve_with_backdoors(f, sets)


class TestVerdictEquivalence:
    def test_single_backdoors_on_corpus(self, all_fixtures):
        for name, f in all_fixtures:
            truth = truth_table_verdict(f)
            assert solve(f).verdict == truth, name
            for vars_ in self._candidate_sets(f):
                r = solve_with_backdoor(f, dset(vars_, f.num_vars))
                assert r.verdict == truth, (name, vars_)
                if r.verdict == SAT:
                    assert evaluate(f, r.witness), (name, vars_)

    def test_backdoor_pairs_on_corpus(self, all_fixtures):
        for name, f in all_fixtures[:12]:
            truth = truth_table_verdict(f)
            pairs = self._candidate_pairs(f)
            for v1, v2 in pairs:
                r = solve_with_backdoors(
                    f, [dset(v1, f.num_vars), dset(v2, f.num_vars)]
                )
                assert r.verdict == truth, (name, v1, v2)

    @staticmethod
    def _candidate_sets(f):
        nv = f.num_vars
        yield [1]
        if nv >= 3:
            yield [1, 3]
        if nv >= 6:
            yield [2, 4, 6]
        yield list(range(1, min(nv, 5) + 1))

    @staticmethod
    def _candidate_pairs(f):
        nv = f.num_vars
        if nv >= 2:
            yield [1], [2]
        if nv >= 4:
            yield [1, 2], [3, 4]
        if nv >= 3:
            yield [1, 2], [2, 3]


class TestMakespan:
    def test_single_worker_is_plain_sum(self):
        costs = [5.0, 1.0, 2.5]
        assert simulate_parallel(costs, 1) == sum(costs)

    def test_hand_simulated_two_workers(self):
        assert simulate_parallel([5, 1, 1, 1, 1, 1], 2) == 5

    def test_equal_costs_ceiling_formula(self):
        costs = [2.0] * 7
        assert simulate_parallel(costs, 3) == 2.0 * math.ceil(7 / 3)

    def test_empty_queue(self):
        assert simulate_parallel([], 4) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            simulate_parallel([1.0], 0)
        with pytest.raises(ValueError):
            simulate_parallel([-1.0], 2)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=100), max_size=40),
        st.integers(min_value=1, max_value=16),
    )
    def test_bounds(self, costs, workers):
        m = simulate_parallel(costs, workers)
        total = sum(costs)
        assert total / workers - 1e-9 <= m <= total + 1e-9
        if workers == 1:
            assert m == total


class TestLedger:
    def test_csv_schema(self, tmp_path):
        f = pigeonhole(3, 2)
        r = solve_with_backdoor(f, dset([1, 2], 6))
        out = tmp_path / "ledger.csv"
        write_branch_ledger(r, out)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(LEDGER_HEADER)
        assert lines[0] == "backdoor_id,beta_bits,tier,verdict,propagations,conflicts,elapsed_s"
        assert len(lines) == 1 + len(r.branches)
        row = lines[1].split(",")
        assert row[0] == "0"
        assert row[1] == "00"
        assert row[2] in (UP_DECIDED, CDCL)
        assert row[3] in (SAT, UNSAT)
        int(row[4]), int(row[5]), float(row[6])
