"""Acceptance gate: eleven checks, one printed verdict line each.

Each test prints exactly one `PASS criterion N: ...` line (or fails with the
matching FAIL line). Criterion 9 carries the bulk of the runtime; everything
else is seconds. Representative decomposition sets stand in for "every B"
where full enumeration would blow the stated time budget; the selection is
seeded and fixed.
"""

import itertools
import math
import os
import random
import subprocess
import sys
import time

import pytest

from satdecomp.decompose import (
    simulate_parallel,
    solve_with_backdoor,
    solve_with_backdoors,
)
from satdecomp.estimator import (
    DecompositionSet,
    EstimatorConfig,
    SampleStats,
    branch_assignment,
    estimate_d_hardness,
    estimate_rho,
    required_sample_size,
)
from satdecomp.formula import CnfFormula, substitute, write_dimacs
from satdecomp.instances import complete_contradiction, pigeonhole, sgen_style
from satdecomp.proofs import build_cube_group, check_proof_bundle, generate_proof_bundle
from satdecomp.search import (
    FitnessEvaluator,
    GaConfig,
    ga_minimize,
    reduce_search_space,
)
from satdecomp.solver import SAT, UNSAT, propagate_only, solve

import conftest
from oracles import brute_force_hardness, brute_force_rho, truth_table_verdict
from test_proofs import MUTATIONS

UNSAT_CORPUS = conftest.unsat_corpus()
SAT_CORPUS = conftest.sat_corpus()
ALL_CORPUS = UNSAT_CORPUS + SAT_CORPUS


def report(num: int, ok: bool, desc: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    print(line)
    assert ok, line


def representative_sets(num_vars: int, rng: random.Random, max_card: int = 6):
    """A fixed, seeded selection of decomposition sets per cardinality."""
    for card in range(1, min(max_card, num_vars) + 1):
        if card <= 2:
            yield list(range(1, card + 1))
        else:
            yield sorted(rng.sample(range(1, num_vars + 1), card))


def test_criterion_01_identity_exhaustive_equals_brute_force():
    start = time.perf_counter()
    checked = 0
    for idx, (name, f) in enumerate(UNSAT_CORPUS):
        rng = random.Random(1000 + idx)
        for vars_ in representative_sets(f.num_vars, rng):
            B = DecompositionSet.from_vars(vars_, f.num_vars)
            for measure in ("propagations", "conflicts"):
                est = estimate_d_hardness(
                    f, B, EstimatorConfig(initial_n=1 << len(B), measure=measure)
                )
                oracle = brute_force_hardness(f, vars_, measure)
                assert est.exhaustive, (name, vars_)
                assert est.value == oracle, (name, vars_, measure)
                checked += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        len(UNSAT_CORPUS) >= 20 and checked >= 200 and elapsed < 60,
        f"exhaustive estimate equals brute-force sum on {checked} "
        f"(fixture, B, measure) cases across {len(UNSAT_CORPUS)} fixtures "
        f"in {elapsed:.1f}s",
    )


HAND_TRIPLES = [
    ((4.0, 10.0, 0.1, 0.1), 40),
    ((1.0, 1.0, 0.5, 0.5), 8),
    ((9.0, 3.0, 0.5, 0.2), 20),
    ((2.0, 1.0, 0.5, 0.5), 16),
    ((5.0, 2.0, 0.25, 0.4), 50),
    ((7.0, 1.0, 0.5, 0.7), 40),
    ((1.0, 10.0, 0.1, 0.1), 10),
    ((3.0, 2.0, 0.3, 0.5), 17),
    ((100.0, 5.0, 0.2, 0.1), 1000),
    ((1.0, 4.0, 0.25, 0.25), 4),
]


def test_criterion_02_required_sample_size():
    for (s2, mean, eps, delta), want in HAND_TRIPLES:
        got = required_sample_size(SampleStats(n=10, mean=mean, variance=s2), eps, delta)
        assert got == want, (s2, mean, eps, delta, got, want)
    assert required_sample_size(SampleStats(5, 9.0, 0.0), 0.1, 0.1) == 1
    assert required_sample_size(SampleStats(5, 0.0, 3.0), 0.1, 0.1) == 1

    f = conftest.zero_variance_pad(14)
    B = DecompositionSet.from_vars(range(3, 15), 14)
    est = estimate_d_hardness(f, B, EstimatorConfig(initial_n=1000, max_n=100_000))
    assert est.converged and not est.exhaustive
    assert est.stats.n == 1000
    assert est.stats.variance == 0.0
    report(
        2,
        True,
        f"{len(HAND_TRIPLES)} hand-computed sample sizes exact; "
        "zero-variance sample converged after one batch",
    )


def test_criterion_03_solver_completeness_and_up_conservativity():
    decided_cases = 0
    for idx, (name, f) in enumerate(ALL_CORPUS):
        truth = truth_table_verdict(f)
        assert solve(f).verdict == truth, name
        rng = random.Random(3000 + idx)
        assumption_sets = [{}, {1: False}, {1: True}]
        if f.num_vars >= 2:
            assumption_sets.append({1: False, 2: True})
        for _ in range(2):
            k = min(3, f.num_vars)
            vs = rng.sample(range(1, f.num_vars + 1), k)
            assumption_sets.append({v: rng.random() < 0.5 for v in vs})
        for beta in assumption_sets:
            probe = propagate_only(f, beta)
            if probe.status == "undecided":
                continue
            decided_cases += 1
            out = solve(f, assumptions=beta)
            want = SAT if probe.status == "decided_SAT" else UNSAT
            assert out.verdict == want, (name, beta)
    report(
        3,
        decided_cases >= 30,
        f"verdicts match truth tables on all {len(ALL_CORPUS)} fixtures; "
        f"UP conservativity held on {decided_cases} decided probes",
    )


def test_criterion_04_rho_estimation():
    supbs = [
        (complete_contradiction(2), [1]),
        (complete_contradiction(3), [1, 2]),
        (CnfFormula(2, ((1, 2), (-1, 2), (1, -2), (-1, -2))), [1]),
    ]
    for f, vars_ in supbs:
        r = estimate_rho(f, DecompositionSet.from_vars(vars_, f.num_vars), n=1 << len(vars_))
        assert r.exhaustive and r.rho == 1.0, vars_

    inert = conftest.double_xor()
    for v in (1, 2, 3, 4):
        r = estimate_rho(inert, DecompositionSet.from_vars([v], 4), n=2)
        assert r.exhaustive and r.rho == 0.0, v

    f = conftest.rho_mix()
    B = DecompositionSet.from_vars(range(1, 11), 12)
    exact = estimate_rho(f, B, n=1 << 10)
    assert exact.exhaustive
    assert exact.rho == 0.75 == brute_force_rho(f, range(1, 11))
    ten_k = estimate_rho(f, B, n=10_000, seed=0)
    assert abs(ten_k.rho - exact.rho) <= 0.05
    sampled = estimate_rho(f, B, n=1000, seed=0)
    assert not sampled.exhaustive
    assert abs(sampled.rho - exact.rho) <= 0.05
    report(
        4,
        True,
        "rho exactly 1.0 on 3 SUPBS fixtures, 0.0 on 4 inert sets, "
        f"sampled rho {sampled.rho:.3f} within 0.05 of exact 0.75 on the 2^10 space",
    )


def test_criterion_05_decomposition_verdict_equivalence():
    singles = pairs = 0
    for idx, (name, f) in enumerate(ALL_CORPUS):
        truth = truth_table_verdict(f)
        assert solve(f).verdict == truth, name
        rng = random.Random(5000 + idx)
        nv = f.num_vars

        sets = [[1]]
        if nv >= 2:
            sets.append([1, 2])
        if nv >= 4:
            sets.append(list(range(1, 5)))
            sets.append(sorted(rng.sample(range(1, nv + 1), 4)))
        for vars_ in sets:
            r = solve_with_backdoor(f, DecompositionSet.from_vars(vars_, nv))
            assert r.verdict == truth, (name, vars_)
            singles += 1

        set_pairs = []
        if nv >= 2:
            set_pairs.append(([1], [2]))
        if nv >= 3:
            set_pairs.append(([1, 2], [2, 3]))
        if nv >= 4:
            set_pairs.append(([1, 2], [3, 4]))
            a = sorted(rng.sample(range(1, nv + 1), 2))
            b = sorted(set(a[:1] + rng.sample(range(1, nv + 1), 2)))
            set_pairs.append((a, b))
        for va, vb in set_pairs:
            r = solve_with_backdoors(
                f,
                [
                    DecompositionSet.from_vars(va, nv),
                    DecompositionSet.from_vars(vb, nv),
                ],
            )
            assert r.verdict == truth, (name, va, vb)
            pairs += 1
    report(
        5,
        singles >= 100 and pairs >= 100,
        f"decomposed verdicts equal direct verdicts on {singles} single-set "
        f"and {pairs} pair cases (overlaps included), zero mismatches",
    )


def test_criterion_06_cube_group_equivalence():
    checked_unsat = checked_sat = 0
    for name, f in UNSAT_CORPUS:
        k = min(4, f.num_vars)
        B = DecompositionSet.from_vars(range(1, k + 1), f.num_vars)
        cubes = [branch_assignment(B, i) for i in range(1 << k)]
        g = build_cube_group(f, cubes)
        assert solve(g.encoded).verdict == UNSAT, name
        checked_unsat += 1

    for name, f in SAT_CORPUS:
        if f.num_vars < 2 or not f.clauses:
            continue
        B = DecompositionSet.from_vars([1, 2], f.num_vars)
        cubes = [branch_assignment(B, i) for i in range(4)]
        branch_v = [solve(substitute(f, beta)).verdict for beta in cubes]
        for subset_size in (1, 2, 4):
            for start in range(0, 4, subset_size):
                group = cubes[start : start + subset_size]
                if not group:
                    continue
                want = (
                    SAT
                    if any(v == SAT for v in branch_v[start : start + subset_size])
                    else UNSAT
                )
                got = solve(build_cube_group(f, group).encoded).verdict
                assert got == want, (name, start, subset_size)
                checked_sat += 1
    report(
        6,
        checked_unsat >= 20 and checked_sat >= 20,
        f"selector encoding UNSAT iff all covered branches UNSAT: "
        f"{checked_unsat} all-branch groups, {checked_sat} mixed subgroups, "
        "both directions exercised",
    )


def test_criterion_07_proof_bundles(tmp_path):
    for name, f in UNSAT_CORPUS:
        k = min(2, f.num_vars)
        B = DecompositionSet.from_vars(range(1, k + 1), f.num_vars)
        d = tmp_path / f"rt_{name}"
        generate_proof_bundle(f, B, k_groups=3, out_dir=d)
        chk = check_proof_bundle(d, formula=f)
        assert chk.ok, (name, chk.reason)

    import shutil

    trials = detected = 0
    targets = [(n, f) for n, f in UNSAT_CORPUS if f.num_vars >= 3][:8]
    for name, f in targets:
        B = DecompositionSet.from_vars([1, 2], f.num_vars)
        pristine = tmp_path / f"mut_{name}"
        generate_proof_bundle(f, B, k_groups=2, out_dir=pristine)
        assert check_proof_bundle(pristine).ok, name
        for mut in MUTATIONS:
            work = tmp_path / f"mut_{name}_{mut.__name__}"
            shutil.copytree(pristine, work)
            if not mut(str(work)):
                shutil.rmtree(work)
                continue
            trials += 1
            detected += not check_proof_bundle(work).ok
    report(
        7,
        trials >= 50 and detected == trials,
        f"round-trip verified on all {len(UNSAT_CORPUS)} fixtures; "
        f"{detected}/{trials} corruption mutations detected",
    )


def test_criterion_08_ga_finds_global_minimum_on_tiny_spaces():
    spaces = [
        (pigeonhole(3, 2), 4),
        (complete_contradiction(3), 3),
    ]
    est_cfg = EstimatorConfig(initial_n=16)
    runs = successes = 0
    for f, m in spaces:
        space = reduce_search_space(f, m=m)
        ev = FitnessEvaluator(f, est_cfg)
        values = []
        for mask_bits in range(1, 1 << len(space.b0)):
            full = 0
            for i, v in enumerate(space.b0.members):
                if (mask_bits >> i) & 1:
                    full |= 1 << (v - 1)
            values.append(ev.evaluate(DecompositionSet(f.num_vars, full))[0].value)
        global_min = min(values)
        for seed in range(10):
            cfg = GaConfig(
                population=6,
                elites=2,
                crossover=2,
                mutation=2,
                init_size=2,
                generations=40,
                time_limit_s=10.0,
                seed=seed,
            )
            r = ga_minimize(f, space, cfg, est_cfg=est_cfg)
            runs += 1
            successes += r.best.fitness.value == global_min
            best_seq = [h.best_log2_fitness for h in r.history]
            assert all(b <= a for a, b in zip(best_seq, best_seq[1:]))
    report(
        8,
        runs == 20 and successes >= 19,
        f"GA reached the enumerated global minimum in {successes}/{runs} "
        "seeded runs on |b0|<=4 spaces; best-ever fitness monotone in every run",
    )


@pytest.mark.slow
def test_criterion_09_end_to_end_ratio():
    f = sgen_style(22, seed=0)
    direct = solve(f)
    assert direct.verdict == UNSAT
    assert direct.propagations >= 100_000

    space = reduce_search_space(f, m=12)
    est_cfg = EstimatorConfig(initial_n=4096, max_n=4096)
    ratios = []
    best_runs = []
    for seed in range(10):
        cfg = GaConfig(
            population=8,
            elites=2,
            crossover=3,
            mutation=3,
            init_size=2,
            generations=5,
            seed=seed,
        )
        r = ga_minimize(f, space, cfg, est_cfg=est_cfg)
        assert r.best.fitness.exhaustive
        ratios.append(r.best.fitness.value / direct.propagations)
        best_runs.append(r)

    wins = sum(r <= 1.0 for r in ratios)
    champion = best_runs[ratios.index(min(ratios))]
    replay = solve_with_backdoor(f, champion.best.mask)
    assert replay.verdict == UNSAT
    assert replay.propagations == champion.best.fitness.value

    dist = " ".join(f"{r:.3f}" for r in sorted(ratios))
    report(
        9,
        wins >= 8,
        f"decomposed/direct propagation ratio <= 1.0 in {wins}/10 seeded runs "
        f"(direct={direct.propagations}, ratios: {dist}); champion backdoor "
        f"{champion.best.mask.members} replayed to {replay.propagations} propagations",
    )


def test_criterion_10_parallel_simulation():
    rng = random.Random(0)
    for trial in range(1000):
        n = rng.randrange(0, 41)
        costs = [rng.uniform(0.0, 100.0) for _ in range(n)]
        total = sum(costs)
        assert simulate_parallel(costs, 1) == total
        workers = rng.randrange(2, 17)
        m = simulate_parallel(costs, workers)
        assert total / workers - 1e-9 <= m <= total + 1e-9, (trial, workers)
    report(10, True, "1000 random cost vectors: 1-worker makespan exact, "
                     "w-worker makespan within [sum/w, sum]")


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "satdecomp.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


def _strip_report_timing(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not l.startswith("elapsed_s="))


def _strip_csv_column(text: str, name: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    idx = header.index(name)
    out = []
    for line in lines:
        cells = line.split(",")
        del cells[idx]
        out.append(",".join(cells))
    return "\n".join(out)


def test_criterion_11_deterministic_reports(tmp_path):
    cnf = tmp_path / "php43.cnf"
    cnf.write_text(write_dimacs(pigeonhole(4, 3)))
    checked = 0

    for measure in ("props", "conflicts"):
        args = [
            "estimate", str(cnf), "--backdoor", "1", "2", "3", "4", "5",
            "--sample-size", "16", "--max-sample-size", "16",
            "--measure", measure, "--seed", "7",
        ]
        (rc1, out1), (rc2, out2) = _run_cli(args), _run_cli(args)
        assert rc1 == rc2 == 0
        assert _strip_report_timing(out1) == _strip_report_timing(out2)
        checked += 1

    hist1, hist2 = tmp_path / "h1.csv", tmp_path / "h2.csv"
    base = [
        "find-backdoor", str(cnf), "--b0-size", "4", "--generations", "3",
        "--elite", "1", "--crossover", "2", "--mutation", "1",
        "--init-size", "2", "--sample-size", "16", "--seed", "2",
    ]
    (rc1, out1) = _run_cli(base + ["--out", str(hist1)])
    (rc2, out2) = _run_cli(base + ["--out", str(hist2)])
    assert rc1 == rc2 == 0
    assert _strip_report_timing(out1.replace(str(hist1), "OUT")) == \
        _strip_report_timing(out2.replace(str(hist2), "OUT"))
    assert _strip_csv_column(hist1.read_text(), "elapsed_s") == \
        _strip_csv_column(hist2.read_text(), "elapsed_s")
    checked += 1

    led1, led2 = tmp_path / "l1.csv", tmp_path / "l2.csv"
    base = ["solve", str(cnf), "--backdoor", "1", "2", "--backdoor", "2", "3"]
    (rc1, out1) = _run_cli(base + ["--out", str(led1)])
    (rc2, out2) = _run_cli(base + ["--out", str(led2)])
    assert rc1 == rc2 == 20
    assert _strip_report_timing(out1.replace(str(led1), "OUT")) == \
        _strip_report_timing(out2.replace(str(led2), "OUT"))
    assert _strip_csv_column(led1.read_text(), "elapsed_s") == \
        _strip_csv_column(led2.read_text(), "elapsed_s")
    checked += 1

    b1, b2 = tmp_path / "bundle1", tmp_path / "bundle2"
    for out_dir in (b1, b2):
        rc, _ = _run_cli([
            "prove", str(cnf), "--backdoor", "1", "2", "--k-groups", "2",
            "--out", str(out_dir),
        ])
        assert rc == 20
    names = sorted(os.listdir(b1))
    assert names == sorted(os.listdir(b2))
    for n in names:
        assert (b1 / n).read_bytes() == (b2 / n).read_bytes(), n
    (rc1, out1), (rc2, out2) = (
        _run_cli(["check", str(b1)]),
        _run_cli(["check", str(b2)]),
    )
    assert rc1 == rc2 == 0
    assert _strip_report_timing(out1.replace(str(b1), "DIR")) == \
        _strip_report_timing(out2.replace(str(b2), "DIR"))
    checked += 2

    report(
        11,
        checked == 6,
        "repeated runs byte-identical after removing elapsed_s lines/columns: "
        "estimate (props+conflicts), find-backdoor+history, solve+ledger, "
        "prove bundle files, check",
    )
