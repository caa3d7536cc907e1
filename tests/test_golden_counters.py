"""Golden workload counters: the hardness semantics every speedup must keep.

The solver's propagation and conflict counts define d-hardness, so any
change to how branches are built, probed or searched must leave them
bit-identical. `golden_counters.json` records them for the shared fixtures
and a few fixed decompositions; this test recomputes and compares exactly.

If counters change on purpose (a change of hardness definition), regenerate
the file and say so in the change log:

    PYTHONPATH=src python tests/test_golden_counters.py
"""
import hashlib
import json
import os
import tempfile

import pytest

from satdecomp.decompose import solve_with_backdoor, solve_with_backdoors
from satdecomp.estimator import (
    EstimatorConfig,
    estimate_d_hardness,
    exact_d_hardness,
)
from satdecomp.instances import pigeonhole, sgen_style, xor_ring
from satdecomp.proofs import generate_proof_bundle
from satdecomp.solver import (
    CONFLICTS,
    PROPAGATIONS,
    SolverConfig,
    propagate_only,
    solve,
)

from conftest import dset, sat_corpus, unsat_corpus

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_counters.json")

# (name, formula, decomposition variables)
EXACT_SETS = (
    ("php43_123", pigeonhole(4, 3), (1, 2, 3)),
    ("xor9_135", xor_ring(9), (1, 3, 5)),
    ("sgen3_s0_1to6", sgen_style(3, seed=0), (1, 2, 3, 4, 5, 6)),
    ("sgen6_1to8", sgen_style(6), (1, 2, 3, 4, 5, 6, 7, 8)),
)


def _solve_row(out):
    return [out.verdict, out.propagations, out.conflicts]


def _estimate_row(est):
    return {
        "n": est.stats.n,
        "mean": est.stats.mean,
        "variance": est.stats.variance,
        "easy_count": est.easy_count,
        "converged": est.converged,
        "exhaustive": est.exhaustive,
    }


def _ledger(result):
    return {
        "verdict": result.verdict,
        "propagations": result.propagations,
        "conflicts": result.conflicts,
        "easy_count": result.easy_count,
        "hard_count": result.hard_count,
        "vacuous_count": result.vacuous_count,
        "rows": [
            f"{b.backdoor_id} {b.beta_bits} {b.tier} {b.verdict} "
            f"{b.propagations} {b.conflicts}"
            for b in result.branches
        ],
    }


def compute_fixtures():
    rows = {}
    proof_cfg = SolverConfig(proof_logging=True)
    for name, f in unsat_corpus() + sat_corpus():
        probe = propagate_only(f)
        row = {"solve": _solve_row(solve(f)), "probe": [probe.status, probe.propagations]}
        logged = solve(f, cfg=proof_cfg)
        row["proof_steps"] = len(logged.proof.steps) if logged.proof else None
        rows[name] = row
    return rows


def compute_sgen22():
    return _solve_row(solve(sgen_style(22, seed=0)))


def compute_exact():
    rows = {}
    for name, f, variables in EXACT_SETS:
        B = dset(variables, f.num_vars)
        rows[name] = {
            measure: exact_d_hardness(f, B, measure=measure)
            for measure in (PROPAGATIONS, CONFLICTS)
        }
    return rows


def compute_estimates():
    f6, f10 = sgen_style(6), sgen_style(10)
    wide = dset((1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15), f10.num_vars)
    odd = dset(range(1, 17, 2), f10.num_vars)
    sampled = EstimatorConfig(initial_n=64, max_n=512, seed=3)
    switch = EstimatorConfig(initial_n=300, max_n=4096, epsilon=0.02, delta=0.05)
    up = estimate_d_hardness
    return {
        "up_exhaustive_sgen6_1to8": _estimate_row(up(f6, dset(range(1, 9), 24))),
        "up_switch_sgen6_1to10": _estimate_row(up(f6, dset(range(1, 11), 24), switch)),
        "up_sampled_sgen10_wide": _estimate_row(up(f10, wide, sampled)),
        "up_switch_sgen10_odd": _estimate_row(up(f10, odd, sampled)),
    }


def compute_decomposed():
    f = sgen_style(6)
    php = pigeonhole(4, 3)
    return {
        "sgen6_1_5_9_13": _ledger(solve_with_backdoor(f, dset((1, 5, 9, 13), 24))),
        "php43_pair": _ledger(
            solve_with_backdoors(
                php, [dset((1, 2, 3), php.num_vars), dset((4, 5, 6), php.num_vars)]
            )
        ),
    }


def compute_proofs():
    f = sgen_style(6)
    B = dset(range(1, 7), f.num_vars)
    with tempfile.TemporaryDirectory() as tmp:
        bundle = generate_proof_bundle(f, B, k_groups=4, out_dir=tmp)
        steps = {}
        for unit in bundle.units:
            with open(os.path.join(tmp, unit.proof_file), "rb") as fh:
                text = fh.read()
            steps[unit.proof_file] = [
                len(text.splitlines()), hashlib.sha256(text).hexdigest()[:16]
            ]
    return {
        "sgen6_1to6": {
            "easy_count": bundle.easy_count,
            "hard_count": bundle.hard_count,
            "proofs": steps,
        }
    }


SECTIONS = {
    "fixtures": compute_fixtures,
    "sgen22_direct": compute_sgen22,
    "exact_d_hardness": compute_exact,
    "estimates": compute_estimates,
    "decomposed": compute_decomposed,
    "proof_bundle": compute_proofs,
}


def compute_all():
    return {name: fn() for name, fn in SECTIONS.items()}


def _dump(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_counters_match_golden(golden, section):
    # round-trip through JSON so tuples and lists compare alike
    assert json.loads(_dump(SECTIONS[section]())) == golden[section]


def test_golden_file_is_canonical(golden):
    with open(GOLDEN_PATH) as fh:
        assert fh.read() == _dump(golden)


def test_sgen22_direct_solve_pinned(golden):
    assert golden["sgen22_direct"] == ["UNSAT", 149054, 5605]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        fh.write(_dump(compute_all()))
    print(f"wrote {GOLDEN_PATH}")
