"""Compare hardness estimates of one decomposition set across measures.

Estimates the set's hardness under the propagation, conflict, and time
measures and prints one CSV row per measure, with the number of observed
branches that unit propagation decides. Useful for judging how measure
choice reorders candidate sets.
"""

import argparse
import csv
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from satdecomp.estimator import DecompositionSet, EstimatorConfig, estimate_d_hardness
from satdecomp.formula import parse_dimacs
from satdecomp.solver import CONFLICTS, PROPAGATIONS, TIME


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("cnf", help="DIMACS CNF file")
    ap.add_argument("--backdoor", type=int, nargs="+", required=True)
    ap.add_argument("--sample-size", type=int, default=1000)
    ap.add_argument("--max-sample-size", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args()

    with open(args.cnf) as fh:
        formula = parse_dimacs(fh.read())
    B = DecompositionSet.from_vars(args.backdoor, formula.num_vars)

    rows = []
    for measure in (PROPAGATIONS, CONFLICTS, TIME):
        cfg = EstimatorConfig(
            initial_n=args.sample_size,
            max_n=args.max_sample_size,
            seed=args.seed,
            measure=measure,
            workers=args.workers,
        )
        est = estimate_d_hardness(formula, B, cfg)
        rows.append(
            {
                "measure": measure,
                "n": est.stats.n,
                "easy_count": est.easy_count,
                "exhaustive": est.exhaustive,
                "converged": est.converged,
                "value": est.value,
                "log2_value": est.log2_value,
            }
        )

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    if args.out:
        out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
