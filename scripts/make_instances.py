"""Generate the benchmark fixture formulas as DIMACS files.

Writes pigeonhole, margin-one counting (sgen-style), xor-ring, complete
contradiction, and random fixed-width instances into a directory, one
file per instance, named by family and parameters.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from satdecomp.formula import write_dimacs
from satdecomp.instances import (
    complete_contradiction,
    pigeonhole,
    random_cnf,
    sgen_style,
    xor_ring,
)


def fixture_batch(seed: int = 0) -> dict:
    """The fixture formulas by file name."""
    batch = {}
    for n in range(3, 9):
        batch[f"php_{n}_{n - 1}.cnf"] = pigeonhole(n, n - 1)
    for k in (4, 8, 12, 16, 20, 22):
        batch[f"sgen_{k}_s{seed}.cnf"] = sgen_style(k, seed=seed)
    for n in (3, 5, 7, 9, 11):
        batch[f"xorring_{n}.cnf"] = xor_ring(n)
    for k in (2, 3, 4):
        batch[f"contra_{k}.cnf"] = complete_contradiction(k)
    for i in range(3):
        batch[f"rand3_40_180_s{i}.cnf"] = random_cnf(40, 180, 3, seed=i)
    return batch


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="instances", help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    for name, formula in sorted(fixture_batch(args.seed).items()):
        path = os.path.join(args.out, name)
        with open(path, "w") as fh:
            fh.write(write_dimacs(formula))
        print(f"{path}: {formula.num_vars} vars, {formula.num_clauses} clauses")
    return 0


if __name__ == "__main__":
    sys.exit(main())
