"""Command-line front end.

Subcommands cover the full pipeline: estimate the hardness of a given
decomposition set, search for a good one, solve by decomposition, emit a
decomposed proof bundle, and check one. Reports go to standard output as
stable key=value lines; tables go to --out as CSV. Exit codes: 0 plain
success, 10 satisfiable, 20 unsatisfiable, 1 any error.
"""

from __future__ import annotations

import argparse
import sys
import time

from .decompose import solve_with_backdoor, solve_with_backdoors, write_branch_ledger
from .estimator import DecompositionSet, EstimatorConfig, estimate_d_hardness
from .formula import CnfError, CnfFormula, parse_dimacs
from .proofs import check_proof_bundle, generate_proof_bundle
from .search import (
    GaConfig,
    SatDiscovered,
    ga_minimize,
    reduce_search_space,
    write_history_csv,
)
from .solver import CONFLICTS, PROPAGATIONS, SAT, TIME

__all__ = ["main"]

EXIT_OK = 0
EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ERROR = 1

_MEASURES = {"props": PROPAGATIONS, "conflicts": CONFLICTS, "time": TIME}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the documented error contract is exit code 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(pairs) -> None:
    for key, value in pairs:
        print(f"{key}={_fmt(value)}")


def _read_formula(path: str) -> CnfFormula:
    try:
        with open(path) as fh:
            return parse_dimacs(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}")
    except CnfError as exc:
        raise CliError(f"{path}: {exc}")


def _vars_text(B: DecompositionSet) -> str:
    return " ".join(str(v) for v in B.members)


def _witness_text(witness) -> str:
    return " ".join(
        str(v) if witness[v] else str(-v) for v in sorted(witness)
    )


def _sat_report(command: str, args, witness) -> int:
    _emit(
        [
            ("command", command),
            ("formula", args.cnf),
            ("sat", True),
            ("witness", _witness_text(witness)),
        ]
    )
    return EXIT_SAT


def _est_config(args) -> EstimatorConfig:
    return EstimatorConfig(
        epsilon=args.epsilon,
        delta=args.delta,
        initial_n=args.sample_size,
        max_n=args.max_sample_size,
        seed=args.seed,
        measure=_MEASURES[args.measure],
        workers=args.workers,
    )


def cmd_estimate(args) -> int:
    formula = _read_formula(args.cnf)
    B = DecompositionSet.from_vars(args.backdoor, formula.num_vars)
    if args.exhaustive:  # a first round that covers every branch
        args.sample_size = max(2, 1 << len(B))
        args.max_sample_size = max(args.max_sample_size, args.sample_size)
    cfg = _est_config(args)
    t0 = time.perf_counter()
    est = estimate_d_hardness(formula, B, cfg)
    if est.sat_found:
        return _sat_report("estimate", args, est.witness)
    _emit(
        [
            ("command", "estimate"),
            ("formula", args.cnf),
            ("num_vars", formula.num_vars),
            ("num_clauses", formula.num_clauses),
            ("backdoor", _vars_text(B)),
            ("b_size", len(B)),
            ("measure", cfg.measure),
            ("up_preprocessing", True),
            ("exhaustive", est.exhaustive),
            ("converged", est.converged),
            ("n", est.stats.n),
            ("mean", float(est.stats.mean)),
            ("variance", float(est.stats.variance)),
            ("value", float(est.value)),
            ("log2_value", float(est.log2_value)),
            ("easy_count", est.easy_count),
            ("rho", float(est.rho.rho)),
            ("rho_n", est.rho.n),
            ("rho_easy", est.rho.easy_count),
            ("rho_exhaustive", est.rho.exhaustive),
            ("elapsed_s", time.perf_counter() - t0),
        ]
    )
    return EXIT_OK


def cmd_find_backdoor(args) -> int:
    formula = _read_formula(args.cnf)
    if args.time_limit_s is None and args.generations is None:
        raise CliError("set --time-limit-s or --generations")
    est_cfg = _est_config(args)
    ga_cfg = GaConfig(
        population=args.elite + args.crossover + args.mutation,
        elites=args.elite,
        crossover=args.crossover,
        mutation=args.mutation,
        init_size=args.init_size,
        time_limit_s=args.time_limit_s,
        generations=args.generations,
        seed=args.seed,
    )
    t0 = time.perf_counter()
    space = reduce_search_space(formula, m=args.b0_size)
    try:
        result = ga_minimize(formula, space, ga_cfg, est_cfg)
    except SatDiscovered as exc:
        return _sat_report("find_backdoor", args, exc.witness)
    if args.out:
        write_history_csv(result.history, args.out)
    best = result.best
    _emit(
        [
            ("command", "find_backdoor"),
            ("formula", args.cnf),
            ("num_vars", formula.num_vars),
            ("num_clauses", formula.num_clauses),
            ("b0_size", len(space.b0)),
            ("measure", est_cfg.measure),
            ("seed", args.seed),
            ("population", ga_cfg.population),
            ("elites", ga_cfg.elites),
            ("crossover", ga_cfg.crossover),
            ("mutation", ga_cfg.mutation),
            ("init_size", ga_cfg.init_size),
            ("generations_run", result.generations),
            ("evaluations", result.evaluations),
            ("best_backdoor", _vars_text(best.mask)),
            ("best_size", len(best.mask)),
            ("best_value", float(best.fitness.value)),
            ("best_log2", float(best.fitness.log2_value)),
            ("best_converged", best.fitness.converged),
            ("best_exhaustive", best.fitness.exhaustive),
            ("history", args.out if args.out else "-"),
            ("elapsed_s", time.perf_counter() - t0),
        ]
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    formula = _read_formula(args.cnf)
    if not args.backdoor:
        raise CliError("at least one --backdoor is required")
    backdoors = [
        DecompositionSet.from_vars(vs, formula.num_vars) for vs in args.backdoor
    ]
    t0 = time.perf_counter()
    if len(backdoors) == 1:
        result = solve_with_backdoor(formula, backdoors[0], workers=args.workers)
    else:
        result = solve_with_backdoors(formula, backdoors, workers=args.workers)
    if args.out:
        write_branch_ledger(result, args.out)
    pairs = [
        ("command", "solve"),
        ("formula", args.cnf),
        ("num_vars", formula.num_vars),
        ("num_clauses", formula.num_clauses),
    ]
    for i, B in enumerate(backdoors):
        pairs.append((f"backdoor_{i}", _vars_text(B)))
    pairs.append(("verdict", result.verdict))
    if result.witness is not None:
        pairs.append(("witness", _witness_text(result.witness)))
    pairs.extend(
        [
            ("branches", len(result.branches)),
            ("easy_count", result.easy_count),
            ("hard_count", result.hard_count),
            ("vacuous_count", result.vacuous_count),
            ("total_propagations", result.propagations),
            ("total_conflicts", result.conflicts),
            ("ledger", args.out if args.out else "-"),
            ("elapsed_s", time.perf_counter() - t0),
        ]
    )
    _emit(pairs)
    return EXIT_SAT if result.verdict == SAT else EXIT_UNSAT


def cmd_prove(args) -> int:
    formula = _read_formula(args.cnf)
    B = DecompositionSet.from_vars(args.backdoor, formula.num_vars)
    t0 = time.perf_counter()
    try:
        bundle = generate_proof_bundle(
            formula,
            B,
            k_groups=args.k_groups,
            out_dir=args.out,
            workers=args.workers,
        )
    except SatDiscovered as exc:
        return _sat_report("prove", args, exc.witness)
    _emit(
        [
            ("command", "prove"),
            ("formula", args.cnf),
            ("backdoor", _vars_text(B)),
            ("k_groups", bundle.k_groups),
            ("out_dir", bundle.directory),
            ("manifest", bundle.manifest_path),
            ("easy_count", bundle.easy_count),
            ("hard_count", bundle.hard_count),
            ("units", len(bundle.units)),
            ("elapsed_s", time.perf_counter() - t0),
        ]
    )
    return EXIT_UNSAT


def cmd_check(args) -> int:
    t0 = time.perf_counter()
    formula = _read_formula(args.cnf) if args.cnf else None
    result = check_proof_bundle(args.manifest, formula=formula)
    pairs = [
        ("command", "check"),
        ("manifest", args.manifest),
        ("units", len(result.units)),
    ]
    for i, unit in enumerate(result.units):
        verdict = "ok" if unit.ok else f"FAIL {unit.reason}"
        pairs.append((f"unit_{i}", f"{unit.kind} {unit.ref} {verdict}"))
    pairs.append(("ok", result.ok))
    if result.reason:
        pairs.append(("reason", result.reason))
    pairs.append(("elapsed_s", time.perf_counter() - t0))
    _emit(pairs)
    return EXIT_OK if result.ok else EXIT_ERROR


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for branch-parallel stages")


def _add_estimation(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="relative accuracy target")
    p.add_argument("--delta", type=float, default=0.1,
                   help="failure probability bound")
    p.add_argument("--sample-size", type=int, default=1000,
                   help="initial Monte Carlo batch size")
    p.add_argument("--max-sample-size", type=int, default=100_000,
                   help="sampling budget before giving up on convergence")
    p.add_argument("--measure", choices=sorted(_MEASURES), default="props",
                   help="branch workload measure")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="satdecomp",
        description="Decomposition hardness estimation, backdoor search, "
        "decomposed solving, and decomposed proofs for CNF formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate hardness of a given set")
    p.add_argument("cnf", help="DIMACS CNF file")
    p.add_argument("--backdoor", type=int, nargs="+", required=True,
                   metavar="VAR", help="variables of the decomposition set")
    p.add_argument("--exhaustive", action="store_true",
                   help="enumerate every branch instead of sampling")
    _add_estimation(p)
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("find-backdoor", help="search for a low-hardness set")
    p.add_argument("cnf", help="DIMACS CNF file")
    p.add_argument("--b0-size", type=int, default=200,
                   help="universe size kept by the weight heuristic")
    p.add_argument("--init-size", type=int, default=30,
                   help="cardinality of initial population masks")
    p.add_argument("--elite", type=int, default=2,
                   help="elites carried over each generation")
    p.add_argument("--crossover", type=int, default=8,
                   help="crossover offspring per generation")
    p.add_argument("--mutation", type=int, default=6,
                   help="mutation offspring per generation")
    p.add_argument("--time-limit-s", type=float, default=None,
                   help="wall-clock search budget in seconds")
    p.add_argument("--generations", type=int, default=None,
                   help="generation budget (deterministic alternative)")
    p.add_argument("--out", default=None,
                   help="write the per-evaluation history CSV here")
    _add_estimation(p)
    _add_common(p)
    p.set_defaults(func=cmd_find_backdoor)

    p = sub.add_parser("solve", help="solve through decomposition sets")
    p.add_argument("cnf", help="DIMACS CNF file")
    p.add_argument("--backdoor", type=int, nargs="+", action="append",
                   metavar="VAR", help="decomposition set; repeat for several")
    p.add_argument("--out", default=None, help="write the branch ledger CSV here")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("prove", help="write a decomposed proof bundle")
    p.add_argument("cnf", help="DIMACS CNF file")
    p.add_argument("--backdoor", type=int, nargs="+", required=True,
                   metavar="VAR", help="variables of the decomposition set")
    p.add_argument("--k-groups", type=int, default=20,
                   help="number of cube groups for the refuted branches")
    p.add_argument("--out", required=True, help="bundle output directory")
    _add_common(p)
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("check", help="verify a decomposed proof bundle")
    p.add_argument("manifest", help="bundle manifest file or directory")
    p.add_argument("--cnf", default=None,
                   help="cross-check the bundle against this DIMACS file")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:  # raised without a message
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
