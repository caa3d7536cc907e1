"""The four benchmark workloads: inputs, the timed task, and output checks.

Each workload is built by its constructor (the set-up: input generation,
writing the inputs as DIMACS and parsing them back), runs its user-facing
task through satdecomp's public API in `task()`, and checks a result in
`check()` against computations made apart from the program or against
properties the method must have. Every task is deterministic for a given
seed, so later repetitions of a run are checked by equality with the first.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import os
import shutil
import sys
from fractions import Fraction

from miter import AND, check_miter, lec_miter

# ga_sgen: the pipeline on one fixed member of the program's sgen family.
# Family members differ in hardness by more than 5x (IQR/median of the
# direct-solve propagations is 0.5-0.8 over generator seeds), so the
# instance is fixed and the run seed drives the estimator's master seed.
SGEN_K, SGEN_SEED = 20, 14          # 80 variables, 141 clauses
GA_M = 12
GA_CFG = dict(population=8, elites=2, crossover=3, mutation=3,
              init_size=3, generations=2, seed=0)

# wide_mc / wide_mc_w2: one fixed set on the multiplier miter. The set is
# every input bit but a0 and b0, plus the two partial products a0*b0 (one
# per circuit): a quarter of the branches leave a0, b0 open for a short
# CDCL search, the rest are refuted by unit propagation alone.
MITER_WIDTH = 12
MC_EPSILON, MC_DELTA = "0.18", "0.1"
MC_INITIAL_N, MC_MAX_N = 32, 256
MITER_TRIALS = 64

# prove_check: the sgen instance above split on its first two at-most-one
# groups (variables 1..8): 25 branches need CDCL and get DRAT proofs, 231
# are refuted by unit propagation and go into cube groups.
PROVE_VARS = tuple(range(1, 9))
PROVE_GROUPS = 20


class Program:
    """The satdecomp modules, imported afresh from the checkout."""

    MODULES = ("formula", "solver", "estimator", "search", "decompose",
               "proofs", "parallel", "cli", "instances")

    def __init__(self, src_dir: str) -> None:
        for name in [n for n in sys.modules if n == "satdecomp" or n.startswith("satdecomp.")]:
            del sys.modules[name]
        self.package = importlib.import_module("satdecomp")
        origin = os.path.realpath(self.package.__file__)
        if not origin.startswith(os.path.realpath(src_dir) + os.sep):
            raise RuntimeError(f"satdecomp imported from {origin}, not from {src_dir}")
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"satdecomp.{name}"))


def _up_refutes(clauses, assignment: dict[int, bool]) -> bool:
    """Naive unit propagation to a fixpoint; True if a clause is falsified."""
    val = dict(assignment)
    changed = True
    while changed:
        changed = False
        for cl in clauses:
            free = None
            n_free = 0
            for lit in cl:
                v = val.get(abs(lit))
                if v is None:
                    free, n_free = lit, n_free + 1
                elif v == (lit > 0):
                    break
            else:
                if n_free == 0:
                    return True
                if n_free == 1:
                    val[abs(free)] = free > 0
                    changed = True
    return False


def _counting_faults(num_vars: int, clauses) -> list[str]:
    """Prove UNSAT by counting: disjoint at-least-one clauses outnumber the
    cliques of at-most-one pairs that partition the variables."""
    pos = [cl for cl in clauses if all(lit > 0 for lit in cl)]
    neg = [cl for cl in clauses if len(cl) == 2 and all(lit < 0 for lit in cl)]
    if len(pos) + len(neg) != len(clauses):
        return ["clauses other than at-least-one and at-most-one pairs"]
    covered: set[int] = set()
    for cl in pos:
        if covered & set(cl):
            return ["at-least-one clauses overlap"]
        covered |= set(cl)
    adj: dict[int, set[int]] = {v: set() for v in range(1, num_vars + 1)}
    for x, y in neg:
        adj[-x].add(-y)
        adj[-y].add(-x)
    groups, seen = 0, set()
    for v in adj:
        if v in seen:
            continue
        comp, todo = {v}, [v]
        while todo:
            for u in adj[todo.pop()] - comp:
                comp.add(u)
                todo.append(u)
        if any(adj[u] != comp - {u} for u in comp):
            return ["at-most-one pairs do not form cliques"]
        seen |= comp
        groups += 1
    if len(pos) <= groups:
        return [f"{len(pos)} at-least-one groups do not exceed {groups} at-most-one groups"]
    return []


class Workload:
    def __init__(self, sd: Program, seed: int, workdir: str) -> None:
        self.sd = sd
        self.seed = seed
        self.workdir = workdir
        self.cnf_path = os.path.join(workdir, "input.cnf")
        self.generated = self.generate()
        self.load()

    def generate(self):
        raise NotImplementedError

    def load(self) -> None:
        """Write the input as DIMACS, read it back and parse it."""
        with open(self.cnf_path, "w") as fh:
            fh.write(self.sd.formula.write_dimacs(self.generated))
        with open(self.cnf_path) as fh:
            self.formula = self.sd.formula.parse_dimacs(fh.read())

    def round_trip_faults(self) -> list[str]:
        if self.formula != self.generated:
            return ["DIMACS round trip changed the formula"]
        return []

    def reset(self) -> None:
        """Untimed housekeeping before each task."""

    def task(self):
        raise NotImplementedError

    def branches(self, result) -> int:
        raise NotImplementedError

    def fingerprint(self, result):
        return result

    def check(self, result) -> list[str]:
        raise NotImplementedError


class GaSgen(Workload):
    """reduce_search_space, ga_minimize with UP-first fitness, replay."""

    def __init__(self, sd, seed, workdir):
        super().__init__(sd, seed, workdir)
        self.est_cfg = sd.estimator.EstimatorConfig(seed=seed)
        self.ga_cfg = sd.search.GaConfig(**GA_CFG)
        self.fresh_n: list[int] = []
        base = sd.search.FitnessEvaluator
        sink = self.fresh_n

        class Evaluator(base):
            # records the final n of each fresh fitness estimate
            def evaluate(self, B):
                est, fresh = super().evaluate(B)
                if fresh:
                    sink.append(est.stats.n)
                return est, fresh

        sd.search.FitnessEvaluator = Evaluator

    def generate(self):
        return self.sd.instances.sgen_style(SGEN_K, seed=SGEN_SEED)

    def task(self):
        sd = self.sd
        self.fresh_n.clear()
        space = sd.search.reduce_search_space(self.formula, m=GA_M)
        ga = sd.search.ga_minimize(self.formula, space, self.ga_cfg, est_cfg=self.est_cfg)
        replay = sd.decompose.solve_with_backdoor(self.formula, ga.best.mask)
        return ga, replay, tuple(self.fresh_n)

    def branches(self, result) -> int:
        _, replay, fresh_n = result
        return sum(fresh_n) + len(replay.branches)

    def fingerprint(self, result):
        ga, replay, fresh_n = result
        return (ga.best.mask.mask, ga.best.fitness,
                tuple((h.card_b, h.log2_fitness) for h in ga.history),
                replay.verdict, replay.propagations, replay.conflicts, fresh_n)

    def check(self, result) -> list[str]:
        sd = self.sd
        ga, replay, _ = result
        f = self.formula
        faults = self.round_trip_faults()
        faults += _counting_faults(f.num_vars, f.clauses)
        if sd.solver.solve(f).verdict != sd.solver.UNSAT:
            faults.append("direct solve is not UNSAT")
        if replay.verdict != sd.solver.UNSAT:
            faults.append("replay is not UNSAT")
        best = ga.best.fitness
        members = ga.best.mask.members
        if not best.exhaustive:
            faults.append("champion fitness is not exhaustive")
        total = 0
        for index in range(1 << len(members)):
            beta = {v: (index >> i) & 1 for i, v in enumerate(members)}
            residual = sd.formula.substitute(f, beta)
            probe = sd.solver.propagate_only(residual)
            if probe.status == sd.solver.DECIDED_UNSAT:
                total += probe.propagations
            else:
                out = sd.solver.solve(residual)
                if out.verdict != sd.solver.UNSAT:
                    faults.append(f"champion branch {beta} is not UNSAT")
                total += out.propagations
        if best.value != total:
            faults.append(f"champion value {best.value} != own branch sum {total}")
        if replay.propagations != total:
            faults.append(f"replay propagations {replay.propagations} != own branch sum {total}")
        bests = [h.best_log2_fitness for h in ga.history]
        if any(b > a for a, b in zip(bests, bests[1:])):
            faults.append("best-ever fitness rose in the history")
        return faults


class WideMc(Workload):
    """One UP-first Monte Carlo estimate of a fixed set on the miter."""

    workers = 1

    def __init__(self, sd, seed, workdir):
        super().__init__(sd, seed, workdir)
        m = self.miter
        a0, b0 = m.a_vars[0], m.b_vars[0]
        members = [v for v in m.a_vars + m.b_vars if v not in (a0, b0)]
        members += [z for kind, z, ins in m.gates if kind == AND and set(ins) == {a0, b0}]
        self.B = sd.estimator.DecompositionSet.from_vars(members, m.num_vars)
        self.cfg = sd.estimator.EstimatorConfig(
            epsilon=float(MC_EPSILON), delta=float(MC_DELTA),
            initial_n=MC_INITIAL_N, max_n=MC_MAX_N, seed=seed, workers=self.workers,
        )

    def generate(self):
        self.miter = m = lec_miter(MITER_WIDTH)
        return self.sd.formula.CnfFormula(m.num_vars, tuple(m.clauses))

    def task(self):
        return self.sd.estimator.estimate_d_hardness_with_up_preprocessing(
            self.formula, self.B, self.cfg)

    def branches(self, result) -> int:
        return result.stats.n

    def check(self, est) -> list[str]:
        faults = self.round_trip_faults()
        faults += check_miter(self.miter, MITER_TRIALS, self.seed)
        return faults + self.check_estimate(est)

    def check_estimate(self, est) -> list[str]:
        sd = self.sd
        faults = []
        n = est.stats.n
        if est.sat_found or est.exhaustive or len(self.B) != 2 * MITER_WIDTH or (1 << len(self.B)) <= MC_MAX_N:
            faults.append(f"estimate is not a sampled estimate of a {2 * MITER_WIDTH}-variable set")
        draw = sd.estimator.sample_assignments(self.B, n, self.cfg.seed)
        costs, easy = [], 0
        for beta in draw.assignments:
            residual = sd.formula.substitute(self.formula, beta)
            probe = sd.solver.propagate_only(residual)
            if probe.status == sd.solver.DECIDED_UNSAT:
                costs.append(probe.propagations)
                easy += 1
                continue
            out = sd.solver.solve(residual)
            if out.verdict != sd.solver.UNSAT:
                faults.append(f"branch {beta} is not UNSAT")
            costs.append(out.propagations)
        mean = Fraction(sum(costs), n)
        var = (sum(Fraction(c) ** 2 for c in costs) - n * mean ** 2) / (n - 1)
        if (float(mean), float(var)) != (est.stats.mean, est.stats.variance):
            faults.append(f"estimate mean/variance {est.stats.mean}/{est.stats.variance} "
                          f"!= recomputed {float(mean)}/{float(var)}")
        if est.easy_count != easy:
            faults.append(f"easy count {est.easy_count} != recomputed {easy}")
        eps, delta = Fraction(MC_EPSILON), Fraction(MC_DELTA)
        needed = -(-var // (eps ** 2 * delta * mean ** 2))
        if est.converged and n < needed:
            faults.append(f"converged at n={n} below the required {needed}")
        if not est.converged and (n != MC_MAX_N or n >= needed):
            faults.append(f"not converged at n={n} (required {needed}, max_n {MC_MAX_N})")
        return faults


class WideMcW2(WideMc):
    """The same estimate with a two-worker pool."""

    workers = 2

    def check(self, est) -> list[str]:
        faults = self.round_trip_faults()
        faults += check_miter(self.miter, MITER_TRIALS, self.seed)
        serial = self.sd.estimator.estimate_d_hardness_with_up_preprocessing(
            self.formula, self.B, dataclasses.replace(self.cfg, workers=1))
        if serial != est:
            faults.append(f"two-worker estimate {est} != one-worker estimate {serial}")
        return faults


def _strip_elapsed(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not l.startswith("elapsed_s="))


def _report(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


class ProveCheck(Workload):
    """`satdecomp prove` then `satdecomp check`, in process."""

    def __init__(self, sd, seed, workdir):
        super().__init__(sd, seed, workdir)
        self.bundle = os.path.join(workdir, "bundle")

    def generate(self):
        return self.sd.instances.sgen_style(SGEN_K, seed=SGEN_SEED)

    def _cli(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.sd.cli.main(argv)
        return rc, out.getvalue()

    def reset(self) -> None:
        shutil.rmtree(self.bundle, ignore_errors=True)

    def task(self):
        backdoor = [str(v) for v in PROVE_VARS]
        prove = self._cli(["prove", self.cnf_path, "--backdoor", *backdoor,
                           "--k-groups", str(PROVE_GROUPS), "--out", self.bundle])
        check = self._cli(["check", self.bundle, "--cnf", self.cnf_path])
        return prove, check

    def branches(self, result) -> int:
        return 1 << len(PROVE_VARS)

    def fingerprint(self, result):
        (rc1, out1), (rc2, out2) = result
        digest = hashlib.sha256()
        for name in sorted(os.listdir(self.bundle)):
            with open(os.path.join(self.bundle, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
        return rc1, _strip_elapsed(out1), rc2, _strip_elapsed(out2), digest.hexdigest()

    def check(self, result) -> list[str]:
        (rc1, out1), (rc2, out2) = result
        faults = self.round_trip_faults()
        prove, check = _report(out1), _report(out2)
        if rc1 != 20:
            faults.append(f"prove exited {rc1}, not 20")
        if rc2 != 0 or check.get("ok") != "true":
            faults.append(f"check exited {rc2} with ok={check.get('ok')}")
        easy, hard = int(prove.get("easy_count", -1)), int(prove.get("hard_count", -1))
        if easy + hard != 1 << len(PROVE_VARS):
            faults.append(f"easy {easy} + hard {hard} != 2^{len(PROVE_VARS)}")
        own_hard = 0
        for index in range(1 << len(PROVE_VARS)):
            beta = {v: bool((index >> i) & 1) for i, v in enumerate(PROVE_VARS)}
            own_hard += not _up_refutes(self.formula.clauses, beta)
        if hard != own_hard:
            faults.append(f"hard count {hard} != {own_hard} UP-undecided branches")
        faults += self._corrupted_copy_rejected()
        return faults

    def _corrupted_copy_rejected(self) -> list[str]:
        copy = os.path.join(self.workdir, "corrupt")
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.bundle, copy)
        # the empty clause as the first step of a hard branch's proof: not
        # RUP, since unit propagation leaves hard branches undecided
        proof = sorted(n for n in os.listdir(copy) if n.startswith("branch_") and n.endswith(".drat"))
        if not proof:
            return ["bundle has no hard-branch proof to corrupt"]
        path = os.path.join(copy, proof[0])
        with open(path) as fh:
            lines = fh.read().splitlines()
        lines[0] = "0"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        rc, out = self._cli(["check", copy, "--cnf", self.cnf_path])
        shutil.rmtree(copy)
        if rc == 0 or _report(out).get("ok") != "false":
            return [f"corrupted bundle accepted (exit {rc})"]
        return []


WORKLOADS = {
    "ga_sgen": GaSgen,
    "wide_mc": WideMc,
    "wide_mc_w2": WideMcW2,
    "prove_check": ProveCheck,
}
