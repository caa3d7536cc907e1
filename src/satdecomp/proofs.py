"""Decomposed unsatisfiability certificates.

A proof bundle splits the refutation of a formula across the branches of a
decomposition set: every branch unit propagation cannot refute gets its own
DRAT proof, and the UP-refuted branches are batched into selector-encoded
cube formulas, a fixed number of groups each proved unsatisfiable once.
Checking re-derives every constituent formula from the base CNF, so a
bundle cannot smuggle in a weaker claim than the one it advertises.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

from .estimator import DecompositionSet, branch_assignment, branch_bits
from .formula import Assignment, CnfFormula, parse_dimacs, substitute, write_dimacs
from .parallel import ordered_map
from .search import SatDiscovered
from .solver import (
    SAT,
    UNDECIDED,
    UNSAT,
    UP_DECIDED,
    BranchOutcome,
    DratProof,
    SolverConfig,
    check_drat,
    evaluate_branch,
    solve,
)

__all__ = [
    "HARD_BRANCH",
    "CUBE_GROUP",
    "CubeGroupFormula",
    "ManifestUnit",
    "ProofBundle",
    "UnitStatus",
    "BundleCheck",
    "build_cube_group",
    "generate_proof_bundle",
    "check_proof_bundle",
    "MANIFEST_NAME",
    "BASE_NAME",
]

HARD_BRANCH = "hard_branch"
CUBE_GROUP = "cube_group"
MANIFEST_NAME = "manifest.tsv"
BASE_NAME = "base.cnf"


@dataclass(frozen=True)
class CubeGroupFormula:
    """One group of cubes over a shared variable set, selector-encoded.

    The encoded formula extends the base with one fresh selector per cube:
    selector j forces cube j's literals, the reverse clause makes the
    selector true exactly on that cube, and a final disjunction demands
    some cube hold. It is unsatisfiable precisely when the base is
    unsatisfiable under every cube in the group.
    """

    base: CnfFormula
    cubes: tuple[Assignment, ...]
    encoded: CnfFormula


def build_cube_group(
    formula: CnfFormula, cubes: list[Assignment] | tuple[Assignment, ...]
) -> CubeGroupFormula:
    if not cubes:
        raise ValueError("cube group must contain at least one cube")
    keys = sorted(cubes[0])
    if not keys:
        raise ValueError("cubes must assign at least one variable")
    for cube in cubes:
        if sorted(cube) != keys:
            raise ValueError("all cubes must assign the same variables")
    for v in keys:
        if not 1 <= v <= formula.num_vars:
            raise ValueError(f"cube variable {v} outside the formula")
    nv = formula.num_vars
    r = len(cubes)
    clauses: list[tuple[int, ...]] = list(formula.clauses)
    for j, cube in enumerate(cubes):
        u = nv + 1 + j
        lits = [v if cube[v] else -v for v in keys]
        for lit in lits:
            clauses.append((-u, lit))
        clauses.append(tuple([u] + [-lit for lit in lits]))
    clauses.append(tuple(nv + 1 + j for j in range(r)))
    encoded = CnfFormula(nv + r, tuple(clauses))
    return CubeGroupFormula(
        base=formula, cubes=tuple(dict(c) for c in cubes), encoded=encoded
    )


@dataclass(frozen=True)
class ManifestUnit:
    kind: str
    formula_file: str
    proof_file: str
    ref: str


@dataclass(frozen=True)
class ProofBundle:
    directory: str
    manifest_path: str
    backdoor: DecompositionSet
    k_groups: int
    units: tuple[ManifestUnit, ...]
    easy_count: int
    hard_count: int


def _branch_formula(
    formula: CnfFormula, B: DecompositionSet, beta: Assignment
) -> CnfFormula:
    """Branch file content: the branch as unit clauses, then the residual."""
    units = [(v,) if beta[v] else (-v,) for v in B.members]
    residual = substitute(formula, beta)
    return CnfFormula(formula.num_vars, tuple(units) + residual.clauses)


def generate_proof_bundle(
    formula: CnfFormula,
    B: DecompositionSet,
    k_groups: int = 20,
    out_dir: str = ".",
    cap: int = 1 << 20,
    workers: int = 1,
) -> ProofBundle:
    """Prove every branch of a decomposition set and write the bundle.

    Hard branches (UP-undecided) are solved one by one with proof logging;
    easy branches are dealt round-robin, in lexicographic order, into
    k_groups cube groups, each proved unsatisfiable as one selector-encoded
    formula. A satisfiable branch aborts the bundle, the first one decided
    by unit propagation taking precedence over those found by search.
    Deterministic file content for a fixed formula and decomposition set.
    """
    if B.num_vars != formula.num_vars:
        raise ValueError("decomposition set and formula disagree on num_vars")
    if k_groups < 1:
        raise ValueError("k_groups must be positive")
    count = 1 << len(B)
    if count > cap:
        raise ValueError(f"2^|B| = {count} exceeds the enumeration cap {cap}")

    proof_cfg = SolverConfig(proof_logging=True)
    kernel = partial(evaluate_branch, formula, cfg=proof_cfg)
    betas = [branch_assignment(B, idx) for idx in range(count)]
    easy: list[Assignment] = []
    hard: list[tuple[Assignment, str]] = []  # branch and its proof text
    solved_sat = None  # first branch that search satisfies
    for beta, out in zip(betas, ordered_map(kernel, betas, workers=workers)):
        if out.tier == UP_DECIDED:
            if out.verdict == SAT:
                raise _sat_discovered(out, beta, B)
            easy.append(beta)
        elif out.verdict == SAT:
            solved_sat = solved_sat or (out, beta)
        else:
            hard.append((beta, out.proof.to_text()))
    if solved_sat is not None:
        raise _sat_discovered(*solved_sat, B)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, BASE_NAME), "w") as fh:
        fh.write(write_dimacs(formula))

    units: list[ManifestUnit] = []
    for beta, proof_text in hard:
        bits = branch_bits(B, beta)
        cnf_name = f"branch_{bits}.cnf"
        drat_name = f"branch_{bits}.drat"
        with open(os.path.join(out_dir, cnf_name), "w") as fh:
            fh.write(write_dimacs(_branch_formula(formula, B, beta)))
        with open(os.path.join(out_dir, drat_name), "w") as fh:
            fh.write(proof_text)
        units.append(ManifestUnit(HARD_BRANCH, cnf_name, drat_name, bits))

    group_jobs = []
    group_ids = []
    for k in range(k_groups):
        cubes = [easy[i] for i in range(k, len(easy), k_groups)]
        if not cubes:
            continue
        group_jobs.append((formula, tuple(cubes), proof_cfg))
        group_ids.append(k)
    for k, (group, out) in zip(
        group_ids, ordered_map(_prove_group, group_jobs, workers=workers)
    ):
        if out.verdict != UNSAT:
            raise RuntimeError("cube group of refuted branches solved SAT")
        cnf_name = f"group_{k}.cnf"
        drat_name = f"group_{k}.drat"
        with open(os.path.join(out_dir, cnf_name), "w") as fh:
            for cube in group.cubes:
                fh.write(f"c cube {branch_bits(B, cube)}\n")
            fh.write(write_dimacs(group.encoded))
        with open(os.path.join(out_dir, drat_name), "w") as fh:
            fh.write(out.proof.to_text())
        units.append(ManifestUnit(CUBE_GROUP, cnf_name, drat_name, str(k)))

    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    with open(manifest_path, "w") as fh:
        fh.write(f"# cnf\t{BASE_NAME}\n")
        fh.write("# backdoor\t" + " ".join(str(v) for v in B.members) + "\n")
        fh.write(f"# groups\t{k_groups}\n")
        for u in units:
            fh.write(f"{u.kind}\t{u.formula_file}\t{u.proof_file}\t{u.ref}\n")

    return ProofBundle(
        directory=out_dir,
        manifest_path=manifest_path,
        backdoor=B,
        k_groups=k_groups,
        units=tuple(units),
        easy_count=len(easy),
        hard_count=len(hard),
    )


def _sat_discovered(
    out: BranchOutcome, beta: Assignment, B: DecompositionSet
) -> SatDiscovered:
    witness = dict(out.model)
    witness.update(beta)
    return SatDiscovered(witness, mask=B)


def _prove_group(args) -> tuple:
    formula, cubes, cfg = args
    group = build_cube_group(formula, list(cubes))
    out = solve(group.encoded, cfg=cfg)
    return (group, out)


@dataclass(frozen=True)
class UnitStatus:
    kind: str
    ref: str
    ok: bool
    reason: str | None = None


@dataclass(frozen=True)
class BundleCheck:
    ok: bool
    units: tuple[UnitStatus, ...]
    reason: str | None = None


def _fail(reason: str, units=()) -> BundleCheck:
    return BundleCheck(ok=False, units=tuple(units), reason=reason)


def check_proof_bundle(path: str, formula: CnfFormula | None = None) -> BundleCheck:
    """Verify a proof bundle from its manifest.

    Re-derives every branch and cube group from the base CNF and the
    recorded decomposition set, demands the stored formula files match the
    derivation byte for byte, runs the reverse-unit-propagation check on
    every proof, and insists the hard branches plus grouped cubes cover
    each branch assignment exactly once. `formula`, when given, must equal
    the bundle's base CNF.
    """
    manifest_path = path
    if os.path.isdir(path):
        manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        return _fail(f"manifest not found: {manifest_path}")
    bundle_dir = os.path.dirname(manifest_path) or "."

    base_name = None
    backdoor_vars: list[int] | None = None
    k_groups: int | None = None
    rows: list[tuple[str, str, str, str]] = []
    with open(manifest_path) as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].strip().split("\t")
                if len(parts) != 2:
                    return _fail(f"malformed manifest header at line {line_no}")
                key, value = parts
                if key == "cnf":
                    base_name = value
                elif key == "backdoor":
                    try:
                        backdoor_vars = [int(t) for t in value.split()]
                    except ValueError:
                        return _fail("malformed backdoor header")
                elif key == "groups":
                    try:
                        k_groups = int(value)
                    except ValueError:
                        return _fail("malformed groups header")
                else:
                    return _fail(f"unknown manifest header key: {key}")
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                return _fail(f"malformed manifest unit at line {line_no}")
            rows.append(tuple(fields))
    if base_name is None or backdoor_vars is None or k_groups is None:
        return _fail("manifest is missing a header line")
    if k_groups < 1:
        return _fail("group count must be positive")

    base_path = os.path.join(bundle_dir, base_name)
    if not os.path.isfile(base_path):
        return _fail(f"base formula not found: {base_name}")
    try:
        with open(base_path) as fh:
            base = parse_dimacs(fh.read())
    except Exception as exc:
        return _fail(f"base formula unreadable: {exc}")
    if formula is not None and (
        formula.num_vars != base.num_vars or formula.clauses != base.clauses
    ):
        return _fail("base formula does not match the formula under check")

    try:
        B = DecompositionSet.from_vars(backdoor_vars, base.num_vars)
    except ValueError as exc:
        return _fail(f"invalid backdoor header: {exc}")
    if len(B) == 0:
        return _fail("backdoor header lists no variables")

    easy: list[Assignment] = []
    expected_hard: dict[str, Assignment] = {}
    for idx in range(1 << len(B)):
        beta = branch_assignment(B, idx)
        probe = evaluate_branch(base, beta, search=False)
        if probe.verdict == SAT:
            return _fail("a branch of the base formula is satisfiable")
        if probe.tier == UNDECIDED:
            expected_hard[branch_bits(B, beta)] = beta
        else:
            easy.append(beta)
    expected_groups: dict[str, list[Assignment]] = {}
    for k in range(k_groups):
        cubes = [easy[i] for i in range(k, len(easy), k_groups)]
        if cubes:
            expected_groups[str(k)] = cubes

    seen_hard: set[str] = set()
    seen_groups: set[str] = set()
    statuses: list[UnitStatus] = []
    all_ok = True
    for kind, cnf_name, drat_name, ref in rows:
        status = _check_unit(
            bundle_dir, base, B, kind, cnf_name, drat_name, ref,
            expected_hard, expected_groups,
        )
        statuses.append(status)
        if not status.ok:
            all_ok = False
            continue
        if kind == HARD_BRANCH:
            if ref in seen_hard:
                return _fail(f"duplicate hard branch {ref}", statuses)
            seen_hard.add(ref)
        else:
            if ref in seen_groups:
                return _fail(f"duplicate cube group {ref}", statuses)
            seen_groups.add(ref)
    if not all_ok:
        return BundleCheck(ok=False, units=tuple(statuses), reason="unit failure")
    if seen_hard != set(expected_hard):
        return _fail("hard branches do not cover the undecided assignments",
                     statuses)
    if seen_groups != set(expected_groups):
        return _fail("cube groups do not cover the refuted assignments",
                     statuses)
    return BundleCheck(ok=True, units=tuple(statuses))


def _check_unit(
    bundle_dir, base, B, kind, cnf_name, drat_name, ref,
    expected_hard, expected_groups,
) -> UnitStatus:
    cnf_path = os.path.join(bundle_dir, cnf_name)
    drat_path = os.path.join(bundle_dir, drat_name)
    if not os.path.isfile(cnf_path):
        return UnitStatus(kind, ref, False, f"missing formula file {cnf_name}")
    if not os.path.isfile(drat_path):
        return UnitStatus(kind, ref, False, f"missing proof file {drat_name}")
    try:
        with open(cnf_path) as fh:
            text = fh.read()
        stored = parse_dimacs(text)
    except Exception as exc:
        return UnitStatus(kind, ref, False, f"unreadable formula: {exc}")

    if kind == HARD_BRANCH:
        beta = expected_hard.get(ref)
        if beta is None:
            return UnitStatus(kind, ref, False,
                              "branch is not an undecided branch of the base")
        expected = _branch_formula(base, B, beta)
    elif kind == CUBE_GROUP:
        cubes = expected_groups.get(ref)
        if cubes is None:
            return UnitStatus(kind, ref, False, "group id out of range or empty")
        expected = build_cube_group(base, cubes).encoded
        comments = [
            line[len("c cube "):].strip()
            for line in text.splitlines()
            if line.startswith("c cube ")
        ]
        if comments != [branch_bits(B, c) for c in cubes]:
            return UnitStatus(kind, ref, False,
                              "cube comments disagree with the derived group")
    else:
        return UnitStatus(kind, ref, False, f"unknown unit kind {kind}")

    if stored.num_vars != expected.num_vars or stored.clauses != expected.clauses:
        return UnitStatus(kind, ref, False,
                          "stored formula differs from the derived one")
    try:
        with open(drat_path) as fh:
            proof = DratProof.from_text(fh.read())
    except Exception as exc:
        return UnitStatus(kind, ref, False, f"unreadable proof: {exc}")
    result = check_drat(expected, proof)
    if not result.ok:
        return UnitStatus(
            kind, ref, False,
            f"proof rejected at step {result.failed_step}: {result.reason}",
        )
    return UnitStatus(kind, ref, True)
