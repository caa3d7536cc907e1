"""Decomposed unsatisfiability certificates.

A proof bundle splits the refutation of a formula across the branches of a
decomposition set: every branch unit propagation cannot refute gets its own
DRAT proof, and the UP-refuted branches are batched into selector-encoded
cube formulas, a fixed number of groups each proved unsatisfiable once.
Checking re-derives every constituent formula and the manifest itself from
the base CNF, so a bundle cannot smuggle in a weaker claim than the one it
advertises.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Iterator

from .estimator import DecompositionSet, branch_bits, sweep_branches
from .formula import Assignment, CnfFormula, parse_dimacs, substitute, write_dimacs
from .parallel import ordered_map
from .search import SatDiscovered
from .solver import (
    PROBE_ONLY,
    SAT,
    UNSAT,
    UP_DECIDED,
    DratProof,
    SolverConfig,
    check_drat,
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
    return CubeGroupFormula(CnfFormula(nv + r, tuple(clauses)))


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


def _layout(
    base: CnfFormula, B: DecompositionSet, k_groups: int,
    easy: list[Assignment], hard: list[Assignment],
) -> Iterator[tuple[ManifestUnit, CnfFormula, str]]:
    """The bundle's units in manifest order: row, derived formula, file text.

    The one statement of the layout, for the writer and the checker alike.
    Hard branches come first, each file the branch as unit clauses and then
    its residual. The easy branches are dealt round-robin into k_groups cube
    groups, empty groups skipped, each file listing its cubes as comments
    before the encoded formula. Lazy, so no caller holds every text at once.
    """
    for beta in hard:
        bits = branch_bits(B, beta)
        derived = _branch_formula(base, B, beta)
        name = f"branch_{bits}"
        unit = ManifestUnit(HARD_BRANCH, f"{name}.cnf", f"{name}.drat", bits)
        yield unit, derived, write_dimacs(derived)
    for k in range(min(k_groups, len(easy))):
        cubes = easy[k::k_groups]
        derived = build_cube_group(base, cubes).encoded
        comments = "".join(f"c cube {branch_bits(B, cube)}\n" for cube in cubes)
        unit = ManifestUnit(CUBE_GROUP, f"group_{k}.cnf", f"group_{k}.drat", str(k))
        yield unit, derived, comments + write_dimacs(derived)


def _manifest(B: DecompositionSet, k_groups: int, units) -> str:
    """The manifest text: three headers, then one row per unit in layout order."""
    members = " ".join(str(v) for v in B.members)
    text = f"# cnf\t{BASE_NAME}\n# backdoor\t{members}\n# groups\t{k_groups}\n"
    for u in units:
        text += f"{u.kind}\t{u.formula_file}\t{u.proof_file}\t{u.ref}\n"
    return text


def _write(out_dir: str, name: str, text: str) -> None:
    with open(os.path.join(out_dir, name), "wb") as fh:
        fh.write(text.encode())


def _read(bundle_dir: str, name: str) -> bytes:
    """A bundle file's bytes; symlinks and non-regular files are refused."""
    path = os.path.join(bundle_dir, name)
    if os.path.islink(path) or not os.path.isfile(path):
        raise OSError(f"{name} is not a regular file")
    with open(path, "rb") as fh:
        return fh.read()


def generate_proof_bundle(
    formula: CnfFormula,
    B: DecompositionSet,
    k_groups: int = 20,
    out_dir: str = ".",
    workers: int = 1,
) -> ProofBundle:
    """Prove every branch of a decomposition set and write the bundle.

    Hard branches (UP-undecided) are solved one by one with proof logging;
    easy branches are dealt round-robin, in lexicographic order, into
    k_groups cube groups, each proved unsatisfiable as one selector-encoded
    formula. The first satisfiable branch in lexicographic order aborts the
    bundle, whether unit propagation or search decided it.
    `workers` widens both the branch evaluation and the group proofs.
    Deterministic file content for a fixed formula and decomposition set.
    """
    if k_groups < 1:
        raise ValueError("k_groups must be positive")
    proof_cfg = SolverConfig(proof_logging=True)
    easy: list[Assignment] = []
    hard: list[Assignment] = []
    hard_proofs: list[str] = []
    for beta, out in sweep_branches(formula, B, proof_cfg, workers=workers):
        if out.verdict == SAT:
            raise SatDiscovered(out.model)
        if out.tier == UP_DECIDED:
            easy.append(beta)
        else:
            hard.append(beta)
            hard_proofs.append(out.proof.to_text())

    os.makedirs(out_dir, exist_ok=True)
    _write(out_dir, BASE_NAME, write_dimacs(formula))
    units: list[ManifestUnit] = []
    groups: list[tuple[ManifestUnit, CnfFormula]] = []
    proofs = iter(hard_proofs)
    for unit, derived, text in _layout(formula, B, k_groups, easy, hard):
        units.append(unit)
        _write(out_dir, unit.formula_file, text)
        if unit.kind == HARD_BRANCH:
            _write(out_dir, unit.proof_file, next(proofs))
        else:
            groups.append((unit, derived))
    prove = partial(solve, cfg=proof_cfg)
    encoded = [derived for _, derived in groups]
    for (unit, _), out in zip(groups, ordered_map(prove, encoded, workers=workers)):
        if out.verdict != UNSAT:
            raise RuntimeError("cube group of refuted branches solved SAT")
        _write(out_dir, unit.proof_file, out.proof.to_text())

    _write(out_dir, MANIFEST_NAME, _manifest(B, k_groups, units))
    return ProofBundle(
        directory=out_dir,
        manifest_path=os.path.join(out_dir, MANIFEST_NAME),
        k_groups=k_groups,
        units=tuple(units),
        easy_count=len(easy),
        hard_count=len(hard),
    )


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


def _fail(reason: str) -> BundleCheck:
    return BundleCheck(ok=False, units=(), reason=reason)


def check_proof_bundle(path: str, formula: CnfFormula | None = None) -> BundleCheck:
    """Verify a proof bundle from its manifest.

    The manifest's headers give the decomposition set and the group count;
    from them and the base CNF, which must be `base.cnf`, the checker
    re-derives the bundle layout and holds the bundle to it. Each derived
    unit's stored formula file must equal its derived text byte for byte,
    and its proof is checked by reverse unit propagation against the derived
    formula; only the derived file names are read, so every read stays
    inside the bundle directory. Last, the manifest itself must equal the
    derived manifest byte for byte. `formula`, when given, must equal the
    bundle's base CNF. Running out of memory while deriving or checking
    fails the check with a reason.
    """
    manifest_path = path
    if os.path.isdir(path):
        manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(manifest_path):
        return _fail(f"manifest not found: {manifest_path}")
    bundle_dir = os.path.dirname(manifest_path) or "."

    try:
        with open(manifest_path, "rb") as fh:
            manifest = fh.read()
    except OSError as exc:
        return _fail(f"manifest unreadable: {exc}")
    try:
        headers = dict(line.split("\t") for line in manifest.decode().split("\n")[:3])
        backdoor_vars = [int(t) for t in headers["# backdoor"].split()]
        k_groups = int(headers["# groups"])
    except (ValueError, KeyError):
        return _fail("malformed manifest header")
    if k_groups < 1:
        return _fail("group count must be positive")

    try:
        base = parse_dimacs(_read(bundle_dir, BASE_NAME).decode())
    except Exception as exc:
        return _fail(f"base formula unreadable: {exc}")
    if formula is not None and (
        formula.num_vars != base.num_vars or formula.clauses != base.clauses
    ):
        return _fail("base formula does not match the formula under check")

    try:
        B = DecompositionSet.from_vars(backdoor_vars, base.num_vars)
        sweep = sweep_branches(base, B, PROBE_ONLY)
    except ValueError as exc:
        return _fail(f"invalid backdoor header: {exc}")
    if len(B) == 0:
        return _fail("backdoor header lists no variables")

    easy: list[Assignment] = []
    hard: list[Assignment] = []
    units: list[ManifestUnit] = []
    statuses: list[UnitStatus] = []
    try:
        for beta, probe in sweep:
            if probe.verdict == SAT:
                return _fail("a branch of the base formula is satisfiable")
            (easy if probe.tier == UP_DECIDED else hard).append(beta)
        for unit, derived, text in _layout(base, B, k_groups, easy, hard):
            units.append(unit)
            statuses.append(_check_unit(bundle_dir, unit, derived, text))
    except MemoryError:
        return _fail("out of memory deriving or checking the bundle")
    reason = None
    if manifest != _manifest(B, k_groups, units).encode():
        reason = "manifest differs from the derived one"
    elif not all(s.ok for s in statuses):
        reason = "unit failure"
    return BundleCheck(ok=reason is None, units=tuple(statuses), reason=reason)


def _check_unit(
    bundle_dir: str, unit: ManifestUnit, derived: CnfFormula, text: str
) -> UnitStatus:
    def failed(reason: str) -> UnitStatus:
        return UnitStatus(unit.kind, unit.ref, False, reason)

    try:
        stored = _read(bundle_dir, unit.formula_file)
    except OSError as exc:
        return failed(f"unreadable formula: {exc}")
    if stored != text.encode():
        return failed("stored formula differs from the derived one")
    try:
        proof = DratProof.from_text(_read(bundle_dir, unit.proof_file).decode())
    except (OSError, ValueError) as exc:
        return failed(f"unreadable proof: {exc}")
    result = check_drat(derived, proof)
    if not result.ok:
        return failed(f"proof rejected at step {result.failed_step}: {result.reason}")
    return UnitStatus(unit.kind, unit.ref, True)
