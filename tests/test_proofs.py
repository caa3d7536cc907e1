import itertools
import os
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satdecomp
from satdecomp.estimator import DecompositionSet, branch_assignment
from satdecomp.formula import CnfFormula, evaluate, substitute, write_dimacs
from satdecomp.instances import complete_contradiction, pigeonhole
from satdecomp.proofs import (
    BASE_NAME,
    CUBE_GROUP,
    HARD_BRANCH,
    MANIFEST_NAME,
    build_cube_group,
    check_proof_bundle,
    generate_proof_bundle,
)
from satdecomp.search import SatDiscovered
from satdecomp.solver import SAT, UNSAT, solve

from oracles import all_branches

import conftest


def dset(vars_, nv):
    return DecompositionSet.from_vars(vars_, nv)


class TestBuildCubeGroup:
    def test_forced_contradiction_is_unsat(self):
        f = CnfFormula(1, ((-1,),))
        g = build_cube_group(f, [{1: 1}])
        assert solve(g.encoded).verdict == UNSAT

    def test_compatible_cube_is_sat(self):
        f = CnfFormula(1, ((1,),))
        g = build_cube_group(f, [{1: 1}])
        assert solve(g.encoded).verdict == SAT

    def test_php43_full_group_unsat(self):
        f = pigeonhole(4, 3)
        B = dset([1, 2, 3, 4], 12)
        cubes = [branch_assignment(B, i) for i in range(16)]
        g = build_cube_group(f, cubes)
        assert solve(g.encoded).verdict == UNSAT

    def test_selector_variables_are_fresh(self):
        f = pigeonhole(3, 2)
        B = dset([1, 2], 6)
        cubes = [branch_assignment(B, i) for i in range(4)]
        g = build_cube_group(f, cubes)
        assert g.encoded.num_vars == f.num_vars + 4
        assert g.encoded.clauses[: len(f.clauses)] == f.clauses
        selectors = set(range(7, 11))
        for c in f.clauses:
            assert not ({abs(l) for l in c} & selectors)

    def test_structure_per_cube(self):
        f = CnfFormula(2, ((1, 2),))
        g = build_cube_group(f, [{1: 0, 2: 1}])
        u = 3
        assert (-u, -1) in {tuple(c) for c in g.encoded.clauses}
        assert (-u, 2) in {tuple(c) for c in g.encoded.clauses}
        assert (u, 1, -2) in {tuple(c) for c in g.encoded.clauses}
        assert g.encoded.clauses[-1] == (u,)

    def test_empty_inputs_rejected(self):
        f = CnfFormula(1, ((1,),))
        with pytest.raises(ValueError):
            build_cube_group(f, [])
        with pytest.raises(ValueError):
            build_cube_group(f, [{}])

    def test_mismatched_cube_domains_rejected(self):
        f = CnfFormula(2, ((1, 2),))
        with pytest.raises(ValueError):
            build_cube_group(f, [{1: 0}, {2: 0}])


class TestCubeEquivalence:
    """Encoded group is UNSAT exactly when every covered branch is UNSAT."""

    def test_unsat_direction_on_corpus(self, unsat_fixtures):
        for name, f in unsat_fixtures[:10]:
            k = min(3, f.num_vars)
            B = dset(list(range(1, k + 1)), f.num_vars)
            cubes = [branch_assignment(B, i) for i in range(1 << k)]
            g = build_cube_group(f, cubes)
            assert solve(g.encoded).verdict == UNSAT, name

    def test_sat_direction(self, sat_fixtures):
        hit = 0
        for name, f in sat_fixtures:
            if f.num_vars < 2 or not f.clauses:
                continue
            B = dset([1, 2], f.num_vars)
            cubes = [branch_assignment(B, i) for i in range(4)]
            branch_verdicts = [
                solve(substitute(f, beta)).verdict for beta in cubes
            ]
            g = build_cube_group(f, cubes)
            want = SAT if SAT in branch_verdicts else UNSAT
            assert solve(g.encoded).verdict == want, name
            hit += want == SAT
        assert hit >= 2

    def test_mixed_subsets_both_directions(self):
        f = CnfFormula(2, ((1, 2),))
        B = dset([1, 2], 2)
        unsat_cube = {1: 0, 2: 0}
        sat_cube = {1: 1, 2: 0}
        assert solve(build_cube_group(f, [unsat_cube]).encoded).verdict == UNSAT
        assert solve(build_cube_group(f, [sat_cube]).encoded).verdict == SAT
        assert (
            solve(build_cube_group(f, [unsat_cube, sat_cube]).encoded).verdict == SAT
        )


class TestGenerateBundle:
    def test_all_hard_backdoor(self, tmp_path):
        f = pigeonhole(4, 3)
        bundle = generate_proof_bundle(f, dset([1], 12), k_groups=4, out_dir=tmp_path)
        kinds = [u.kind for u in bundle.units]
        assert kinds == [HARD_BRANCH, HARD_BRANCH]
        assert bundle.easy_count == 0 and bundle.hard_count == 2
        assert check_proof_bundle(tmp_path).ok

    def test_all_easy_single_group(self, tmp_path):
        f = complete_contradiction(2)
        bundle = generate_proof_bundle(f, dset([1, 2], 2), k_groups=1, out_dir=tmp_path)
        assert [u.kind for u in bundle.units] == [CUBE_GROUP]
        assert bundle.easy_count == 4
        text = (tmp_path / "group_0.cnf").read_text()
        assert text.count("c cube ") == 4
        assert check_proof_bundle(tmp_path).ok

    def test_php43_k2_unit_count(self, tmp_path):
        f = pigeonhole(4, 3)
        bundle = generate_proof_bundle(
            f, dset([1, 2, 3, 4], 12), k_groups=2, out_dir=tmp_path
        )
        hard = [u for u in bundle.units if u.kind == HARD_BRANCH]
        groups = [u for u in bundle.units if u.kind == CUBE_GROUP]
        assert len(hard) == bundle.hard_count == 1
        assert len(groups) == 2
        assert bundle.easy_count == 15
        assert check_proof_bundle(tmp_path).ok

    def test_sat_formula_aborts(self, tmp_path):
        f = CnfFormula(2, ((1, 2),))
        with pytest.raises(SatDiscovered):
            generate_proof_bundle(f, dset([1], 2), k_groups=2, out_dir=tmp_path)

    def test_first_satisfiable_branch_in_order_aborts(self, tmp_path):
        """Branch x1 = 0 is satisfiable by search, x1 = 1 by unit propagation;
        the first in lexicographic order wins, whatever decided it."""
        f = CnfFormula(3, ((1, 2, 3), (1, -2, 3)))
        with pytest.raises(SatDiscovered) as exc:
            generate_proof_bundle(f, dset([1], 3), out_dir=tmp_path)
        assert exc.value.witness[1] == 0
        assert evaluate(f, exc.value.witness)

    def test_branch_files_stand_alone(self, tmp_path):
        f = pigeonhole(4, 3)
        B = dset([1, 2, 3, 4], 12)
        generate_proof_bundle(f, B, k_groups=2, out_dir=tmp_path)
        text = (tmp_path / "branch_1000.cnf").read_text()
        first_clauses = text.splitlines()[1:5]
        assert first_clauses == ["1 0", "-2 0", "-3 0", "-4 0"]

    def test_regeneration_is_byte_identical(self, tmp_path):
        f = pigeonhole(4, 3)
        B = dset([1, 2, 3], 12)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        generate_proof_bundle(f, B, k_groups=3, out_dir=d1)
        generate_proof_bundle(f, B, k_groups=3, out_dir=d2)
        names = sorted(os.listdir(d1))
        assert names == sorted(os.listdir(d2))
        for n in names:
            assert (d1 / n).read_bytes() == (d2 / n).read_bytes(), n

    def test_workers_do_not_change_the_bundle(self, tmp_path):
        f = pigeonhole(4, 3)
        B = dset([1, 2, 3], 12)
        d1, d2 = tmp_path / "w1", tmp_path / "w2"
        generate_proof_bundle(f, B, k_groups=3, out_dir=d1)
        generate_proof_bundle(f, B, k_groups=3, out_dir=d2, workers=2)
        names = sorted(os.listdir(d1))
        assert names == sorted(os.listdir(d2))
        assert any(n.startswith("group_") for n in names)
        for n in names:
            assert (d1 / n).read_bytes() == (d2 / n).read_bytes(), n
        assert check_proof_bundle(d2).ok

    def test_round_trip_on_corpus(self, tmp_path, unsat_fixtures):
        for name, f in unsat_fixtures[:8]:
            k = min(2, f.num_vars)
            B = dset(list(range(1, k + 1)), f.num_vars)
            d = tmp_path / name
            generate_proof_bundle(f, B, k_groups=3, out_dir=d)
            chk = check_proof_bundle(d, formula=f)
            assert chk.ok, (name, chk.reason)


def _mutate_truncate_proof(d: str) -> bool:
    for n in sorted(os.listdir(d)):
        if n.endswith(".drat"):
            path = os.path.join(d, n)
            lines = [l for l in open(path).read().splitlines() if l.strip()]
            with open(path, "w") as fh:
                fh.write("\n".join(lines[:-1]) + ("\n" if lines[:-1] else ""))
            return True
    return False


def _mutate_corrupt_byte(d: str) -> bool:
    for n in sorted(os.listdir(d)):
        if n.endswith(".drat"):
            path = os.path.join(d, n)
            body = open(path).read()
            if "0" not in body:
                continue
            with open(path, "w") as fh:
                fh.write(body.replace("0", "x", 1))
            return True
    return False


def _mutate_drop_unit(d: str) -> bool:
    path = os.path.join(d, MANIFEST_NAME)
    lines = open(path).read().splitlines()
    units = [l for l in lines if l.startswith((HARD_BRANCH, CUBE_GROUP))]
    if not units:
        return False
    victim = units[0]
    lines.remove(victim)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return True


def _mutate_flip_ref(d: str) -> bool:
    path = os.path.join(d, MANIFEST_NAME)
    lines = open(path).read().splitlines()
    for i, line in enumerate(lines):
        if line.startswith(HARD_BRANCH):
            fields = line.split("\t")
            bits = fields[3]
            flipped = ("1" if bits[0] == "0" else "0") + bits[1:]
            fields[3] = flipped
            lines[i] = "\t".join(fields)
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            return True
    return False


def _mutate_drop_cube_comment(d: str) -> bool:
    for n in sorted(os.listdir(d)):
        if n.startswith("group_") and n.endswith(".cnf"):
            path = os.path.join(d, n)
            lines = open(path).read().splitlines()
            for i, line in enumerate(lines):
                if line.startswith("c cube "):
                    del lines[i]
                    with open(path, "w") as fh:
                        fh.write("\n".join(lines) + "\n")
                    return True
    return False


def _mutate_edit_clause(d: str) -> bool:
    for n in sorted(os.listdir(d)):
        if n.startswith("branch_") and n.endswith(".cnf"):
            path = os.path.join(d, n)
            lines = open(path).read().splitlines()
            nv = int(lines[0].split()[2])
            for i, line in enumerate(lines[1:], start=1):
                toks = line.split()
                if toks and toks[-1] == "0" and len(toks) >= 2:
                    lit = int(toks[0])
                    new = -lit if abs(lit) < nv else (1 if lit != 1 else 2)
                    if new == lit:
                        continue
                    toks[0] = str(new)
                    lines[i] = " ".join(toks)
                    with open(path, "w") as fh:
                        fh.write("\n".join(lines) + "\n")
                    return True
    return False


def _mutate_duplicate_unit(d: str) -> bool:
    path = os.path.join(d, MANIFEST_NAME)
    lines = open(path).read().splitlines()
    units = [l for l in lines if l.startswith((HARD_BRANCH, CUBE_GROUP))]
    if not units:
        return False
    with open(path, "w") as fh:
        fh.write("\n".join(lines + [units[-1]]) + "\n")
    return True


def _mutate_base_formula(d: str) -> bool:
    path = os.path.join(d, BASE_NAME)
    text = open(path).read()
    lines = text.splitlines()
    header = lines[0].split()
    n_clauses = int(header[3])
    if n_clauses < 2:
        return False
    header[3] = str(n_clauses - 1)
    body = [" ".join(header)] + lines[1:-1]
    with open(path, "w") as fh:
        fh.write("\n".join(body) + "\n")
    return True


MUTATIONS = [
    _mutate_truncate_proof,
    _mutate_corrupt_byte,
    _mutate_drop_unit,
    _mutate_flip_ref,
    _mutate_drop_cube_comment,
    _mutate_edit_clause,
    _mutate_duplicate_unit,
    _mutate_base_formula,
]


class TestMutationDetection:
    def test_every_applicable_mutation_detected(self, tmp_path, unsat_fixtures):
        targets = []
        for name, f in unsat_fixtures:
            if f.num_vars < 3:
                continue
            targets.append((name, f, [1, 2]))
            if len(targets) == 8:
                break
        trials = 0
        for name, f, vars_ in targets:
            B = dset(vars_, f.num_vars)
            pristine = tmp_path / f"{name}_pristine"
            generate_proof_bundle(f, B, k_groups=2, out_dir=pristine)
            assert check_proof_bundle(pristine).ok, name
            for mut in MUTATIONS:
                work = tmp_path / f"{name}_{mut.__name__}"
                shutil.copytree(pristine, work)
                if not mut(str(work)):
                    shutil.rmtree(work)
                    continue
                chk = check_proof_bundle(work)
                assert not chk.ok, (name, mut.__name__)
                trials += 1
        assert trials >= 50

    def test_permuted_manifest_is_rejected(self, tmp_path):
        """The unit rows have one order, the layout's; every other is refused."""
        f = pigeonhole(4, 3)
        B = dset([1, 2, 3, 4], 12)
        generate_proof_bundle(f, B, k_groups=2, out_dir=tmp_path)
        path = tmp_path / MANIFEST_NAME
        lines = path.read_text().splitlines()
        headers, units = lines[:3], lines[3:]
        assert len(units) == 3
        for order in itertools.permutations(units):
            if list(order) == units:
                continue
            path.write_text("\n".join(headers + list(order)) + "\n")
            chk = check_proof_bundle(tmp_path)
            assert not chk.ok
            assert chk.reason == "manifest differs from the derived one"
            assert len(chk.units) == 3 and all(u.ok for u in chk.units)

    def test_checker_requires_manifest(self, tmp_path):
        chk = check_proof_bundle(tmp_path)
        assert not chk.ok


class TestHostileBundles:
    """The checker reads only the derived files inside the bundle directory."""

    @pytest.fixture()
    def real(self, tmp_path):
        d = tmp_path / "real"
        generate_proof_bundle(pigeonhole(4, 3), dset([1, 2, 3, 4], 12), k_groups=2, out_dir=d)
        return d

    def test_names_escaping_the_bundle_are_rejected(self, tmp_path, real):
        evil = tmp_path / "evil"
        evil.mkdir()
        rows = []
        for line in (real / MANIFEST_NAME).read_text().splitlines():
            fields = line.split("\t")
            if fields[0] == "# cnf":
                fields[1] = str(real / BASE_NAME)
            elif not line.startswith("#"):
                fields[1] = str(real / fields[1])
                fields[2] = os.path.join("..", "real", fields[2])
            rows.append("\t".join(fields))
        (evil / MANIFEST_NAME).write_text("\n".join(rows) + "\n")
        assert os.listdir(evil) == [MANIFEST_NAME]
        assert not check_proof_bundle(evil).ok
        assert not check_proof_bundle(evil, formula=pigeonhole(4, 3)).ok

        # with the base in place, the unit names alone must still be refused
        shutil.copy(real / BASE_NAME, evil / BASE_NAME)
        rows[0] = f"# cnf\t{BASE_NAME}"
        (evil / MANIFEST_NAME).write_text("\n".join(rows) + "\n")
        chk = check_proof_bundle(evil)
        assert not chk.ok
        assert len(chk.units) == 3 and not any(u.ok for u in chk.units)

    def test_symlinked_files_are_rejected(self, tmp_path, real):
        links = tmp_path / "links"
        links.mkdir()
        shutil.copy(real / MANIFEST_NAME, links / MANIFEST_NAME)
        for name in os.listdir(real):
            if name != MANIFEST_NAME:
                os.symlink(real / name, links / name)
        assert check_proof_bundle(real).ok
        assert not check_proof_bundle(links).ok

        # with only the units linked, each unit fails on its own
        os.unlink(links / BASE_NAME)
        shutil.copy(real / BASE_NAME, links / BASE_NAME)
        chk = check_proof_bundle(links)
        assert not chk.ok
        assert len(chk.units) == 3 and not any(u.ok for u in chk.units)
        assert all("not a regular file" in u.reason for u in chk.units)

    @pytest.mark.parametrize("name", ["branch_1000.cnf", "group_0.cnf"])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace("\n", "\nc a comment\n", 1),
            lambda text: text.replace(" 0\n", "  0\n", 1),
            lambda text: text + "\n",
        ],
        ids=["comment", "double_space", "blank_line"],
    )
    def test_unit_formula_must_match_byte_for_byte(self, real, name, edit):
        path = real / name
        path.write_text(edit(path.read_text()))
        chk = check_proof_bundle(real)
        assert not chk.ok
        assert [u.ok for u in chk.units].count(False) == 1

    @pytest.mark.parametrize(
        "header", ["# groups\t7", "# backdoor\t5 6", "# cnf\tother.cnf"]
    )
    def test_repeated_header_is_rejected(self, tmp_path, header):
        """A second copy of a header would advertise a second claim."""
        d = tmp_path / "bundle"
        generate_proof_bundle(pigeonhole(3, 2), dset([1, 2], 6), k_groups=2, out_dir=d)
        assert check_proof_bundle(d).ok
        manifest = d / MANIFEST_NAME
        manifest.write_text(header + "\n" + manifest.read_text())
        assert not check_proof_bundle(d).ok

    @pytest.mark.parametrize(
        "old, new",
        [
            ("# backdoor\t1 2 3 4\n", "# backdoor\t1  2 3 4\n"),
            ("# backdoor\t1 2 3 4\n", "# backdoor\t+1 2 3 4\n"),
            ("# groups\t2\n", "# groups\t02\n"),
            ("# groups\t2\n", "# groups\t2 \n"),
        ],
        ids=["double_space", "plus_sign", "leading_zero", "trailing_space"],
    )
    def test_non_canonical_header_is_rejected(self, real, old, new):
        """A header that names the same set and count in other bytes is refused."""
        manifest = real / MANIFEST_NAME
        text = manifest.read_text()
        assert old in text
        manifest.write_text(text.replace(old, new))
        chk = check_proof_bundle(real)
        assert not chk.ok
        assert chk.reason == "manifest differs from the derived one"


@pytest.fixture(scope="module")
def pristine_bundle(tmp_path_factory):
    d = tmp_path_factory.mktemp("pristine")
    generate_proof_bundle(pigeonhole(4, 3), dset([1, 2, 3, 4], 12), k_groups=2, out_dir=d)
    return d


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_byte_corruption_is_rejected(pristine_bundle, tmp_path_factory, data):
    """Change, insert or delete one byte of a unit formula or of the manifest."""
    names = sorted(
        n for n in os.listdir(pristine_bundle) if n.endswith(".cnf") and n != BASE_NAME
    )
    name = data.draw(st.sampled_from(names + [MANIFEST_NAME]))
    body = bytearray((pristine_bundle / name).read_bytes())
    op = data.draw(st.sampled_from(["change", "insert", "delete"]))
    if op == "insert":
        at = data.draw(st.integers(0, len(body)))
        body[at:at] = bytes([data.draw(st.integers(0, 255))])
    else:
        at = data.draw(st.integers(0, len(body) - 1))
        if op == "delete":
            del body[at]
        else:
            body[at] = (body[at] + data.draw(st.integers(1, 255))) % 256
    work = tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp())
    try:
        shutil.copytree(pristine_bundle, work, dirs_exist_ok=True)
        with open(os.path.join(work, name), "wb") as fh:
            fh.write(body)
        assert not check_proof_bundle(work).ok, (name, op, at)
    finally:
        shutil.rmtree(work)


class TestSoundnessComposition:
    def test_verified_bundle_implies_direct_unsat(self, tmp_path, unsat_fixtures):
        for name, f in unsat_fixtures[:6]:
            k = min(2, f.num_vars)
            B = dset(list(range(1, k + 1)), f.num_vars)
            d = tmp_path / name
            generate_proof_bundle(f, B, k_groups=2, out_dir=d)
            assert check_proof_bundle(d, formula=f).ok, name
            assert solve(f).verdict == UNSAT, name


def test_over_cap_backdoor_header_is_rejected_quickly(tmp_path):
    """A manifest may name any set; the checker refuses one over the cap.

    Enumerating 2^40 branches would never finish, so the check runs in a
    subprocess with a timeout and fails the test instead of hanging it.
    """
    generate_proof_bundle(
        conftest.implication_chain(40), dset([1], 40), k_groups=2, out_dir=tmp_path
    )
    manifest = tmp_path / MANIFEST_NAME
    text = manifest.read_text()
    members = " ".join(str(v) for v in range(1, 41))
    assert "# backdoor\t1\n" in text
    manifest.write_text(text.replace("# backdoor\t1\n", f"# backdoor\t{members}\n"))

    src = os.path.dirname(os.path.dirname(os.path.abspath(satdecomp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "from satdecomp.proofs import check_proof_bundle\n"
        "chk = check_proof_bundle(sys.argv[1])\n"
        "print(chk.ok, chk.reason)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("False invalid backdoor header: ")
    assert "enumeration cap" in proc.stdout


def test_out_of_range_proof_variable_is_rejected_in_bounded_memory(tmp_path):
    """A 13-byte proof line naming variable 10^9 must not size the checker.

    The check runs in a subprocess limited to 1 GiB of address space and
    20 s, so a checker that allocates per named variable fails the test
    with a MemoryError instead of exhausting the machine.
    """
    generate_proof_bundle(pigeonhole(4, 3), dset([1], 12), k_groups=2, out_dir=tmp_path)
    drat = tmp_path / "branch_0.drat"
    drat.write_bytes(b"1000000000 0\n" + drat.read_bytes())

    src = os.path.dirname(os.path.dirname(os.path.abspath(satdecomp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from satdecomp.proofs import check_proof_bundle\n"
        "chk = check_proof_bundle(sys.argv[1])\n"
        "print(chk.ok, [(u.ref, u.ok, u.reason) for u in chk.units])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("False ")
    assert (
        "('0', False, 'proof rejected at step 0: "
        "clause names a variable outside the formula')" in proc.stdout
    )
    assert "('1', True, None)" in proc.stdout
