import os
import subprocess
import sys

import pytest

import satdecomp.estimator
import satdecomp.proofs
from satdecomp.cli import EXIT_ERROR, EXIT_OK, EXIT_SAT, EXIT_UNSAT, main
from satdecomp.estimator import DecompositionSet, exact_d_hardness
from satdecomp.formula import CnfFormula, parse_dimacs, write_dimacs
from satdecomp.instances import pigeonhole
from satdecomp.proofs import MANIFEST_NAME


@pytest.fixture()
def php43_path(tmp_path):
    p = tmp_path / "php43.cnf"
    p.write_text(write_dimacs(pigeonhole(4, 3)))
    return str(p)


@pytest.fixture()
def sat_path(tmp_path):
    p = tmp_path / "sat.cnf"
    p.write_text(write_dimacs(CnfFormula(2, ((1, 2),))))
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_dict(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        k, _, v = line.partition("=")
        pairs[k] = v
    return pairs


def strip_timing(out: str) -> str:
    return "\n".join(
        l for l in out.splitlines() if not l.startswith("elapsed_s=")
    )


def out_of_memory(*args, **kwargs):
    raise MemoryError


class TestEstimate:
    def test_exhaustive_matches_oracle(self, capsys, php43_path):
        code, out, _ = run_cli(
            capsys, "estimate", php43_path, "--backdoor", "1", "2", "3",
            "--exhaustive",
        )
        assert code == EXIT_OK
        rep = report_dict(out)
        f = parse_dimacs(open(php43_path).read())
        B = DecompositionSet.from_vars([1, 2, 3], 12)
        assert float(rep["value"]) == exact_d_hardness(f, B) == 78
        assert rep["exhaustive"] == "true"
        assert rep["converged"] == "true"
        assert rep["rho"] == "0.625"

    def test_measure_flag_switches_counter(self, capsys, php43_path):
        _, out_p, _ = run_cli(
            capsys, "estimate", php43_path, "--backdoor", "1", "2", "3",
            "--exhaustive", "--measure", "props",
        )
        _, out_c, _ = run_cli(
            capsys, "estimate", php43_path, "--backdoor", "1", "2", "3",
            "--exhaustive", "--measure", "conflicts",
        )
        rp, rc = report_dict(out_p), report_dict(out_c)
        assert rp["measure"] == "propagations"
        assert rc["measure"] == "conflicts"
        assert float(rp["value"]) == 78.0
        assert float(rc["value"]) == 3.0
        assert "converged" in rp and "converged" in rc

    def test_sat_formula_reports_and_exits_10(self, capsys, sat_path):
        code, out, _ = run_cli(
            capsys, "estimate", sat_path, "--backdoor", "1", "--exhaustive",
        )
        assert code == EXIT_SAT
        rep = report_dict(out)
        assert rep["sat"] == "true"
        assert "witness" in rep

    def test_missing_file_errors(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "estimate", str(tmp_path / "nope.cnf"), "--backdoor", "1",
        )
        assert code == EXIT_ERROR
        assert "error" in err

    def test_bad_backdoor_var_errors(self, capsys, php43_path):
        code, _, err = run_cli(
            capsys, "estimate", php43_path, "--backdoor", "99",
        )
        assert code == EXIT_ERROR
        assert err

    def test_unknown_flag_errors(self, capsys, php43_path):
        code, _, err = run_cli(
            capsys, "estimate", php43_path, "--backdoor", "1", "--bogus",
        )
        assert code == EXIT_ERROR


class TestFindBackdoor:
    ARGS = (
        "--b0-size", "4", "--generations", "4", "--elite", "1",
        "--crossover", "2", "--mutation", "1", "--init-size", "2",
        "--sample-size", "16", "--seed", "3",
    )

    def test_reported_best_matches_exact_oracle(self, capsys, php43_path):
        code, out, _ = run_cli(capsys, "find-backdoor", php43_path, *self.ARGS)
        assert code == EXIT_OK
        rep = report_dict(out)
        f = parse_dimacs(open(php43_path).read())
        vars_ = [int(v) for v in rep["best_backdoor"].split()]
        B = DecompositionSet.from_vars(vars_, f.num_vars)
        assert rep["best_exhaustive"] == "true"
        assert float(rep["best_value"]) == exact_d_hardness(f, B)

    def test_deterministic_stdout(self, capsys, php43_path):
        _, out1, _ = run_cli(capsys, "find-backdoor", php43_path, *self.ARGS)
        _, out2, _ = run_cli(capsys, "find-backdoor", php43_path, *self.ARGS)
        assert strip_timing(out1) == strip_timing(out2)

    def test_singleton_space(self, capsys, php43_path):
        code, out, _ = run_cli(
            capsys, "find-backdoor", php43_path, "--b0-size", "1",
            "--generations", "2", "--elite", "1", "--crossover", "1",
            "--mutation", "1", "--init-size", "1", "--sample-size", "4",
        )
        assert code == EXIT_OK
        rep = report_dict(out)
        assert rep["best_size"] == "1"

    def test_history_csv_written(self, capsys, php43_path, tmp_path):
        hist = tmp_path / "history.csv"
        code, out, _ = run_cli(
            capsys, "find-backdoor", php43_path, *self.ARGS, "--out", str(hist),
        )
        assert code == EXIT_OK
        lines = hist.read_text().splitlines()
        assert lines[0] == "elapsed_s,evals,card_B,log2_fitness,best_log2_fitness"
        assert len(lines) >= 2

    def test_budget_required(self, capsys, php43_path):
        code, _, err = run_cli(
            capsys, "find-backdoor", php43_path, "--b0-size", "4",
        )
        assert code == EXIT_ERROR
        assert err

    def test_sat_discovery_exits_10(self, capsys, sat_path):
        code, out, _ = run_cli(
            capsys, "find-backdoor", sat_path, "--b0-size", "2",
            "--generations", "2", "--elite", "1", "--crossover", "1",
            "--mutation", "1", "--init-size", "1", "--sample-size", "4",
        )
        assert code == EXIT_SAT
        assert report_dict(out)["sat"] == "true"


class TestSolve:
    def test_unsat_exit_20_and_totals(self, capsys, php43_path):
        code, out, _ = run_cli(
            capsys, "solve", php43_path, "--backdoor", "1", "2", "3",
        )
        assert code == EXIT_UNSAT
        rep = report_dict(out)
        assert rep["verdict"] == "UNSAT"
        assert rep["total_propagations"] == "78"
        assert rep["total_conflicts"] == "3"
        assert rep["branches"] == "8"

    def test_sat_exit_10_with_witness(self, capsys, sat_path):
        code, out, _ = run_cli(capsys, "solve", sat_path, "--backdoor", "1")
        assert code == EXIT_SAT
        rep = report_dict(out)
        assert rep["verdict"] == "SAT"
        assert "witness" in rep

    def test_multi_backdoor_report(self, capsys, php43_path):
        code, out, _ = run_cli(
            capsys, "solve", php43_path,
            "--backdoor", "1", "2", "--backdoor", "2", "3",
        )
        assert code == EXIT_UNSAT
        rep = report_dict(out)
        assert rep["backdoor_0"] == "1 2"
        assert rep["backdoor_1"] == "2 3"
        assert rep["easy_count"] == "4"
        assert rep["hard_count"] == "3"
        assert rep["vacuous_count"] == "4"

    def test_ledger_csv_written(self, capsys, php43_path, tmp_path):
        out_csv = tmp_path / "ledger.csv"
        code, out, _ = run_cli(
            capsys, "solve", php43_path, "--backdoor", "1", "2",
            "--out", str(out_csv),
        )
        assert code == EXIT_UNSAT
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "backdoor_id,beta_bits,tier,verdict,propagations,conflicts,elapsed_s"
        assert len(lines) == 5
        assert report_dict(out)["ledger"] == str(out_csv)

    def test_backdoor_required(self, capsys, php43_path):
        code, _, err = run_cli(capsys, "solve", php43_path)
        assert code == EXIT_ERROR
        assert err

    def test_out_of_memory_exits_1_with_message(self, capsys, php43_path, monkeypatch):
        monkeypatch.setattr(satdecomp.estimator, "evaluate_branch", out_of_memory)
        code, out, err = run_cli(capsys, "solve", php43_path, "--backdoor", "1", "2")
        assert code == EXIT_ERROR
        assert (out, err) == ("", "error: out of memory\n")


class TestProveAndCheck:
    @pytest.mark.parametrize("flag", ["--workers", "--seed"])
    def test_check_takes_no_workers_or_seed(self, capsys, flag):
        code, _, err = run_cli(capsys, "check", "bundle", flag, "2")
        assert code == EXIT_ERROR
        assert flag in err

    @pytest.mark.parametrize("command", ["solve", "prove"])
    def test_solve_and_prove_take_no_seed(self, capsys, php43_path, tmp_path, command):
        code, out, err = run_cli(
            capsys, command, php43_path, "--backdoor", "1", "2",
            "--out", str(tmp_path / "out"), "--seed", "1",
        )
        assert code == EXIT_ERROR
        assert out == ""
        assert "unrecognized arguments: --seed 1" in err
        assert not (tmp_path / "out").exists()

    def test_round_trip(self, capsys, php43_path, tmp_path):
        bundle = tmp_path / "bundle"
        code, out, _ = run_cli(
            capsys, "prove", php43_path, "--backdoor", "1", "2",
            "--k-groups", "2", "--out", str(bundle),
        )
        assert code == EXIT_UNSAT
        rep = report_dict(out)
        assert rep["units"] == "4"
        assert os.path.exists(bundle / MANIFEST_NAME)

        code, out, _ = run_cli(capsys, "check", str(bundle), "--cnf", php43_path)
        assert code == EXIT_OK
        rep = report_dict(out)
        assert rep["ok"] == "true"
        assert rep["units"] == "4"
        assert all(
            rep[f"unit_{i}"].endswith(" ok") for i in range(4)
        )

    def test_corrupted_proof_exits_1_with_unit_id(self, capsys, php43_path, tmp_path):
        bundle = tmp_path / "bundle"
        run_cli(
            capsys, "prove", php43_path, "--backdoor", "1", "2",
            "--k-groups", "2", "--out", str(bundle),
        )
        victim = next(
            bundle / n for n in sorted(os.listdir(bundle)) if n.endswith(".drat")
        )
        lines = [l for l in victim.read_text().splitlines() if l.strip()]
        victim.write_text("\n".join(lines[:-1]) + "\n")
        code, out, _ = run_cli(capsys, "check", str(bundle))
        assert code == EXIT_ERROR
        rep = report_dict(out)
        assert rep["ok"] == "false"
        failed = [v for k, v in rep.items() if k.startswith("unit_") and "FAIL" in v]
        assert failed

    def test_coverage_mutation_exits_1(self, capsys, php43_path, tmp_path):
        bundle = tmp_path / "bundle"
        run_cli(
            capsys, "prove", php43_path, "--backdoor", "1", "2",
            "--k-groups", "2", "--out", str(bundle),
        )
        manifest = bundle / MANIFEST_NAME
        lines = manifest.read_text().splitlines()
        kept = [l for l in lines if not l.startswith("hard_branch")]
        manifest.write_text("\n".join(kept) + "\n")
        code, out, _ = run_cli(capsys, "check", str(bundle))
        assert code == EXIT_ERROR
        rep = report_dict(out)
        assert rep["ok"] == "false"
        assert "reason" in rep

    @pytest.mark.parametrize(
        "module, name",
        [(satdecomp.estimator, "evaluate_branch"), (satdecomp.proofs, "check_drat")],
        ids=["derivation", "unit_check"],
    )
    def test_out_of_memory_fails_the_check_with_a_reason(
        self, capsys, php43_path, tmp_path, monkeypatch, module, name
    ):
        bundle = tmp_path / "bundle"
        run_cli(
            capsys, "prove", php43_path, "--backdoor", "1", "2",
            "--k-groups", "2", "--out", str(bundle),
        )
        monkeypatch.setattr(module, name, out_of_memory)
        code, out, _ = run_cli(capsys, "check", str(bundle))
        assert code == EXIT_ERROR
        rep = report_dict(out)
        assert rep["ok"] == "false"
        assert rep["reason"] == "out of memory deriving or checking the bundle"

    def test_sat_formula_prove_exits_10(self, capsys, sat_path, tmp_path):
        code, out, _ = run_cli(
            capsys, "prove", sat_path, "--backdoor", "1",
            "--out", str(tmp_path / "b"),
        )
        assert code == EXIT_SAT
        assert report_dict(out)["sat"] == "true"


class TestDeterminism:
    def test_estimate_repeat_identical_minus_timing(self, capsys, php43_path):
        args = (
            "estimate", php43_path, "--backdoor", "1", "2", "3", "4", "5",
            "--sample-size", "16", "--max-sample-size", "16", "--seed", "11",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert strip_timing(out1) == strip_timing(out2)
        assert out1.splitlines()[-1].startswith("elapsed_s=")

    def test_console_script_subprocess_identical(self, php43_path):
        cmd = [
            sys.executable, "-m", "satdecomp.cli", "estimate", php43_path,
            "--backdoor", "1", "2", "3", "--exhaustive", "--seed", "5",
        ]
        a = subprocess.run(cmd, capture_output=True, text=True)
        b = subprocess.run(cmd, capture_output=True, text=True)
        assert a.returncode == b.returncode == EXIT_OK
        assert strip_timing(a.stdout) == strip_timing(b.stdout)


def test_no_command_is_an_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == EXIT_ERROR
    assert err
