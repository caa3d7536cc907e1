"""Golden CLI outputs: what every command prints and writes, pinned by hash.

The fixture instances of `scripts/make_instances.py` are built in process
and run through `estimate`, `find-backdoor`, `solve`, `prove` and `check`.
Each command's exit code, report and files are reduced to one text without
timings or temporary paths, and `golden_cli.json` holds the SHA-256 of each
text per instance. A change that keeps every verdict, counter, estimate and
artifact keeps every hash.

If outputs change on purpose, regenerate the file and say so in the change
log:

    PYTHONPATH=src python tests/test_golden_cli.py
"""
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import tempfile

import pytest

from satdecomp.cli import main
from satdecomp.formula import write_dimacs

HERE = os.path.dirname(__file__)
GOLDEN_PATH = os.path.join(HERE, "golden_cli.json")
SLOW = {"php_8_7.cnf", "sgen_20_s0.cnf", "sgen_22_s0.cnf"}


def _fixture_batch():
    path = os.path.join(HERE, "..", "scripts", "make_instances.py")
    spec = importlib.util.spec_from_file_location("make_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.fixture_batch()


BATCH = _fixture_batch()


def _first(k: int, nv: int) -> list[str]:
    return [str(v) for v in range(1, min(k, nv) + 1)]


def _csv_without(path: str, column: int) -> str:
    """The CSV's text with one column (a timing) left out."""
    if not os.path.exists(path):
        return "(no file)\n"
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    return "".join(",".join(r[:column] + r[column + 1:]) + "\n" for r in rows)


def _tree(directory: str) -> str:
    """File names and bytes of a directory, in name order."""
    if not os.path.isdir(directory):
        return "(no directory)\n"
    parts = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            parts.append(f"== {name}\n{fh.read().decode()}")
    return "".join(parts)


def outputs(name: str) -> dict[str, str]:
    """SHA-256 of each command's canonical output on one instance."""
    formula = BATCH[name]
    nv = formula.num_vars
    texts = {}
    with tempfile.TemporaryDirectory() as tmp:
        cnf = os.path.join(tmp, name)
        with open(cnf, "w") as fh:
            fh.write(write_dimacs(formula))

        def run(label, *argv, extra=""):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            report = "".join(
                line + "\n" for line in out.getvalue().splitlines()
                if not line.startswith("elapsed_s=")
            )
            text = f"exit={code}\n{report}{err.getvalue()}{extra}"
            texts[label] = text.replace(tmp, "<tmp>")

        sampled = ("--sample-size", "16", "--max-sample-size", "128")
        six = ("--backdoor", *_first(6, nv))
        run("estimate", "estimate", cnf, *six, *sampled)
        run("estimate_exhaustive_conflicts", "estimate", cnf,
            "--backdoor", *_first(3, nv), "--exhaustive", "--measure", "conflicts")
        for w in ("1", "2"):
            history = os.path.join(tmp, f"history_w{w}.csv")
            run(f"find_backdoor_w{w}", "find-backdoor", cnf, "--b0-size", "8",
                "--generations", "2", "--elite", "1", "--crossover", "2",
                "--mutation", "2", "--init-size", "3", "--sample-size", "8",
                "--max-sample-size", "32", "--out", history, "--workers", w)
            texts[f"find_backdoor_w{w}"] += _csv_without(history, 0)
        ledger = os.path.join(tmp, "ledger.csv")
        run("solve", "solve", cnf, "--backdoor", *_first(3, nv),
            "--backdoor", *_first(4, nv)[1:], "--out", ledger)
        texts["solve"] += _csv_without(ledger, 6)
        for w in ("1", "2"):
            bundle = os.path.join(tmp, f"bundle_w{w}")
            run(f"prove_w{w}", "prove", cnf, "--backdoor", *_first(4, nv),
                "--k-groups", "3", "--out", bundle, "--workers", w)
            texts[f"prove_w{w}"] += _tree(bundle)
            run(f"check_w{w}", "check", bundle, "--cnf", cnf)
    return {
        label: hashlib.sha256(text.encode()).hexdigest()
        for label, text in texts.items()
    }


def _dump(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(n, marks=pytest.mark.slow) if n in SLOW else n
        for n in sorted(BATCH)
    ],
)
def test_cli_outputs_match_golden(golden, name):
    assert outputs(name) == golden[name]


def test_golden_file_is_canonical(golden):
    assert sorted(golden) == sorted(BATCH)
    with open(GOLDEN_PATH) as fh:
        assert fh.read() == _dump(golden)


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        fh.write(_dump({name: outputs(name) for name in sorted(BATCH)}))
    print(f"wrote {GOLDEN_PATH}")
