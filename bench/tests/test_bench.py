"""Tests of the benchmark itself, on the small builtins only.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest bench/tests``.
"""

import copy
import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = ("ground_field", "dual_numbers")
COUNTS = (".calls", ".distinct", ".nnz", ".cells", ".dense_mults",
          ".terms_out")


def small_checks(part, tmp_path, known=None):
    checks = workloads.PARTS[part](5, tmp_path,
                                   known or workloads.load_known())
    return [c for c in checks if any(name in c.label for name in SMALL)]


def traced_run(tmp_path):
    """Verdicts and per-layer metrics of the small checks of three parts,
    set up and run under one tracer."""
    verdicts = []
    with spans.Tracer() as tracer:
        for part in ("coderivation", "complexes_sweep", "homology_cli"):
            workdir = tmp_path / part
            workdir.mkdir()
            verdicts += workloads.run_checks(small_checks(part, workdir))
    return verdicts, tracer.metrics()


def test_traced_and_untraced_verdicts_agree(tmp_path):
    plain = []
    for part in ("coderivation", "complexes_sweep", "homology_cli"):
        workdir = tmp_path / "plain" / part
        workdir.mkdir(parents=True)
        plain += workloads.run_checks(small_checks(part, workdir))
    (tmp_path / "traced").mkdir()
    traced, _ = traced_run(tmp_path / "traced")
    assert plain == traced
    assert plain and all(msg is None for _, msg in plain)


def test_two_traced_runs_give_identical_counts(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, first = traced_run(tmp_path / "a")
    _, second = traced_run(tmp_path / "b")
    counts = {k for k in first if k.endswith(COUNTS)}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    for layer in ("scalars", "graded", "ainfty", "complexes", "homology",
                  "cli"):
        assert any(first[k] for k in counts if k.startswith(layer + "."))
    assert first["homology.mat_mul.dense_mults"] > 0
    assert first["homology.boundary_matrix.nnz"] > 0


def _bindings():
    """Every attribute of the hochcyc modules, the benchmark's modules and
    the traced classes."""
    mods = [m for name, m in sys.modules.items()
            if name == "hochcyc" or name.startswith("hochcyc.")]
    mods.append(workloads)
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for b in spans.BOUNDARIES:
        if b.owner is not None:
            cls = getattr(importlib.import_module(f"hochcyc.{b.layer}"),
                          b.owner)
            out.update({(cls.__qualname__, k): v
                        for k, v in vars(cls).items()})
    return out


def test_wrappers_restore_the_originals():
    from hochcyc import cli, homology as package_homology
    homology_mod = importlib.import_module("hochcyc.homology")
    before = _bindings()
    original = homology_mod.homology
    with spans.Tracer():
        # a function bound by several modules is wrapped in all of them
        assert homology_mod.homology is not original
        assert cli.homology is homology_mod.homology
        assert sys.modules["hochcyc"].homology is homology_mod.homology
        assert workloads.ainfty_residual is sys.modules[
            "hochcyc.ainfty"].ainfty_residual
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert package_homology is original


@pytest.mark.parametrize("part,path,label", [
    ("coderivation", ("coderivation", "checked", "dual_numbers"),
     "coderivation:dual_numbers"),
    ("homology_cli", ("homology_cli", "ground_field/all/w3/-2..3", "connes",
                      "betti", "0"),
     "homology:ground_field/all/w3/-2..3"),
    ("complexes_sweep", ("complexes_sweep", "dsquare_checked", "dual_numbers",
                         "hochschild"),
     "dsquare:dual_numbers:hochschild"),
])
def test_corrupted_known_answer_counts_as_failed(tmp_path, part, path,
                                                 label):
    known = copy.deepcopy(workloads.load_known())
    table = known
    for key in path[:-1]:
        table = table[key]
    table[path[-1]] += 1
    checks = [c for c in small_checks(part, tmp_path, known)
              if c.label == label]
    assert len(checks) == 1
    [(got_label, msg)] = workloads.run_checks(checks)
    assert got_label == label and msg is not None


def test_a_check_that_raises_is_a_failed_verdict():
    def boom():
        raise ValueError("broken")

    [(label, msg)] = workloads.run_checks([workloads.Check("x", boom)])
    assert label == "x" and "broken" in msg


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload",
         "coderivation_complexes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
