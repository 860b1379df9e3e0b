"""The batch front end: instance parsing, command execution, report shape,
and exit codes."""

import json

import pytest

from hochcyc import cli
from hochcyc.ainfty import BUILTIN_NAMES
from hochcyc.cli import (
    InstanceParseError,
    build_parser,
    load_algebra,
    main,
    parse_instance,
    run,
    serialize_instance,
)

GOOD_INSTANCE = """
# a two-generator differential algebra over a rank-1 group
PI
rank 1
omega 1
maslov 2
BASIS
e x
DEGREES
0 1
UNIT
e
MU 1
x -> T^[1] * e
MU 2
e e -> e
e x -> x
x e -> -1 * x
"""


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "algebra.txt"
    path.write_text(GOOD_INSTANCE)
    return str(path)


def _run(argv):
    parser = build_parser()
    return run(parser.parse_args(argv))


def test_parse_instance(instance_path):
    A = parse_instance(instance_path)
    assert A.module.basis == ("e", "x")
    assert A.unit == "e"
    assert A.mu(("x",)).terms["e"].valuation() == 1


def test_serialize_round_trip(instance_path, tmp_path):
    A = parse_instance(instance_path)
    text = serialize_instance(A)
    path2 = tmp_path / "again.txt"
    path2.write_text(text)
    B = parse_instance(str(path2))
    assert B.module.basis == A.module.basis
    assert B.module.degrees == A.module.degrees
    assert B.unit == A.unit
    assert {t: e.terms for t, e in B.ops.items()} == \
        {t: e.terms for t, e in A.ops.items()}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_round_trip(name, tmp_path):
    A = load_algebra(name)
    path = tmp_path / "b.txt"
    path.write_text(serialize_instance(A))
    B = parse_instance(str(path))
    assert {t: e.terms for t, e in B.ops.items()} == \
        {t: e.terms for t, e in A.ops.items()}


def test_parse_rejects_bad_degree_law(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("BASIS\ne x\nDEGREES\n0 1\nMU 2\ne x -> e\n")
    with pytest.raises(ValueError, match="homogeneous"):
        parse_instance(str(path))


def test_parse_rejects_unknown_generator(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("BASIS\ne\nDEGREES\n0\nMU 2\ne q -> e\n")
    with pytest.raises(InstanceParseError, match="unknown generator"):
        parse_instance(str(path))


def test_parse_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("BASIS\ne\nDEGREES\n0\nMU 1\nbroken line\n")
    with pytest.raises(InstanceParseError, match="line 6"):
        parse_instance(str(path))


def test_check_ainfty_command(instance_path):
    report, code = _run(["check-ainfty", instance_path,
                         "--energy", "3", "--weight", "3"])
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert "structure_relations" in names and "strict_unit" in names
    assert all(c["ok"] for c in report["checks"])
    assert report["timings"]["total_s"] >= 0


def test_dsquare_command_builtin():
    report, code = _run(["dsquare", "dual_numbers", "--weight", "3"])
    assert code == 0
    assert len(report["checks"]) == 6


def test_t_lemma_command():
    report, code = _run(["t-lemma", "exterior(2)", "--trials", "20",
                         "--weight", "3", "--seed", "1"])
    assert code == 0


def test_homology_command_with_oracle():
    report, code = _run(["homology", "dual_numbers", "--oracle",
                         "--weight", "3", "--dmin", "-1", "--dmax", "1"])
    assert code == 0
    entry = report["betti"]["hochschild"]
    assert "betti" in entry and "oracle_betti" in entry


def test_homology_oracle_check_compares_ranks(monkeypatch):
    oracle = cli.naive_oracle

    def one_rank_off(A, variant, trunc):
        report = oracle(A, variant, trunc)
        report.ranks[trunc.d_min] += 1
        return report

    monkeypatch.setattr(cli, "naive_oracle", one_rank_off)
    report, code = _run(["homology", "dual_numbers", "--oracle",
                         "--variant", "hochschild", "--weight", "3",
                         "--dmin", "-1", "--dmax", "1"])
    assert code == 1
    entry = report["betti"]["hochschild"]
    assert entry["betti"] == entry["oracle_betti"]
    assert "ranks" in entry
    assert [c["name"] for c in report["checks"] if not c["ok"]] == [
        "oracle:hochschild"]


def test_homology_inconsistent_cap_exit_1():
    report, code = _run(["homology", "curved_matrix", "--energy", "3",
                         "--weight", "2", "--dmin", "0", "--dmax", "1"])
    assert code == 1
    assert "square" in report["error"]


def test_expand_structure_counts():
    report, code = _run(["expand-structure", "--k", "2", "--l", "1"])
    assert code == 0
    # k(k+1)2^l composites + interior-differential term
    assert report["count"] == 2 * 3 * 2 + 1
    assert report["declared_count"] == 2 * 3 * 2 + 1
    report, code = _run(["expand-structure", "--k", "0", "--l", "1"])
    assert code == 0
    # at k = 0 one trivial rotation contributes 2^l composites; the closed
    # declared formula counts none, and the report exposes both numbers
    assert report["count"] == 4
    assert report["declared_count"] == 2


def test_verify_theorems_command():
    report, code = _run(["verify-theorems", "--weight", "3"])
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert any("extended" in n for n in names)
    assert all(c["ok"] for c in report["checks"])


def test_axioms_command():
    report, code = _run(["axioms"])
    assert code == 0
    assert all(c["ok"] for c in report["checks"])


def test_sign_lemmas_command():
    report, code = _run(["sign-lemmas", "--k", "4", "--trials", "20"])
    assert code == 0
    assert report["counts"]["n=0"] > 0


def test_missing_file_exit_2(capsys):
    code = main(["check-ainfty", "/no/such/file.txt"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert "error" in doc


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_instance_exit_2(tmp_path, capsys, kind):
    path = tmp_path / "instance"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"BASIS\n\xff\xfe\nDEGREES\n0\n")
    code = main(["check-ainfty", str(path)])
    out = capsys.readouterr()
    assert code == 2
    assert json.loads(out.out)["error"].startswith("cannot read ")
    assert "Traceback" not in out.out + out.err


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("garbage before sections\n")
    code = main(["check-ainfty", str(path)])
    assert code == 2


@pytest.mark.parametrize("text,line", [
    ("BASIS\ne x\nDEGREES\n0 one\n", 4),
    ("BASIS\ne x\nDEGREES\n0\n", 1),
    ("BASIS\ne e\nDEGREES\n0 0\n", 1),
    ("TVARS\n1 x\nBASIS\ne\nDEGREES\n0\n", 2),
    ("PI\nrank 2\nomega 1\nmaslov 2\nBASIS\ne\nDEGREES\n0\n", 1),
    ("BASIS\ne\nDEGREES\n0\nMU two\ne e -> e\n", 5),
    ("BASIS\ne\nDEGREES\n0\nMU 2\ne e -> 1/0 * e\n", 6),
    ("TVARS\n1\nBASIS\ne\nDEGREES\n0\nMU 2\ne e -> t0^2 * e\n", 8),
    ("PI\nrank 1\nomega 1\nmaslov 2\nBASIS\ne\nDEGREES\n0\nMU 2\n"
     "e e -> T^[-] * e\n", 10),
    ("BASIS\ne\nDEGREES\n0\nMU 2\ne e -> e\nQ 1\ne -> e\n", 7),
    ("BASIS\ne\nDEGREES\n0\nUNIT\ne\nP\n", 7),
    ("PI\nrank 0\nGEOMETRY\nBASIS\ne\nDEGREES\n0\n", 3),
    ("BASIS\ne x\nDEGREES\n0 1\nUNIT\nu\n", 6),
    ("BASIS\ne\nDEGREES\n0\nUNIT\n", 5),
    ("BASIS\ne\nDEGREES\n0\nMU -1\n", 5),
], ids=["degree", "degree-count", "duplicate-generator", "tvar", "pi-rank",
        "mu-arity", "zero-denominator", "odd-square", "t-exponent",
        "q-section", "p-section", "geometry-section", "unknown-unit",
        "empty-unit", "negative-arity"])
def test_malformed_instance_exit_2_with_line(tmp_path, capsys, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code = main(["check-ainfty", str(path), "--weight", "1"])
    out = capsys.readouterr()
    assert code == 2
    assert json.loads(out.out)["error"].startswith(f"line {line}: ")
    assert "Traceback" not in out.out + out.err


@pytest.mark.parametrize("argv", [
    ["check-ainfty", "dual_numbers", "--energy", "abc"],
    ["check-ainfty", "dual_numbers", "--weight", "-1"],
    ["homology", "dual_numbers", "--dmin", "3", "--dmax", "1"],
    ["t-lemma", "dual_numbers", "--trials", "-5"],
    ["t-lemma", "dual_numbers", "--trials", "0"],
    ["sign-lemmas", "--k", "-2", "--trials", "-1"],
    ["sign-lemmas", "--trials", "-1"],
    ["expand-structure", "--k", "-1", "--l", "1"],
    ["expand-structure", "--k", "1", "--l", "-1"],
], ids=["energy", "weight", "degree-window", "negative-trials",
        "zero-trials", "negative-sign-lemma-k", "negative-sign-lemma-trials",
        "negative-k", "negative-l"])
def test_malformed_arguments_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_output_exit_2_before_running(tmp_path, capsys,
                                                 monkeypatch, where):
    target = tmp_path if where == "directory" else tmp_path / "no" / "r.json"
    monkeypatch.setitem(cli.COMMANDS, "axioms", None)  # must not be run
    with pytest.raises(SystemExit) as exc:
        main(["axioms", "--output", str(target)])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert "usage:" in out.err and "cannot write" in out.err
    assert "Traceback" not in out.err


def test_output_file(tmp_path, capsys, instance_path):
    out = tmp_path / "report.json"
    code = main(["dsquare", instance_path, "--weight", "2",
                 "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "dsquare"
    capsys.readouterr()
