"""The batch front end: instance parsing, command execution, report shape,
and exit codes."""

import json
from fractions import Fraction

import pytest

from hochcyc import cli
from hochcyc.ainfty import BUILTIN_NAMES, AInfty
from hochcyc.cli import (
    InstanceParseError,
    build_parser,
    load_algebra,
    main,
    parse_instance,
    run,
    serialize_instance,
)
from hochcyc.graded import Element, GradedModule
from hochcyc.openclosed import exterior_geometry, structure_rhs, toy_zero_energy
from hochcyc.scalars import Context, FormalVarSpec, PiGroup, Scalar
from test_ainfty import _odd_variable_algebra

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


def test_round_trip_with_a_minus_one_coefficient(tmp_path, capsys):
    """mu_2(x, x) = -T e serializes as ``-T^[1] * e``, a term led by its
    sign, which parses back to the same algebra."""
    path = tmp_path / "minus.txt"
    path.write_text(GOOD_INSTANCE + "x x -> -1 * T^[1] * e\n")
    A = parse_instance(str(path))
    text = serialize_instance(A)
    assert "x x -> -T^[1] * e" in text
    path2 = tmp_path / "again.txt"
    path2.write_text(text)
    B = parse_instance(str(path2))
    assert {t: e.terms for t, e in B.ops.items()} == \
        {t: e.terms for t, e in A.ops.items()}
    assert main(["check-ainfty", str(path2), "--weight", "2"]) != 2
    assert "error" not in json.loads(capsys.readouterr().out)


def _rank_two_algebra():
    """Unit e and an odd x with mu_2(x, x) = T^[1,1] e over a rank-2 group,
    whose exponent is written with a comma inside its brackets."""
    ctx = Context(PiGroup(2, (Fraction(1), Fraction(1)), (0, 2)),
                  FormalVarSpec(()))
    mod = GradedModule("rank_two", ("e", "x"), (0, 1), ctx)
    T = Scalar.monomial(ctx, 1, (1, 1), ())
    return AInfty(mod, {("e", "e"): Element.generator(mod, "e"),
                        ("e", "x"): Element.generator(mod, "x"),
                        ("x", "e"): Element.generator(mod, "x", -1),
                        ("x", "x"): Element(mod, {"e": T})}, unit="e")


@pytest.mark.parametrize("make", [
    _rank_two_algebra, lambda: _odd_variable_algebra(2, mu3=True)[0]],
    ids=["rank_two", "odd_t"])
def test_round_trip_of_rank_two_exponents_and_odd_variables(make, tmp_path,
                                                            capsys):
    """A T^[b1,b2] coefficient and a TVARS section serialize to text that
    parses back to the same algebra and that ``check-ainfty`` reads."""
    A = make()
    path = tmp_path / "again.txt"
    path.write_text(serialize_instance(A))
    B = parse_instance(str(path))
    assert B.module.ctx.pi == A.module.ctx.pi
    assert B.module.ctx.tvars == A.module.ctx.tvars
    assert {t: e.terms for t, e in B.ops.items()} == \
        {t: e.terms for t, e in A.ops.items()}
    code = main(["check-ainfty", str(path), "--weight", "2"])
    assert "error" not in json.loads(capsys.readouterr().out)
    assert code != 2


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
    checked = {c["name"]: c["checked"] for c in report["checks"]}
    assert checked["structure_relations"] == 1 + 2 + 4 + 8
    assert checked["strict_unit"] > 0
    images = report["images"]
    assert list(images) == ["hat", "diff", "classes", "interned_tuples"]
    # mu-hat o mu-hat caches mu-hat on every word of weight <= 3; this
    # algebra has no curvature, so no output word is longer
    assert images["hat"]["tuples"] == checked["structure_relations"]
    assert images["hat"]["terms"] > 0
    assert images["diff"] == {"tuples": 0, "terms": 0}
    assert images["classes"] == {}
    assert images["interned_tuples"] >= images["hat"]["tuples"]


def test_check_ainfty_caches_nothing_above_the_weight_cap():
    """The curvature of curved_matrix makes mu-hat raise the weight of a
    word by one, so mu-hat o mu-hat at weight 3 also applies mu-hat to
    147 words of weight 4; their images are built and dropped, and only
    the 1 + 4 + 16 + 64 words within the cap keep theirs."""
    report, code = _run(["check-ainfty", "curved_matrix",
                         "--weight", "3", "--energy", "3"])
    assert code == 0
    checked = {c["name"]: c["checked"] for c in report["checks"]}
    assert checked["structure_relations"] == 85
    assert report["images"]["hat"]["tuples"] == 85


def test_dsquare_command_builtin():
    report, code = _run(["dsquare", "dual_numbers", "--weight", "3"])
    assert code == 0
    assert len(report["checks"]) == 6
    assert report["not_applicable"] == {}
    # canonical chains of weight <= 3 (1, 2, 4 and 8 tuples by weight)
    checked = {c["name"].split(":")[1]: c["checked"]
               for c in report["checks"]}
    assert checked["hochschild"] == 2 + 4 + 8
    assert checked["extended_connes"] == checked["connes"] + 1
    images = report["images"]
    assert images["diff"]["tuples"] == checked["hochschild"]
    # every variant but Hochschild, which reads b's cache, has its own
    quotients = sorted(c["name"].split(":")[1] for c in report["checks"]
                       if c["name"] != "dsquare:hochschild")
    assert sorted(k for k in images if k not in ("hat", "diff", "classes",
                                                 "interned_tuples")) == \
        quotients
    # each variant caches the class of every tuple its sweep enumerates
    assert sorted(images["classes"]) == sorted(quotients + ["hochschild"])
    assert images["classes"]["hochschild"] >= checked["hochschild"]
    assert images["diff"]["terms"] > 0 and images["connes"]["terms"] > 0


NON_UNITAL = "BASIS\nx y\nDEGREES\n1 2\nMU 2\nx x -> y\n"
UNIT_KILLING = ["normalized_hochschild", "reduced_connes",
                "extended_reduced_connes"]


@pytest.mark.parametrize("command", ["homology", "dsquare"])
def test_variant_all_runs_the_variants_a_non_unital_instance_admits(
        tmp_path, command):
    """``--variant all`` runs the three variants that need no unit and lists
    the unit-killing ones as not applicable; named alone, one of those is
    still an error."""
    path = tmp_path / "nonunital.txt"
    path.write_text(NON_UNITAL)
    argv = [command, str(path), "--weight", "3"]
    argv += ["--oracle"] if command == "homology" else []
    report, code = _run(argv)
    assert code == 0, report.get("error")
    assert report["not_applicable"] == {
        v: "requires a unital algebra" for v in UNIT_KILLING}
    ran = ["hochschild", "connes", "extended_connes"]
    prefix = "oracle" if command == "homology" else "dsquare"
    assert [c["name"] for c in report["checks"]] == [
        f"{prefix}:{v}" for v in ran]
    assert all(c["ok"] for c in report["checks"])
    if command == "homology":
        assert list(report["betti"]) == ran
    for v in UNIT_KILLING:
        report, code = _run([command, str(path), "--weight", "3",
                             "--variant", v])
        assert code == 1
        assert report["error"] == f"variant {v} requires a unital algebra"
        assert "not_applicable" not in report


def test_t_lemma_command():
    report, code = _run(["t-lemma", "exterior(2)", "--trials", "20",
                         "--weight", "3", "--seed", "1"])
    assert code == 0
    assert [c["checked"] for c in report["checks"]] == [20]


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
    assert all(c["ok"] for c in report["checks"])


def test_expand_structure_fails_on_a_dropped_term(monkeypatch, capsys):
    enumerate_terms = cli.structure_terms
    monkeypatch.setattr(cli, "structure_terms",
                        lambda k, l: list(enumerate_terms(k, l))[1:])
    assert main(["expand-structure", "--k", "2", "--l", "1"]) == 1
    report = json.loads(capsys.readouterr().out)
    [check] = report["checks"]
    assert check["name"] == "term_enumeration" and not check["ok"]
    assert report["count"] == 2 * 3 * 2


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("l", [0, 1])
def test_structure_rhs_count_matches_the_cli(k, l):
    A, geom = exterior_geometry(0)
    p, Q, sphere = toy_zero_energy(geom, A)
    gamma = [Element.generator(geom.X.module, "Xa12")] * l
    _, count = structure_rhs(Q, p, sphere, ("e", "a1")[:k], gamma)
    report, code = _run(["expand-structure", "--k", str(k), "--l", str(l)])
    assert code == 0
    assert count == report["count"]


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
    checked = {c["name"]: c["checked"] for c in report["checks"]}
    for n in (0, 1):
        # the toy family has four keys, all with l = 0, over a ring with
        # no formal variable: interior symmetry and the fundamental class
        # pass vacuously, and the count shows it
        assert checked[f"axiom:n={n}:interior_symmetry"] == 0
        assert checked[f"axiom:n={n}:fundamental_class"] == 0
        assert checked[f"axiom:n={n}:cyclic_symmetry"] == 4
        assert checked[f"axiom:n={n}:energy_zero"] == 4
        assert checked[f"axiom:n={n}:unit"] > 0
        assert checked[f"axiom:n={n}:boundary_linearity"] == 4
        assert checked[f"axiom:n={n}:interior_linearity"] == 2


def test_sign_lemmas_command():
    report, code = _run(["sign-lemmas", "--k", "4", "--trials", "20"])
    assert code == 0
    assert report["counts"]["n=0"] > 0


def test_seed_is_an_option_only_where_it_is_read(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["homology", "dual_numbers", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    report, _ = _run(["dsquare", "dual_numbers", "--weight", "2"])
    assert report["seed"] is None
    report, _ = _run(["sign-lemmas", "--k", "3", "--trials", "2",
                      "--seed", "4"])
    assert report["seed"] == 4


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
    ("BASIS\ne x\nDEGREES\n0 1\nMU 2\ne x -> x\ne e -> 1 * x\n"
     "e e -> 1 * e\n", 7),
    ("BASIS\ne y\nDEGREES\n0 2\nMU 0\n-> 1 * y\n", 6),
    ("BASIS\ne x\nDEGREES\n0 0\nMU 2\ne x -> x,\n", 6),
    ("BASIS\ne x\nDEGREES\n0 0\nMU 2\ne e -> e\nx x ->\n", 7),
    ("BASIS\ne x\nDEGREES\n0 0\nMU 2\ne x -> , x\n", 6),
    ("BASIS\ne x\nDEGREES\n0 0\nMU 2\ne x -> 2 * z\n", 6),
    ("BASIS\ne\nDEGREES\n0\nMU\ne e -> e\n", 5),
    ("BASIS\ne\nDEGREES\n0\nMU 2\ne e -> e\ne -> e\n", 7),
    ("BASIS\ne\nMU 2\ne e -> e\n", None),
    ("DEGREES\n0\n", None),
], ids=["degree", "degree-count", "duplicate-generator", "tvar", "pi-rank",
        "mu-arity", "zero-denominator", "odd-square", "t-exponent",
        "q-section", "p-section", "geometry-section", "unknown-unit",
        "empty-unit", "negative-arity", "mu-degree-law",
        "curvature-valuation", "trailing-comma", "empty-right-hand-side",
        "leading-comma", "unknown-output", "mu-without-arity",
        "mu-input-count", "no-degrees", "no-basis"])
def test_malformed_instance_exit_2_with_line(tmp_path, capsys, text, line):
    """Each malformed file is a parse error at its line; a missing BASIS or
    DEGREES section belongs to no line."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code = main(["check-ainfty", str(path), "--weight", "1"])
    out = capsys.readouterr()
    assert code == 2
    error = json.loads(out.out)["error"]
    if line is None:
        assert error == "BASIS and DEGREES sections are required"
    else:
        assert error.startswith(f"line {line}: ")
    assert "Traceback" not in out.out + out.err


@pytest.mark.parametrize("head,text,line", [
    ("PI", "PI\nrank 0\nPI\nrank 0\nBASIS\ne\nDEGREES\n0\n", 3),
    ("TVARS", "TVARS\n0\nTVARS\n0\nBASIS\ne\nDEGREES\n0\n", 3),
    ("BASIS", "BASIS\ne\nBASIS\ne x\nDEGREES\n0 1\n", 3),
    ("DEGREES", "BASIS\ne\nDEGREES\n0\nDEGREES\n0\n", 5),
    ("UNIT", "BASIS\ne\nDEGREES\n0\nUNIT\ne\nUNIT\ne\n", 7),
], ids=["PI", "TVARS", "BASIS", "DEGREES", "UNIT"])
def test_repeated_section_exit_2_at_its_second_header(tmp_path, capsys,
                                                      head, text, line):
    """A repeated section would silently replace the first; it is an error
    at the second header.  ``MU k`` sections may repeat."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code = main(["check-ainfty", str(path), "--weight", "1"])
    out = capsys.readouterr()
    assert code == 2
    assert json.loads(out.out)["error"] == (
        f"line {line}: repeated {head} section")
    path.write_text("BASIS\ne x\nDEGREES\n0 1\nMU 2\ne e -> e\n"
                    "MU 2\ne x -> x\nMU 2\ne e -> e\n")
    A = parse_instance(str(path))
    assert A.mu(("e", "x")) == Element.generator(A.module, "x")
    assert A.mu(("e", "e")) == Element.generator(A.module, "e", 2)


def test_non_homogeneous_operation_exit_2_at_its_first_line(tmp_path,
                                                            capsys):
    """Each operation is checked once, in the AInfty constructor; a
    coefficient with no single degree is reported at the first line of its
    key, not at a later line adding to it."""
    path = tmp_path / "bad.txt"
    path.write_text("PI\nrank 1\nomega 1\nmaslov 2\nBASIS\ne x\n"
                    "DEGREES\n0 1\nMU 2\ne x -> x\ne e -> e\n"
                    "e x -> T^[1] * x\n")
    code = main(["check-ainfty", str(path), "--weight", "1"])
    out = capsys.readouterr()
    assert code == 2
    assert json.loads(out.out)["error"] == (
        "line 10: degree of a non-homogeneous scalar")
    assert "Traceback" not in out.out + out.err


@pytest.mark.parametrize("argv", [
    ["check-ainfty", "dual_numbers", "--energy", "abc"],
    ["check-ainfty", "dual_numbers", "--weight", "-1"],
    ["homology", "dual_numbers", "--dmin", "3", "--dmax", "1"],
    ["t-lemma", "dual_numbers", "--trials", "-5"],
    ["t-lemma", "dual_numbers", "--trials", "0"],
    ["t-lemma", "dual_numbers", "--weight", "0", "--trials", "3"],
    ["sign-lemmas", "--k", "-2", "--trials", "-1"],
    ["sign-lemmas", "--trials", "-1"],
    ["expand-structure", "--k", "-1", "--l", "1"],
    ["expand-structure", "--k", "1", "--l", "-1"],
], ids=["energy", "weight", "degree-window", "negative-trials",
        "zero-trials", "zero-t-lemma-weight", "negative-sign-lemma-k",
        "negative-sign-lemma-trials", "negative-k", "negative-l"])
def test_malformed_arguments_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize("energy,reason", [
    ("1/0", "not a rational number: '1/0'"),
    ("abc", "not a rational number: 'abc'"),
    ("-1", "must be nonnegative, got -1"),
], ids=["zero-denominator", "not-a-number", "negative"])
def test_malformed_energy_is_an_error_of_the_option(capsys, energy, reason):
    """A malformed energy cap is reported by the subcommand's parser under
    the option's name, like a malformed ``--trials``."""
    with pytest.raises(SystemExit) as exc:
        main(["check-ainfty", "curved_matrix", "--energy", energy])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "usage: hochcyc check-ainfty" in err
    assert err.splitlines()[-1] == (
        f"hochcyc check-ainfty: error: argument --energy: {reason}")


@pytest.mark.parametrize("argv", [["check-ainfty", "dual_numbers"],
                                  ["dsquare", "dual_numbers"],
                                  ["verify-theorems"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("option", ["--weight", "--vars"])
def test_negative_cap_is_an_error_of_the_option(capsys, argv, option):
    """A negative weight or variable cap is reported by the subcommand's
    parser under the option's name, like a negative ``--energy``."""
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, "-1"])
    err = capsys.readouterr().err
    prog = f"hochcyc {argv[0]}"
    assert exc.value.code == 2
    assert f"usage: {prog}" in err
    assert err.splitlines()[-1] == (
        f"{prog}: error: argument {option}: must be at least 0, got -1")


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
