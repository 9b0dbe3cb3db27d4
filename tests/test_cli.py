import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "orcohom.cli"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def test_unknown_subcommand_exits_2():
    res = run_cli("frobnicate")
    assert res.returncode == 2
    assert "usage" in res.stderr.lower()


def test_malformed_json_exits_2_with_position():
    res = run_cli("cohomology", "--space", '{"Pn": }')
    assert res.returncode == 2
    assert "position" in res.stderr


# the shared flags each subcommand used to accept and ignore
UNREAD_FLAGS = {
    "--seed": ["fgl-check", "fgl-lazard", "cohomology", "restriction", "hopf-primitives",
               "thom-decompose", "telescope", "conner-floyd", "schema"],
    "--theory": ["fgl-check", "fgl-lazard", "hopf-primitives", "thom-decompose", "tower", "telescope",
                 "conner-floyd", "schema"],
    "--input": ["fgl-lazard", "restriction", "hopf-primitives", "thom-decompose", "conner-floyd",
                "schema"],
    "--truncation": ["tower", "telescope", "schema"],
}


@pytest.mark.parametrize("command, flag", [(c, f) for f, cs in UNREAD_FLAGS.items() for c in cs])
def test_unread_flags_are_argument_errors(capsys, command, flag):
    from orcohom import cli

    required = ["--bigger", "{}", "--smaller", "{}"] if command == "restriction" else []
    value = "additive" if flag == "--theory" else "1"
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([command, *required, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_missing_input_exits_2():
    res = run_cli("tower")
    assert res.returncode == 2


def test_grassmannian_csv_rank_table():
    res = run_cli("cohomology", "--space", '{"Grassmannian":{"m":2,"n":4}}',
                  "--theory", "additive", "--truncation", "8", "--format", "csv")
    assert res.returncode == 0
    rows = [line.split(",") for line in res.stdout.strip().splitlines()]
    assert rows[0] == ["weight", "rank"]
    ranks = [int(r[1]) for r in rows[1:]]
    assert ranks[:5] == [1, 1, 2, 1, 1]


def test_fgl_check_multiplicative_passes():
    res = run_cli("fgl-check", "--law", "multiplicative", "--truncation", "8",
                  "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["axioms"]["passed"] and data["inverse_identity"]


def test_fgl_check_reports_the_universal_logarithm(tmp_path):
    # the logarithm of g(g^-1(x) + g^-1(y)) is g^-1 = x - b1 x^2 + ...,
    # integral although its recurrence divides by k + 1
    from orcohom.fgl import universal_law
    from orcohom.serialize import base_ring_to_json, poly_to_json

    law = universal_law(3)
    path = tmp_path / "law.json"
    path.write_text(json.dumps({"base": base_ring_to_json(law.base), "truncation": law.truncation,
                                "series": poly_to_json(law.series, (1, 1), 2)}))
    res = run_cli("fgl-check", "--input", str(path), "--format", "json")
    assert res.returncode == 0, res.stderr
    log = dict((tuple(m), c) for m, c in json.loads(res.stdout)["logarithm"])
    assert log[(1, 0)] == '[[[0,0,0],"1"]]'
    assert log[(2, 0)] == '[[[1,0,0],"-1"]]'
    assert log[(3, 0)] == '[[[2,0,0],"2"],[[0,1,0],"-1"]]'


def test_fgl_check_reports_no_logarithm_over_z_mod_4(tmp_path):
    # x + y + 2xy over Z/4: dividing by 2 has no unique quotient, so the
    # logarithm is unavailable and the law is still valid (exit 0)
    law = {"base": {"kind": "IntegersModuloN", "n": 4},
           "series": [[[1, 0], "1"], [[0, 1], "1"], [[1, 1], "2"]], "truncation": 6, "beta": None}
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(law))
    res = run_cli("fgl-check", "--input", str(path), "--format", "json")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["logarithm"] == "unavailable: integer division fails at weight 2"


def test_fgl_check_invalid_law_exits_1(tmp_path):
    bad = {
        "base": {"kind": "Integers"},
        "series": [[[2, 2], "1"], [[1, 0], "1"], [[0, 1], "1"]],
        "truncation": 6,
        "beta": None,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    res = run_cli("fgl-check", "--input", str(path), "--format", "json")
    assert res.returncode == 1
    data = json.loads(res.stdout)
    assert not data["axioms"]["associative"]


def test_conner_floyd_verdict_and_exit():
    res = run_cli("conner-floyd", "--space", '{"Pn":2}', "--truncation", "6",
                  "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["verdict"] == "isomorphism"


def test_byte_determinism():
    args = ("cohomology", "--space", '{"Flag":{"n":3}}', "--truncation", "6",
            "--format", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0
    pretty = ("hopf-primitives", "--truncation", "4")
    assert run_cli(*pretty).stdout == run_cli(*pretty).stdout


def test_tower_random_checks_deterministic():
    args = ("tower", "--random-check", "surjective", "--trials", "5",
            "--seed", "11", "--format", "json")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0 and a.stdout == b.stdout
    res = run_cli("tower", "--random-check", "split", "--trials", "3",
                  "--seed", "7", "--format", "json")
    assert res.returncode == 0


@pytest.mark.parametrize("check, trials", [("split", "0"), ("surjective", "-3")])
def test_random_checks_refuse_fewer_than_one_trial(check, trials):
    # zero trials used to report "ok": true over nothing
    res = run_cli("tower", "--random-check", check, "--trials", trials, "--format", "json")
    assert res.returncode == 2, res.stdout
    assert res.stdout == ""
    assert f"--trials must be at least 1, got {trials}" in res.stderr


def test_tower_from_file(tmp_path):
    doc = {
        "stages": [{"0": {"ngens": 1, "relations": [[8]]}}] * 4,
        "maps": [{"0": [[2]]}] * 3,
        "periodicity": [0, 1],
        "surjectivity": None,
    }
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    res = run_cli("tower", "--input", str(path), "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    entry = data["weights"][0]
    assert entry["lim"]["rank"] == 0 and entry["lim1"]["rank"] == 0


def test_undecidable_tower_exits_2(tmp_path):
    doc = {
        "stages": [{"0": {"ngens": 1, "relations": []}}] * 3,
        "maps": [{"0": [[2]]}] * 2,
        "periodicity": None,
        "surjectivity": None,
    }
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    res = run_cli("tower", "--input", str(path))
    assert res.returncode == 2
    assert "input error" in res.stderr


@pytest.mark.parametrize("flags", [[True, True], [False], "no", ["no"], [1], [[True]]], ids=repr)
def test_surjectivity_key_is_read_as_absent(tmp_path, flags):
    # Z <-2- Z <-2- Z is not onto: whatever an old "surjectivity" key
    # declares, the answer is the partial one of the document without it,
    # never lim = Z flagged exact
    doc = {
        "stages": [{"0": {"ngens": 1, "relations": []}}] * 3,
        "maps": [{"0": [[2]]}] * 2,
        "periodicity": [0, 1],
    }
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    plain = run_cli("tower", "--input", str(path), "--format", "json")
    path.write_text(json.dumps({**doc, "surjectivity": flags}))
    res = run_cli("tower", "--input", str(path), "--format", "json")
    assert res.returncode == plain.returncode == 0
    assert res.stdout == plain.stdout
    lim = json.loads(res.stdout)["weights"][0]["lim"]
    assert lim["exact"] is False
    assert lim["note"] == "partial: window determinant 2; limit is an adic object"


def test_periodic_window_must_be_stored(tmp_path):
    # Z -2-> Z -1-> Z stores two maps of the declared three-map window;
    # the telescope used to answer "2 inverted", flagged exact
    doc = {"stages": [{"0": {"ngens": 1, "relations": []}}] * 3,
           "maps": [{"0": [[2]]}, {"0": [[1]]}], "periodicity": [0, 3]}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    for command in ("tower", "telescope"):
        res = run_cli(command, "--input", str(path))
        assert res.returncode == 2, command
        assert "stored stages do not cover the periodic window" in res.stderr
        assert res.stdout == ""


def test_internal_error_exits_3(monkeypatch, capsys):
    from orcohom import cli

    def broken(args):
        raise ArithmeticError("image chain failed to stabilize")

    monkeypatch.setattr(cli, "run_schema", broken)
    assert cli.main(["schema", "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: ArithmeticError: image chain failed to stabilize\n"


def test_telescope_from_file(tmp_path):
    doc = {
        "stages": [{"0": {"ngens": 1, "relations": []}}] * 4,
        "maps": [{"0": [[2]]}] * 3,
        "periodicity": [0, 1],
    }
    path = tmp_path / "tele.json"
    path.write_text(json.dumps(doc))
    res = run_cli("telescope", "--input", str(path), "--format", "json")
    data = json.loads(res.stdout)
    assert data["weights"][0]["colimit"]["localized_at"] == 2


@pytest.mark.parametrize("command", ["tower", "telescope"])
@pytest.mark.parametrize("field, value", [
    ("relation", 2.5), ("relation", "6"), ("ngens", True), ("map", 1.0), ("periodicity", "0"),
])
def test_non_integer_system_entries_exit_2(tmp_path, command, field, value):
    # a relation entry 2.5 used to be read as 2, and the stage as Z/2
    stage = {"0": {"ngens": 1, "relations": [[4]]}}
    doc = {"stages": [stage] * 3, "maps": [{"0": [[1]]}] * 2, "periodicity": [0, 1]}
    if field == "relation":
        doc["stages"] = [{"0": {"ngens": 1, "relations": [[value]]}}] * 3
    elif field == "ngens":
        doc["stages"] = [{"0": {"ngens": value, "relations": [[4]]}}] * 3
    elif field == "map":
        doc["maps"] = [{"0": [[value]]}] * 2
    else:
        doc["periodicity"] = [value, 1]
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    res = run_cli(command, "--input", str(path))
    assert res.returncode == 2
    assert "must be an integer" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("command", ["tower", "telescope"])
@pytest.mark.parametrize("change, message", [
    # these used to print Python's unpacking and int() errors; [] meant no window
    ({"periodicity": [0]}, "periodicity must be [k0, rho] or null, got [0]"),
    ({"periodicity": [0, 1, 5]}, "periodicity must be [k0, rho] or null, got [0, 1, 5]"),
    ({"periodicity": []}, "periodicity must be [k0, rho] or null, got []"),
    ({"stages": [{"x": {"ngens": 1, "relations": []}}] * 3},
     "weight key must be an integer, got 'x'"),
    ({"maps": [{"x": [[1]]}] * 2}, "weight key must be an integer, got 'x'"),
    # a negative generator count used to be answered as an exact rank 0
    ({"stages": [{"0": {"ngens": -2, "relations": []}}] * 3, "maps": [{}] * 2},
     "generator count must be nonnegative, got -2"),
], ids=repr)
def test_malformed_system_shape_exits_2(tmp_path, command, change, message):
    doc = {"stages": [{"0": {"ngens": 1, "relations": []}}] * 3, "maps": [{"0": [[1]]}] * 2,
           "periodicity": [0, 1], **change}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    res = run_cli(command, "--input", str(path))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"input error: {message}\n"


Z1, Z2 = {"ngens": 1, "relations": []}, {"ngens": 2, "relations": []}


@pytest.mark.parametrize("command, change, key", [
    # "0" and "-0" used to read as one weight, the later piece Z^2 winning: rank 2, exit 0
    ("tower", {"stages": [{"0": Z1, "-0": Z2}] * 2, "maps": [{"0": [[1, 0], [0, 1]]}]}, "-0"),
    ("telescope", {"stages": [{"1": Z1, "01": Z2}] * 2, "maps": [{"1": [[1, 0], [0, 1]]}]}, "01"),
    ("tower", {"maps": [{"0": [[1]], "00": [[2]]}]}, "00"),
], ids=["tower-stage", "telescope-stage", "map"])
def test_ambiguous_weight_keys_exit_2(tmp_path, command, change, key):
    doc = {"stages": [{"0": Z1}] * 2, "maps": [{"0": [[1]]}], "periodicity": [0, 1], **change}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    res = run_cli(command, "--input", str(path))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"input error: weight key must be written {int(key)}, got {key!r}\n"


def test_telescope_input_is_checked_like_a_tower(tmp_path):
    # maps 2, 1, 1 on Z are not periodic from stage 0
    doc = {"stages": [{"0": {"ngens": 1, "relations": []}}] * 4,
           "maps": [{"0": [[2]]}, {"0": [[1]]}, {"0": [[1]]}], "periodicity": [0, 1]}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    for command in ("tower", "telescope"):
        res = run_cli(command, "--input", str(path))
        assert res.returncode == 2
        assert "declared periodicity fails on map 0" in res.stderr
    # 1: Z/4 -> Z/6 sends the relation 4 to 4, which is not 0 in Z/6
    doc = {"stages": [{"0": {"ngens": 1, "relations": [[4]]}}, {"0": {"ngens": 1, "relations": [[6]]}}],
           "maps": [{"0": [[1]]}]}
    path.write_text(json.dumps(doc))
    res = run_cli("telescope", "--input", str(path))
    assert res.returncode == 2
    assert "map 0 does not respect relations in weight 0" in res.stderr


def test_restriction_subcommand():
    res = run_cli("restriction", "--bigger", '{"Pn":2}', "--smaller", '{"Pn":1}',
                  "--truncation", "6", "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert all(e["surjective"] for e in data["surjectivity"])


def test_restriction_apply_and_iso_gate():
    res = run_cli("restriction", "--bigger", '{"Pn":2}', "--smaller", '{"Pn":1}',
                  "--truncation", "6", "--apply", '[[[2],"1"]]', "--iso",
                  "--format", "json")
    # the restriction is well defined but not bijective, so --iso gates to 1
    assert res.returncode == 1
    data = json.loads(res.stdout)
    assert data["applied"] == "0"
    assert data["isomorphism"] is False
    identity = run_cli("restriction", "--bigger", '{"Pn":1}', "--smaller", '{"Pn":1}',
                       "--truncation", "6", "--iso", "--format", "json")
    assert identity.returncode == 0


def test_cohomology_reduce_flag():
    res = run_cli("cohomology", "--space", '{"Pn":3}', "--truncation", "6",
                  "--reduce", '[[[5],"1"],[[1],"2"]]', "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["reduced_pretty"] == "(2)*l"


@pytest.mark.parametrize("coefficient", ['"1"', r'"[[[0,0,0,0,0,0,0,0,0,3],\"1\"]]"'],
                         ids=["plain-string", "long-exponent-vector"])
def test_universal_coefficient_must_be_a_term_list(coefficient):
    # a universal-theory coefficient is itself a polynomial over Z in
    # b1..b4, the generators of weight at most 4
    res = run_cli("cohomology", "--space", '{"Pn":2}', "--theory", "universal", "--truncation", "4",
                  "--reduce", f'[[[2],{coefficient}]]')
    assert res.returncode == 2
    assert f"coefficient {json.loads(coefficient)!r} is not a term list" in res.stderr
    assert '[[exponents, "coefficient"], ...] with at most 4 exponents' in res.stderr


def test_universal_coefficients_are_b_polynomials():
    # a1_1 = 2*b1, and a coefficient given over b1..b4 reads back unchanged
    res = run_cli("cohomology", "--space", '{"Product":[{"Pinf":true},{"Pinf":true}]}',
                  "--theory", "universal", "--truncation", "4", "--tensor", "l,l'",
                  "--reduce", r'[[[1,1],"[[[2,0,0,0],\"-3\"],[[0,1,0,0],\"1\"]]"]]',
                  "--format", "json")
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert '([[[1,0,0,0],"2"]])*l*l\'' in data["tensor_class"]
    assert data["reduced"] == [[[1, 1], '[[[2,0,0,0],"-3"],[[0,1,0,0],"1"]]']]


@pytest.mark.parametrize("terms", ['[[[-1],"1"]]', '[[[1.5],"1"]]', '[[[true],"1"]]',
                                   '[[[1],"1"],[[1],"2"]]', '[[[1],"1"],[[1,0],"2"]]'],
                         ids=["negative", "fraction", "bool", "repeated", "repeated-padded"])
def test_polynomial_exponents_must_be_distinct_non_negative_integers(terms):
    # -1 used to print l, 1.5 printed l^1.5, and a repeated exponent
    # vector silently dropped the earlier term
    res = run_cli("cohomology", "--space", '{"Pn":2}', "--reduce", terms)
    assert res.returncode == 2, res.stdout
    assert res.stdout == ""
    assert "exponent" in res.stderr


def test_cohomology_tensor_flag():
    res = run_cli("cohomology", "--space", '{"Product":[{"Pinf":true},{"Pinf":true}]}',
                  "--theory", "multiplicative", "--truncation", "6",
                  "--tensor", "l,l'", "--format", "json")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert "l*l'" in data["tensor_class"]


def test_invariance_option_is_refused():
    # the invariant-subring check is a test oracle now, not a CLI option
    res = run_cli("cohomology", "--space", '{"BGL":4}', "--invariance", "4", "--format", "json")
    assert res.returncode == 2, res.stdout
    assert res.stdout == ""
    assert "unrecognized arguments: --invariance 4" in res.stderr


def test_cohomology_input_file_is_parsed_once(tmp_path, capsys, monkeypatch):
    from orcohom import cli

    doc = {"Grassmannian": {"m": 2, "n": 4}}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    calls = []
    load = cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda *a: calls.append(a) or load(*a))
    assert cli.main(["cohomology", "--input", str(path), "-D", "4", "--format", "json"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["space"] == doc


SPLIT_DOC = {
    # Y = Z/4 + Z/3 retracting onto Z = Z/4; the complement is Z/3
    "Y": {"stages": [{"0": {"ngens": 2, "relations": [[4, 0], [0, 3]]}}] * 2,
          "maps": [{"0": [[1, 0], [0, 0]]}], "periodicity": [0, 1]},
    "Z": {"stages": [{"0": {"ngens": 1, "relations": [[4]]}}] * 2,
          "maps": [{"0": [[1]]}], "periodicity": [0, 1]},
    "r": {"0": [[1, 0]]},
    "s": {"0": [[1], [0]]},
}


def test_tower_compare_reports_the_complement(tmp_path, capsys):
    from orcohom import cli

    path = tmp_path / "split.json"
    path.write_text(json.dumps(SPLIT_DOC))
    assert cli.main(["tower", "--compare", "--input", str(path), "--format", "json"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["comparison"]["per_weight"]
    assert (entry["complement_rank"], entry["complement_torsion"]) == (0, [3])
    # one limit, computed on Z: the comparison no longer computes Y's
    assert (entry["lim"]["rank"], entry["lim"]["torsion"], entry["lim"]["exact"]) == (0, [4], True)
    assert not {"limits_agree", "lim_Y", "lim_Z", "complement_self_map_zero"} & set(entry)


def test_tower_compare_of_a_mixed_y_exits_0(tmp_path, capsys):
    # Y = Z + Z/2 under the projection onto Z, Z = Z under 1: r s = 1 and
    # f = s g r hold, so the comparison passes with lim = Z exactly (it
    # exited 1 while it compared Y's partial limits with Z's)
    from orcohom import cli

    def tower(stage, f):
        return {"stages": [{"0": stage}] * 2, "maps": [{"0": f}], "periodicity": [0, 1]}

    doc = {"Y": tower({"ngens": 2, "relations": [[0, 2]]}, [[1, 0], [0, 0]]),
           "Z": tower({"ngens": 1, "relations": []}, [[1]]),
           "r": {"0": [[1, 0]]}, "s": {"0": [[1], [0]]}}
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["tower", "--compare", "--input", str(path), "--format", "json"]) == 0
    comparison = json.loads(capsys.readouterr().out)["comparison"]
    (entry,) = comparison["per_weight"]
    assert comparison["ok"] and (entry["complement_rank"], entry["complement_torsion"]) == (0, [2])
    assert (entry["lim"]["rank"], entry["lim"]["torsion"], entry["lim"]["exact"]) == (1, [], True)
    assert (entry["lim1"]["rank"], entry["lim1"]["torsion"], entry["lim1"]["exact"]) == (0, [], True)


def _ill_defined_split_doc(name):
    """A split document in which only the named map ignores relations."""
    if name == "g":
        # Y = Z = Z/2 + Z; g = (a, b) -> (0, a) sends the relation (2, 0) to (0, 2)
        both = {"stages": [{"0": {"ngens": 2, "relations": [[2, 0]]}}] * 2,
                "maps": [{"0": [[1, 0], [0, 1]]}], "periodicity": [0, 1]}
        ident = {"0": [[1, 0], [0, 1]]}
        return {"Y": both, "Z": both, "r": ident, "s": ident, "g": {"0": [[0, 0], [1, 0]]}}
    # r = (1, 1) sends the relation (0, 3) to 3, outside 4Z; s = (1, 1) sends 4 to (4, 4)
    return {**SPLIT_DOC, name: {"0": {"r": [[1, 1]], "s": [[1], [1]]}[name]}}


@pytest.mark.parametrize("name", ["r", "s", "g"])
def test_tower_compare_ill_defined_map_exits_2(tmp_path, capsys, name):
    from orcohom import cli

    path = tmp_path / "split.json"
    path.write_text(json.dumps(_ill_defined_split_doc(name)))
    assert cli.main(["tower", "--compare", "--input", str(path), "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"input error: {name} does not respect relations in weight 0" in err


def test_cohomology_tensor_names_an_unknown_generator():
    res = run_cli("cohomology", "--space", '{"Pn":2}', "--tensor", "l,zz", "--format", "json")
    assert res.returncode == 2, res.stdout
    assert res.stdout == ""
    assert "unknown generator 'zz'; the ring's generators are l" in res.stderr
    res = run_cli("cohomology", "--space", '{"Flag":{"n":3}}', "--tensor", "l,l1", "--format", "json")
    assert res.returncode == 2
    assert "unknown generator 'l'; the ring's generators are l1, l2, l3" in res.stderr


def test_every_result_carries_the_schema_version(tmp_path, capsys):
    from orcohom import cli

    path = tmp_path / "system.json"
    path.write_text(json.dumps({"stages": [{"0": {"ngens": 1, "relations": []}}] * 2,
                                "maps": [{"0": [[1]]}], "periodicity": [0, 1]}))
    small = ["--truncation", "3"]
    runs = [["fgl-check", *small], ["fgl-lazard", "--truncation", "3", "--bound", "3"],
            ["cohomology", "--space", '{"Pn":2}', *small],
            ["restriction", "--bigger", '{"Pn":2}', "--smaller", '{"Pn":1}', *small],
            ["hopf-primitives", *small], ["thom-decompose", *small],
            ["tower", "--random-check", "split", "--trials", "1"],
            ["tower", "--random-check", "surjective", "--trials", "1"],
            ["tower", "--input", str(path)], ["telescope", "--input", str(path)],
            ["conner-floyd", "--space", '{"Pn":1}', *small], ["schema"]]
    for argv in runs:
        assert cli.main([*argv, "--format", "json"]) == 0, argv
        assert json.loads(capsys.readouterr().out)["schemaVersion"] == 1, argv


def test_schema_subcommand():
    res = run_cli("schema", "--format", "json")
    data = json.loads(res.stdout)
    assert data["schemaVersion"] == 1
    assert "operationCoverage" in data


def test_conner_floyd_suite_byte_deterministic():
    args = ("conner-floyd", "--suite", "--truncation", "4", "--format", "json")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# determinism fixtures: the sha256 of stdout of commands whose outputs
# carry b-polynomial coefficients, Lazard relations and Laurent images,
# so a change to coefficient arithmetic that moves a byte shows here
STDOUT_DIGESTS = [
    ("fgl-lazard-D9", ("fgl-lazard", "-D", "9", "--bound", "9"),
     "75c7d7c4292f89e07ccbad9ae07657ab9aa2567dc0e3b7577845d3c180160627"),
    ("conner-floyd-suite-D8", ("conner-floyd", "--suite"),
     "be90fc3226546166f1344ea50c89bf35b59d2fe600c9398d07d9e65374e59461"),
    ("conner-floyd-suite-D12", ("conner-floyd", "--suite", "--truncation", "12"),
     "7ab4e204a852a73c75950ffff8178bc742f5aec1167a65b516b82efce22d2b3a"),
    ("conner-floyd-flag4-D10", ("conner-floyd", "--space", '{"Flag":{"n":4}}', "-D", "10"),
     "0a0d80270a8e0f32890417f4be25e07cf7fb135bd2d3becc18d99c0c46afb418"),
    ("cohomology-universal-P3",
     ("cohomology", "--space", '{"Pn":3}', "--theory", "universal", "-D", "6"),
     "6084da5516dcf47c340e82c272307292e39e68ce7b837d79eae4bd1bfec190d7"),
    ("cohomology-universal-tensor",
     ("cohomology", "--space", '{"Product":[{"Pinf":true},{"Pinf":true}]}', "--theory", "universal",
      "-D", "6", "--tensor", "l,l'"),
     "b6c78dba0cb1cdde0b3322c6a158ecabb7460066db33d68fc2dcc3ff913a9048"),
    ("restriction-universal",
     ("restriction", "--bigger", '{"Pn":3}', "--smaller", '{"Pn":2}', "--theory", "universal",
      "-D", "6"),
     "96cc20708244e3dca009218751ee59405203d2ac58f2823933e1bc3823e56b9c"),
    ("restriction-iso-universal-BGL3",
     ("restriction", "--bigger", '{"BGL":3}', "--smaller", '{"BGL":3}', "--theory", "universal",
      "-D", "8", "--iso"),
     "58f5f14fb8993c48ee4e51f486cebcc265594510237d01708ad273c770f1e857"),
    ("restriction-iso-multiplicative-P4",
     ("restriction", "--bigger", '{"Pn":4}', "--smaller", '{"Pn":4}', "--theory", "multiplicative",
      "--iso"),
     "ba76b7bbaa2846109a6f35e626b2c1ec252e792f264f3dff51538c61a7fcfdcd"),
    ("fgl-check-multiplicative", ("fgl-check", "--law", "multiplicative"),
     "ed689714ef824a64ec0b4a4110be743f95a33ec6a681732c4510813b123ad58e"),
    ("hopf-primitives-D12", ("hopf-primitives", "-D", "12"),
     "b40bf00781d50a67cb9fdfd90d550b43a34c324020a1a1f1ea128e1a613d66c5"),
    ("thom-decompose-D12", ("thom-decompose", "-D", "12"),
     "a0f4aeb2552637760b47d63ae9fe8485369a2915e238b9d586b14404ad36481c"),
    ("fgl-lazard-D12", ("fgl-lazard", "-D", "12", "--bound", "12"),
     "bfca8c35044fcc581e2d85539af207c1196e9efec2b97264e56ae1e9060dc0b3"),
    # both reduction routes through --reduce and --tensor: degreewise with
    # the non-unit pivot of Gr(4,8) in weight 11, rewrite on Flag(4),
    # degreewise over the Laurent base and over the universal coefficients
    ("cohomology-reduce-Gr48",
     ("cohomology", "--space", '{"Grassmannian":{"m":4,"n":8}}', "-D", "12",
      "--reduce", '[[[1,1,0,2],"3"],[[0,0,0,3],"1"],[[12,0,0,0],"1"]]'),
     "db919acbe4329704b61fea9b376183a6c5abe2a54e14ddbdf83e7404b7d9a754"),
    ("cohomology-reduce-Flag4",
     ("cohomology", "--space", '{"Flag":{"n":4}}', "-D", "6",
      "--reduce", '[[[3,0,0,0],"1"],[[1,1,1,0],"-2"],[[0,0,0,6],"1"]]'),
     "d2084f1bde15d909ed4d85fedaafc5a8914ec0e10eafb2c77a8c0ef692a5c91a"),
    ("cohomology-reduce-multiplicative-Gr25",
     ("cohomology", "--space", '{"Grassmannian":{"m":2,"n":5}}', "--theory", "multiplicative",
      "-D", "6", "--reduce", '[[[3,0],"2@1"],[[0,3],"1@0"]]'),
     "2dc36bebba0a373c83b590d9bd17eabf83fd4ea9d4735ffafa4c06198c5c8035"),
    ("cohomology-universal-tensor-Gr24",
     ("cohomology", "--space", '{"Grassmannian":{"m":2,"n":4}}', "--theory", "universal",
      "-D", "6", "--tensor", "s1,s1"),
     "72dd6ffa7cd118ed53b7359dbe806edc9c6f7366fbb6e2aef96bbb7036be3b63"),
]

# the default (pretty) format
PRETTY_DIGESTS = [
    ("fgl-lazard-D9", ("fgl-lazard", "-D", "9", "--bound", "9"),
     "51144f202daae1865858504a5a69b4d9f9342f2f0377c37609683a2de0d021cd"),
    ("hopf-primitives-D12", ("hopf-primitives", "-D", "12"),
     "3782e8af18d5254f03b4c4ad94feadb412f7dc1a7a8b92a3b9173d549b6e92ad"),
]


@pytest.mark.parametrize("name, args, digest", STDOUT_DIGESTS, ids=[n for n, _, _ in STDOUT_DIGESTS])
def test_stdout_digests_are_pinned(name, args, digest):
    res = run_cli(*args, "--format", "json")
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, args, digest", PRETTY_DIGESTS, ids=[n for n, _, _ in PRETTY_DIGESTS])
def test_pretty_stdout_digests_are_pinned(name, args, digest):
    res = run_cli(*args)
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


def test_failing_fgl_check_stdout_is_pinned(tmp_path):
    # x + y + x^2 + 3xy^2 fails all three axioms, each at its lowest monomial
    law = {"base": {"kind": "Integers"}, "series": [[[1, 0], "1"], [[0, 1], "1"], [[2, 0], "1"], [[1, 2], "3"]],
           "truncation": 5, "beta": None}
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law))
    res = run_cli("fgl-check", "--input", str(path), "--format", "json")
    assert res.returncode == 1, res.stderr
    assert [f["axiom"] for f in json.loads(res.stdout)["axioms"]["failures"]] == [
        "unit", "commutativity", "associativity"]
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == (
        "1233f7f10361cba1914a184d33565aa274088f4dfaf65b4b5c1aae984da32821")


def test_pretty_leaves_are_written_as_json_dumps(capsys):
    from orcohom import cli

    leaves = ['say "hi"', "back\\slash", "ctl\n\t\r\x00\x1f\x7f", "caf\u00e9 \u2202 \U0001d54a", "",
              0, -1, -(2 ** 70), 10 ** 40, True, False, None, [], {}]
    nested = {f"k{i:02}": v for i, v in enumerate(leaves)}
    cli._emit_pretty({"leaf": leaves, "nested": nested})
    want = (["leaf:"] + [f"  - {json.dumps(v, sort_keys=True)}" for v in leaves]
            + ["nested:"] + [f"  {k}: {json.dumps(v, sort_keys=True)}" for k, v in nested.items()])
    assert capsys.readouterr().out.splitlines() == want


def test_fgl_lazard_default_flags():
    from oracles import partition_count

    res = run_cli("fgl-lazard", "--format", "json")
    assert res.returncode == 0, res.stderr
    data = json.loads(res.stdout)
    assert data["graded_ranks"] == [partition_count(w) for w in range(9)]
    # lazard_graded_ranks returns p(w) only after proving it, so no second comparison is reported
    assert "partition_numbers" not in data and "matches_partition_numbers" not in data
    res = run_cli("fgl-lazard", "--format", "csv")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == "weight,rank"
    assert len(res.stdout.splitlines()) == 10


def test_cli_import_loads_only_the_standard_library():
    code = ("import sys; before = set(sys.modules); import orcohom.cli; "
            "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(new - set(sys.stdlib_module_names) - {'orcohom'}))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_cli_import_skips_the_dataclasses_chain():
    # dataclasses pulls in inspect, ast, dis and tokenize, a measurable
    # share of every cold call; -S keeps site hooks from loading them first
    code = ("import sys, orcohom.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_operation_coverage_complete_and_disjoint():
    from orcohom.cli import OPERATION_COVERAGE

    expected = {
        "normal_form", "graded_basis", "apply", "is_graded_isomorphism",
        "make_additive", "make_multiplicative", "check_axioms", "formal_inverse",
        "n_series", "logarithm", "lazard_ring", "lazard_graded_ranks", "classifying_map",
        "cohomology", "chern_tensor", "restriction_map", "homology_dual",
        "build_hopf", "primitives", "additive_maps_identification", "indecomposables",
        "thom_decompose", "thom_product_check", "thom_iso_check",
        "telescope_colimit", "tower_limit_and_lim1", "split_tower_compare",
        "cobordism_presentation", "verify_conner_floyd",
        "schema",
    }
    seen = [op for ops in OPERATION_COVERAGE.values() for op in ops]
    assert len(seen) == len(set(seen)), "operations must map to exactly one subcommand"
    assert expected <= set(seen)


def _base(coefficients, truncation=8, weight=1):
    """A bundle base ring on one generator l with no relations."""
    return {"base": coefficients, "relations": [], "truncation": truncation,
            "variables": [["l", weight]]}


@pytest.mark.parametrize("space, message", [
    ({"Pn": 2.7}, "Pn must be an integer, got 2.7"),
    ({"Pn": True}, "Pn must be an integer, got True"),
    ({"BGL": 2.5}, "BGL must be an integer, got 2.5"),
    ({"Grassmannian": {"m": 2, "n": 4.0}}, "Grassmannian n must be an integer, got 4.0"),
    ({"Flag": {"n": 2.9}}, "Flag n must be an integer, got 2.9"),
    ({"ProjectiveBundle": {"rank": "2"}}, "ProjectiveBundle rank must be an integer, got '2'"),
    # a Chern class without a base ring used to be dropped, answering
    # the trivial flag's ranks
    ({"Flag": {"n": 3, "chern": [[[[1], "1"]]]}}, "nonzero Chern classes need a bundle base ring"),
    # a missing field used to print only "'n'", a non-object payload a
    # TypeError text, and a one-factor product an IndexError with exit 3
    ({"Grassmannian": {"m": 2}}, "Grassmannian descriptor is missing the field 'n'"),
    ({"Flag": 3}, "Flag descriptor must be an object, got 3"),
    ({"Product": [{"Pn": 1}]}, "Product descriptor must list exactly two factors, got [{'Pn': 1}]"),
    # the base ring's integer fields used to be coerced or compared raw:
    # truncation 8.9 answered at 8, weight 1.7 as 1, modulus 4.5 as Z/4
    ({"Flag": {"n": 2, "base": _base({"kind": "Integers"}, truncation=8.9)}},
     "truncation must be an integer, got 8.9"),
    ({"Flag": {"n": 2, "base": _base({"kind": "Integers"}, weight=1.7)}},
     "weight of variable 'l' must be an integer, got 1.7"),
    ({"Flag": {"n": 2, "base": _base({"kind": "IntegersModuloN", "n": 4.5})}},
     "IntegersModuloN n must be an integer, got 4.5"),
    ({"Flag": {"n": 2, "base": _base({"kind": "IntegersModuloN", "n": "4"})}},
     "IntegersModuloN n must be an integer, got '4'"),
    ({"Flag": {"n": 2, "base": _base({"kind": "LaurentAdjoined", "base": {"kind": "Integers"},
                                      "symbol": "b", "weight": -1.5})}},
     "LaurentAdjoined weight must be an integer, got -1.5"),
    # refusals of spaces.cohomology and its Chern class check
    ({"ProjectiveBundle": {"rank": 1, "base": _base({"kind": "Integers"}),
                           "chern": [[[[1], "1"]], [[[2], "1"]]]}},
     "more Chern classes than the bundle rank"),
    ({"Flag": {"n": 2, "base": _base({"kind": "Integers"}, truncation=3)}},
     "bundle base ring truncated below the requested bound"),
    ({"ProjectiveBundle": {"rank": 5, "base": _base({"kind": "Integers"}),
                           "chern": [[], [], [], [], [[[5], "1"]]]}},
     "Chern class c_5 exceeds the truncation bound 4"),
    ({"Product": [{"Flag": {"n": 1, "base": {**_base({"kind": "Integers"}),
                                             "relations": [[[[1], "2"]]]}}}, {"Pn": 1}]},
     "left factor is not degreewise free; product rejected"),
    ({"BGL": 0}, "classifying space index must be positive"),
    ({"ProjectiveBundle": {"rank": 0}}, "projective bundle needs positive rank"),
], ids=repr)
def test_malformed_space_descriptors_exit_2(capsys, space, message):
    # sizes used to be coerced with int(): {"Pn": 2.7} answered as P^2
    from orcohom import cli

    assert cli.main(["cohomology", "--space", json.dumps(space), "--truncation", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"input error: {message}\n"


def test_group_law_truncation_must_be_an_integer(tmp_path):
    # "truncation": 6.7 used to check the law at 6
    law = {"base": {"kind": "LaurentAdjoined", "base": {"kind": "Integers"}, "symbol": "b", "weight": -1},
           "series": [[[1, 1], "-1@1"], [[1, 0], "1@0"], [[0, 1], "1@0"]],
           "truncation": 6.7, "beta": "1@1"}
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law))
    res = run_cli("fgl-check", "--input", str(path), "--format", "json")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "input error: group law truncation must be an integer, got 6.7\n"


def test_group_law_series_in_three_variables_exits_2(tmp_path):
    # used to exit 3 with an IndexError from truncating the series
    law = {"base": {"kind": "Integers"}, "truncation": 6, "beta": None,
           "series": [[[1, 0, 0], "1"], [[0, 1, 0], "1"], [[0, 0, 1], "1"]]}
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law))
    res = run_cli("fgl-check", "--input", str(path), "--format", "json")
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "input error: law series must involve only the two series variables\n"


def test_zero_chern_classes_need_no_base(capsys):
    from orcohom import cli

    for theory in ("additive", "multiplicative"):
        args = ["cohomology", "--truncation", "4", "--theory", theory, "--format", "json", "--space"]
        assert cli.main(args + ['{"Flag":{"n":3,"chern":[[],[[[1],"0"]]]}}']) == 0
        with_zeros = json.loads(capsys.readouterr().out)
        assert cli.main(args + ['{"Flag":{"n":3}}']) == 0
        plain = json.loads(capsys.readouterr().out)
        assert with_zeros["graded_ranks"] == plain["graded_ranks"] == [1, 2, 2, 1, 0]
