"""Command-line interface: payload schemas, class grid, exit codes."""

import json

import pytest

import classpoly.cli as cli
from classpoly.conjugates import build_extended_classes
from classpoly.errors import CrossCheckError, PoleError, PrecisionExhaustedError
from classpoly.quadforms import CMOrder

from frozen_values import GOLDEN_MINUS_52_LEVEL_5_DESC

GOLDEN_ARGS = [
    "compute",
    "--disc", "-52",
    "--level", "5",
    "--function", "rogers-ramanujan",
    "--precision", "320",
]


def run_cli(capsys, *args):
    rc = cli.main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ----------------------------------------------------------------------
# compute
# ----------------------------------------------------------------------

def test_compute_json_payload(capsys):
    rc, out, _ = run_cli(capsys, *GOLDEN_ARGS, "--format", "json")
    assert rc == 0
    assert out.endswith("\n")
    payload = json.loads(out)
    assert set(payload) == {
        "input", "class_data", "conjugates", "polynomial", "verification",
    }
    assert payload["input"]["discriminant"] == -52
    assert payload["input"]["order"]["conductor"] == 1
    assert payload["class_data"]["reduced_forms"] == [[1, 0, 13], [2, 2, 7]]
    assert payload["class_data"]["coset_count"] == 12
    assert payload["class_data"]["class_count"] == 24
    assert payload["class_data"]["unit_group"] == {
        "matrix_count": 24, "torsion_count": 2, "quotient": 12,
    }
    poly = payload["polynomial"]
    got_desc = [int(s) for s in reversed(poly["irreducible_coefficients_ascending"])]
    assert got_desc == GOLDEN_MINUS_52_LEVEL_5_DESC
    assert poly["coefficients_ascending"] == poly["irreducible_coefficients_ascending"]
    assert poly["exponent"] == 1
    assert poly["degree"] == 24
    verification = payload["verification"]
    assert verification["reality_shortcut"] is True
    assert verification["escalations"] == 0
    assert float(verification["max_rounding_residual"]) < 1e-20
    assert float(verification["value_residual"]) < 1e-20
    assert payload["conjugates"] is None  # flag not given


def test_compute_text_output(capsys):
    rc, out, _ = run_cli(capsys, *GOLDEN_ARGS)
    assert rc == 0
    assert "polynomial degree 24, exponent 1" in out
    assert "x^24 + 82*x^23" in out
    assert "extended classes  24 = 2 x 12" in out
    assert "reality shortcut  yes" in out


def test_compute_emit_conjugates(capsys):
    rc, out, _ = run_cli(
        capsys, *GOLDEN_ARGS, "--format", "json", "--emit-conjugates",
    )
    assert rc == 0
    conjugates = json.loads(out)["conjugates"]
    assert len(conjugates) == 24
    assert sum(c["identity_class"] for c in conjugates) == 1
    base = next(c for c in conjugates if c["identity_class"])
    assert base["form"] == [1, 0, 13]
    assert base["eval_point"]["radicand"] == -52
    assert base["value"]["re"].startswith("0.0107713078591")
    for c in conjugates:
        assert len(c["alpha_mod_level"]) == 2
        assert len(c["lifted"]) == 2


def test_compute_emit_table(capsys):
    rc, out, _ = run_cli(
        capsys, *GOLDEN_ARGS, "--format", "json", "--emit-table",
    )
    assert rc == 0
    table = json.loads(out)["coset_table"]
    assert table["level"] == 5
    assert table["tie_break"] == "min"
    assert len(table["reps"]) == 12


def test_compute_tie_break_flag_changes_nothing(capsys):
    rc1, out1, _ = run_cli(capsys, *GOLDEN_ARGS, "--format", "json")
    rc2, out2, _ = run_cli(
        capsys, *GOLDEN_ARGS, "--format", "json", "--tie-break", "max",
    )
    assert rc1 == rc2 == 0
    p1, p2 = json.loads(out1), json.loads(out2)
    assert p1["polynomial"] == p2["polynomial"]
    assert p1["class_data"]["class_count"] == p2["class_data"]["class_count"]


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------

def test_validate_passes_at_a_generic_point(capsys):
    rc, out, _ = run_cli(
        capsys, "validate", "--point", "0.3+1.7i", "--precision", "128",
        "--format", "json",
    )
    assert rc == 0
    verification = json.loads(out)["verification"]
    assert verification["passed"] is True
    assert float(verification["icosahedral_residual"]) < 2.0 ** -64
    assert float(verification["klein_quotient_residual"]) < 2.0 ** -64


def test_validate_rejects_bad_points(capsys):
    rc, _, err = run_cli(capsys, "validate", "--point", "zebra")
    assert rc == 2 and "error" in err
    rc, _, _ = run_cli(capsys, "validate", "--point", "0.3-1.7i")
    assert rc == 2


# ----------------------------------------------------------------------
# table and catalog
# ----------------------------------------------------------------------

def test_table_json(capsys):
    rc, out, _ = run_cli(
        capsys, "table", "--disc", "-52", "--level", "5",
        "--format", "json",
    )
    assert rc == 0
    data = json.loads(out)["class_data"]
    assert data["class_count"] == 24
    assert len(data["grid"]) == 24
    assert all(cell["passes_filter"] for cell in data["grid"])


def test_table_reports_filtered_cells(capsys):
    # at level 2 the forms with even leading coefficient drop out
    rc, out, _ = run_cli(
        capsys, "table", "--disc", "-23", "--level", "2",
        "--format", "json",
    )
    assert rc == 0
    data = json.loads(out)["class_data"]
    assert data["class_count"] == 3
    skipped = [cell for cell in data["grid"] if not cell["passes_filter"]]
    assert len(skipped) == len(data["grid"]) - 3
    assert all(cell["form"][0] % 2 == 0 for cell in skipped)


@pytest.mark.parametrize("disc, level", [(-23, 2), (-52, 5)])
def test_table_passing_cells_are_the_extended_classes(capsys, disc, level):
    rc, out, _ = run_cli(
        capsys, "table", "--disc", str(disc), "--level", str(level),
        "--format", "json",
    )
    assert rc == 0
    grid = json.loads(out)["class_data"]["grid"]
    passing = [(c["i"], c["k"], c["form"]) for c in grid if c["passes_filter"]]
    reps = build_extended_classes(CMOrder.from_discriminant(disc), level)
    assert passing == [(r.i, r.k, list(r.form.coefficients())) for r in reps]


def test_catalog_lists_functions(capsys):
    rc, out, _ = run_cli(capsys, "catalog", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    names = {f["name"] for f in payload["functions"]}
    assert {"rogers-ramanujan", "j"} <= names
    assert payload["families"][0]["pattern"].startswith("klein-quotient:")


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------

def test_exit_code_for_invalid_inputs(capsys):
    cases = [
        ("compute", "--disc", "-3", "--level", "5", "--function",
         "rogers-ramanujan"),
        ("compute", "--disc", "-52", "--level", "5", "--function", "nope"),
        ("compute", "--disc", "-52", "--level", "7", "--function",
         "rogers-ramanujan"),
        ("compute", "--disc", "-52", "--level", "5", "--function",
         "klein-quotient:1/5,1/5|2/5,0"),
    ]
    for case in cases:
        rc, _, err = run_cli(capsys, *case)
        assert rc == 2, case
        assert err.startswith("error:"), case


def test_exit_code_for_parser_failures(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def test_exit_code_precision_exhaustion(capsys, monkeypatch):
    def boom(job, table=None):
        raise PrecisionExhaustedError("synthetic")

    monkeypatch.setattr(cli, "run", boom)
    rc, _, err = run_cli(capsys, *GOLDEN_ARGS)
    assert rc == 3
    assert "precision exhausted" in err


def test_exit_code_cross_check(capsys, monkeypatch):
    def boom(job, table=None):
        raise CrossCheckError("synthetic")

    monkeypatch.setattr(cli, "run", boom)
    rc, _, err = run_cli(capsys, *GOLDEN_ARGS)
    assert rc == 4
    assert "cross-check" in err

    def pole(job, table=None):
        raise PoleError("synthetic")

    monkeypatch.setattr(cli, "run", pole)
    rc, _, _ = run_cli(capsys, *GOLDEN_ARGS)
    assert rc == 4
