"""Command-line interface: payload schemas, class grid, exit codes."""

import hashlib
import json
import random
import re
from pathlib import Path

import pytest
from mpmath import mp, mpf

import classpoly.cli as cli
from classpoly.conjugates import (
    CartanOrder,
    ClassFieldJob,
    build_extended_classes,
    compute_conjugates,
)
from classpoly.errors import CrossCheckError, PoleError, PrecisionExhaustedError
from classpoly.modfunc import PrecisionConfig
from classpoly.polyalgebra import IntPolynomial, eval_poly
from classpoly.quadforms import CMOrder

from _oracles import render_table_reference, split_prime_failures
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


def _readme_example():
    """The headline command of README.md and the lines of the text block
    printed under it."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    command = "classpoly " + " ".join(GOLDEN_ARGS)
    after = readme.split(command + "\n```\n", 1)[1]
    block = after.split("```\n", 1)[1].split("```\n", 1)[0]
    return command, block.splitlines()


def test_readme_example_matches_the_compute_output(capsys):
    """Every line of the README block appears in the output; a line with
    `...` matches by its part before the `...`."""
    command, lines = _readme_example()
    rc, out, _ = run_cli(capsys, *command.split()[1:])
    assert rc == 0
    assert len(lines) == 16
    printed = out.splitlines()
    for line in lines:
        if "..." in line:
            head = line.split("...")[0]
            assert any(p.startswith(head) for p in printed), line
        else:
            assert line in printed, line


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


def _significant_digits(text: str) -> int:
    return len(text.lstrip("-").split("e")[0].replace(".", "").lstrip("0"))


def test_conjugate_values_render_to_the_digits_of_their_bits(capsys):
    """Each value part prints to int(bits * log10 2) + 3 = 99 significant
    digits at 320 bits (fewer only where mpmath strips trailing zeros), and
    parses back to the value compute_conjugates() gives; the text line of
    the identity class prints the same digits."""
    rc, out, _ = run_cli(capsys, *GOLDEN_ARGS, "--format", "json", "--emit-conjugates")
    assert rc == 0
    conjugates = json.loads(out)["conjugates"]
    data = compute_conjugates(ClassFieldJob.create(-52, 5, "rogers-ramanujan", 320))
    x = IntPolynomial([0, 1])
    digits = []
    with mp.workprec(640):
        for c, d in zip(conjugates, data):
            assert c["identity_class"] == d.identity_class
            assert c["value"]["precision_bits"] == 320
            want = eval_poly(x, d.value)  # the value as an mpc
            for text, part in ((c["value"]["re"], want.real), (c["value"]["im"], want.imag)):
                assert text == mp.nstr(part, 99)
                assert abs(mpf(text) - part) < mpf(2) ** -300 * max(1, abs(want))
                if part:
                    digits.append(_significant_digits(text))
    assert max(digits) == 99 and min(digits) >= 95
    base = next(c["value"] for c in conjugates if c["identity_class"])
    rc, out, _ = run_cli(capsys, *GOLDEN_ARGS, "--emit-conjugates")
    assert rc == 0
    identity_line = next(line for line in out.splitlines() if line.endswith("identity"))
    assert identity_line.endswith(f" value {base['re']} + {base['im']}i  identity")


def test_compute_emit_table(capsys):
    rc, out, _ = run_cli(
        capsys, *GOLDEN_ARGS, "--format", "json", "--emit-table",
    )
    assert rc == 0
    table = json.loads(out)["coset_table"]
    assert table["level"] == 5
    assert table["tie_break"] == "min"
    assert len(table["reps"]) == 12


# SHA-256 of the JSON payload of `compute --format json --emit-conjugates
# --emit-table`, with each conjugate's "value" removed, serialized with
# sorted keys.  Recorded with the fixed-point theta kernel and assembly, whose
# payloads differ from the mpc routes' only in the noise digits of the two
# residuals under "verification", and with exact points reduced by Gauss
# reduction, which moved only the noise digits of max_rounding_residual.
# Re-pinned when rounding moved onto the assembly's scaled integers: only
# max_rounding_residual changed, from a distance to coefficients cut to
# their scale's bits to the exact distance.  rr-52-5 was re-pinned again when
# the rr value moved by one exact icosahedral map instead of a chain of T and
# S steps: only max_rounding_residual changed, 2.39653533197e-109 ->
# 1.29597461981e-110; and again when that map became a closed formula in
# gamma mod 5, run at the working precision: 1.29597461981e-110 ->
# 1.10924554913e-110, nothing else.
GOLDEN_COMPUTE_DIGESTS = [
    ("-52", "5", "rogers-ramanujan", "320",
     "23fc3d38a12e1b0c4b93d554d5828c1233e05a0550fca9346a32e7be5f5b2600"),
    ("-84", "7", "klein-quotient:1/7,0|2/7,0", "256",
     "c5ecb959ee1aea4341308ce7c6ce1294c72aa597b8c64759cc65bd450847784b"),
    ("-52", "1", "j", "256",
     "704f2405bc14e1fef7ad120af67c469fe74d8225f34e4147a7bb102059b711e4"),
]


@pytest.mark.parametrize("disc, level, function, bits, digest", GOLDEN_COMPUTE_DIGESTS,
                         ids=["rr-52-5", "klein-84-7", "j-52-1"])
def test_compute_payload_matches_its_golden_digest(capsys, disc, level, function,
                                                   bits, digest):
    """Forms, coset table, twisting and lifted matrices, evaluation points,
    polynomials and certificates, all pinned at once."""
    rc, out, _ = run_cli(
        capsys, "compute", "--disc", disc, "--level", level, "--function", function,
        "--precision", bits, "--format", "json", "--emit-conjugates", "--emit-table",
    )
    assert rc == 0
    payload = json.loads(out)
    for conjugate in payload["conjugates"]:
        del conjugate["value"]
    got = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert got == digest


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


def test_validate_passes_where_the_replay_starts_from_a_tiny_value(capsys):
    """At 0.3 + 1e-4 i the reduced point is high in the fundamental domain,
    so r there is tiny and the replay needs the bits it would lose."""
    rc, out, _ = run_cli(capsys, "validate", "--point", "0.3+0.0001i", "--format", "json")
    assert rc == 0
    assert json.loads(out)["verification"]["passed"] is True


def test_validate_passes_near_the_real_line(capsys):
    """Both checks take their series at reduced points, so 1/pi + 1e-12 i
    needs no long series; at 0.123456 + 1e-6 i, j ~ 2^850 and r is near a
    five-fold root of x^10 + 11 x^5 - 1, where the icosahedral relation is
    ill-conditioned and its backward error stays small.  A point is the root
    of a form exactly, so its reduction is exact however near the real line
    it is: at 1e-100 i and below the reduced point is past the reach of any
    numeric reduction."""
    for point in ("0.37+0.004i", "0.3183098861837907+1e-12i", "0.123456+1e-6i",
                  "0.123456789+1e-100i", "0.123456789+1e-250i"):
        _assert_validate_passes(capsys, point)


def test_validate_passes_at_a_point_very_near_a_cusp(capsys):
    """Just above the cusp 3/10 the rr value is huge (about 2^18129440566 at
    0.3 + 1e-12 i), and the exact reduction and matrix replay lose no bits
    there, so both checks pass with no refusal.  The point is read at the
    working precision, so 1e-400, below a double's range, is not 0."""
    for point in ("0.3+1e-12i", "0.3+1e-100i", "0.3+1e-300i", "0.3+1e-400i"):
        _assert_validate_passes(capsys, point)


@pytest.mark.parametrize("text", ["i", "1.7i", "0.3+1.7i", " 0.3 + 1.7 i ", "(-0.5+J)",
                                  "-.5e-3+2_0i", "1E2+3e-2j"])
def test_validate_reads_every_point_layout_complex_reads(text):
    cfg = PrecisionConfig(target_bits=128)
    want = complex(text.replace(" ", "").replace("i", "j"))
    got = cli._parse_point(text, cfg)
    assert abs(got - want) < 2.0 ** -50 * abs(want)


def test_validate_keeps_every_digit_of_the_point(capsys):
    """A 25-digit real part is read at the working precision, past a
    double's 17 digits."""
    cfg = PrecisionConfig(target_bits=128)
    point = cli._parse_point("0.1234567890123456789012345+0.5i", cfg)
    with mp.workprec(cfg.working_bits):
        exact = mpf(1234567890123456789012345) / 10 ** 25
        assert abs(point.real - exact) < mpf(2) ** -190
        assert abs(mpf(0.1234567890123456789012345) - exact) > mpf(2) ** -60
    _assert_validate_passes(capsys, "0.1234567890123456789012345+0.5i")


def _assert_validate_passes(capsys, point):
    rc, out, _ = run_cli(capsys, "validate", "--point", point, "--precision", "128",
                         "--format", "json")
    assert rc == 0, point
    verification = json.loads(out)["verification"]
    assert verification["passed"] is True
    assert float(verification["icosahedral_residual"]) < 2.0 ** -120, point
    assert float(verification["klein_quotient_residual"]) < 2.0 ** -120, point


def test_validate_rejects_bad_points(capsys):
    """Text that is no point exits 2 with a message, not 4 or a traceback."""
    for point in ("zebra", "abc", "0.3+-1i", "nan+1i", "", "(0.3+1i"):
        rc, out, err = run_cli(capsys, "validate", "--point", point)
        assert rc == 2 and out == "" and err.startswith("error:"), point
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


@pytest.mark.parametrize("tie_break", ["min", "max"])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("disc, level", [(-23, 2), (-52, 5), (-1351, 12)])
def test_table_output_is_the_whole_document_byte_for_byte(
    capsys, disc, level, fmt, tie_break
):
    rc, out, err = run_cli(
        capsys, "table", "--disc", str(disc), "--level", str(level),
        "--format", fmt, "--tie-break", tie_break,
    )
    assert rc == 0 and err == ""
    assert out == render_table_reference(disc, level, fmt, tie_break)
    if fmt == "json":
        data = json.loads(out)["class_data"]
        cells = len(data["reduced_forms"]) * len(data["coset_table"]["reps"])
        assert len(data["grid"]) == cells


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_table_prints_nothing_when_the_grid_count_disagrees(capsys, monkeypatch, fmt):
    monkeypatch.setattr(cli, "cartan_order", lambda order, level: CartanOrder(24, 2, 11))
    rc, out, err = run_cli(
        capsys, "table", "--disc", "-52", "--level", "5", "--format", fmt,
    )
    assert rc == 4
    assert out == ""
    assert err.startswith("internal cross-check failed: grid count 24")


@pytest.mark.parametrize("disc", ["-3", "-4"])
def test_table_rejects_extra_units_as_compute_does(capsys, disc):
    rc, out, table_err = run_cli(capsys, "table", "--disc", disc, "--level", "5")
    assert rc == 2 and out == ""
    rc, _, compute_err = run_cli(
        capsys, "compute", "--disc", disc, "--level", "5",
        "--function", "rogers-ramanujan",
    )
    assert rc == 2
    assert table_err == compute_err
    assert table_err.startswith("error: discriminants -3 and -4 are excluded")


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


@pytest.mark.parametrize("args", [
    ("validate", "--point", "0.3+1.7i", "--precision", "8"),
    ("compute", "--disc", "-52", "--level", "5", "--function", "rogers-ramanujan",
     "--precision", "8"),
    ("validate", "--point", "nan+1i"),
    ("validate", "--point", "1+nani"),
    ("validate", "--point", "inf+1i"),
])
def test_exit_code_for_invalid_precision_and_non_finite_points(capsys, args):
    rc, out, err = run_cli(capsys, *args)
    assert rc == 2 and out == ""
    assert err.startswith("error:")


def test_exit_code_for_a_value_error_inside_the_pipeline(capsys, monkeypatch):
    """Only the inputs are user input: a ValueError raised past them is a
    bug, not an invalid request."""
    def boom(job, table=None):
        raise ValueError("synthetic")

    monkeypatch.setattr(cli, "run", boom)
    rc, out, err = run_cli(capsys, *GOLDEN_ARGS)
    assert rc == 4 and out == ""
    assert err == "internal error: synthetic\n"


def test_exit_code_for_parser_failures(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["frobnicate"]) == 2
    capsys.readouterr()


def _discriminant_draw(lowest: int, count: int) -> list:
    draw = random.Random(11).sample(
        [d for d in range(-7, lowest - 1, -1) if d % 4 in (0, 1)], count)
    return sorted(draw, reverse=True)


# The plain j-invariant at level 1 trips the pole guard on these finite
# values (ROADMAP item 2); the marks go when that item lands.
_J_POLE_ERRORS = {
    -2847, -2684, -2668, -2604, -2584, -2559, -2527, -2520, -2444, -2411, -2299,
    -2212, -2103, -2087, -1955, -1912, -1860, -1859, -1856, -1835, -1628, -1248,
}
_SMALL_DRAW = _discriminant_draw(-400, 12)
# Prefixes of the draw for the slower sweeps keep the test within seconds;
# level-10 rr, where most cells share a reduced point, takes the whole draw;
# (-783, 1, j) exits 3 on the value certificate.
_CONTRACT_CASES = (
    [(d, 5, "rogers-ramanujan") for d in _SMALL_DRAW[:8]]
    + [(d, 10, "rogers-ramanujan") for d in _SMALL_DRAW]
    + [(d, 7, "klein-quotient:1/7,0|2/7,0") for d in _SMALL_DRAW[:3]]
    + [(d, 5, "j") for d in _SMALL_DRAW[:3]]
    + [pytest.param(d, 1, "j", marks=pytest.mark.xfail(
           strict=True, reason="ROADMAP item 2: PoleError on finite values"))
       if d in _J_POLE_ERRORS else (d, 1, "j")
       for d in _discriminant_draw(-3000, 30)]
)
_CERTIFICATE_FAILURE = re.compile(
    r"last failure: (rounding residual|value residual"
    r"|polynomial is not the \d+-th power|degree \d+ is not a multiple)")


@pytest.mark.parametrize("disc, level, function", _CONTRACT_CASES)
def test_exit_code_contract_at_the_cli_defaults(capsys, disc, level, function):
    """A valid job at the default precision certifies its polynomial, or
    exits 3 naming the certificate that failed last; never 4.  A certified
    j polynomial splits at the split primes of its class field (the rr and
    Klein ones, of degree up to 180, would add about 1 s to the sweep)."""
    rc, out, err = run_cli(capsys, "compute", "--disc", str(disc), "--level",
                           str(level), "--function", function, "--format", "json")
    assert rc in (0, 3), err
    if rc == 3:
        assert _CERTIFICATE_FAILURE.search(err), err
    elif function == "j":
        irreducible = json.loads(out)["polynomial"]["irreducible_coefficients_ascending"]
        assert split_prime_failures([int(c) for c in irreducible], disc, level) == []


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
