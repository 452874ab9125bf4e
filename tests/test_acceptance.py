"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single [acceptance] PASS/FAIL line (visible with -s or in
captured output) and asserts the same condition, so the pytest -v report
doubles as the acceptance record.
"""

import contextlib
import io
import json
import random
import time
from math import gcd

import pytest
from mpmath import mp, mpc, mpf

from classpoly.cli import main as cli_main
from classpoly.conjugates import ClassFieldJob, build_extended_classes, cartan_order, run
from classpoly.modfunc import (
    PrecisionConfig,
    check_icosahedral,
    check_klein_relation,
    eval_j,
    eval_rr,
)
from classpoly.modgroup import enumerate_cosets
from classpoly.polyalgebra import IntPolynomial, eval_poly, power_check
from classpoly.quadforms import CMOrder, reduced_forms

from _oracles import (
    CLASS_NUMBER_TABLE,
    random_principal_congruence,
    random_sl2,
    split_prime_failures,
)
from frozen_values import GOLDEN_MINUS_52_LEVEL_5_DESC, HILBERT_MINUS_52_ASC


def _report(name: str, ok: bool, detail: str = ""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ----------------------------------------------------------------------
# shared runs
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def golden_cli():
    buf = io.StringIO()
    started = time.monotonic()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(
            [
                "compute", "--disc", "-52", "--level", "5",
                "--function", "rogers-ramanujan", "--precision", "320",
                "--format", "json",
            ]
        )
    elapsed = time.monotonic() - started
    return rc, json.loads(buf.getvalue()), elapsed


@pytest.fixture(scope="module")
def run_52():
    return run(ClassFieldJob.create(-52, 5, "rogers-ramanujan", 320))


@pytest.fixture(scope="module")
def run_68():
    return run(ClassFieldJob.create(-68, 5, "rogers-ramanujan", 256))


@pytest.fixture(scope="module")
def run_hilbert_52():
    return run(ClassFieldJob.create(-52, 1, "j", 256))


@pytest.fixture(scope="module")
def run_hilbert_8():
    return run(ClassFieldJob.create(-8, 1, "j", 256))


# ----------------------------------------------------------------------
# 1. golden end-to-end reproduction
# ----------------------------------------------------------------------

def test_criterion_1_golden_end_to_end(golden_cli):
    rc, payload, elapsed = golden_cli
    poly = payload["polynomial"]
    got = [int(s) for s in reversed(poly["irreducible_coefficients_ascending"])]
    residual = float(payload["verification"]["max_rounding_residual"])
    ok = (
        rc == 0
        and got == GOLDEN_MINUS_52_LEVEL_5_DESC
        and poly["exponent"] == 1
        and residual < 1e-20
        and elapsed < 60.0
    )
    _report(
        "1 golden degree-24 run",
        ok,
        f"exit {rc}, exponent {poly['exponent']}, residual {residual:.3g}, "
        f"{elapsed:.2f}s",
    )


# ----------------------------------------------------------------------
# 2. step-level class data
# ----------------------------------------------------------------------

def test_criterion_2_step_level_class_data():
    order = CMOrder.from_discriminant(-52)
    forms = [f.coefficients() for f in reduced_forms(-52)]
    table = enumerate_cosets(5)
    classes = build_extended_classes(order, 5, table)
    all_pass = len(classes) == len(forms) * table.size() and all(
        gcd(rep.form.a, 5) == 1 for rep in classes
    )
    ok = (
        forms == [(1, 0, 13), (2, 2, 7)]
        and table.size() == 12
        and len(classes) == 24
        and all_pass
    )
    _report(
        "2 step-level data for (-52, 5)",
        ok,
        f"forms {forms}, cosets {table.size()}, classes {len(classes)}, "
        f"filter passes all {all_pass}",
    )


# ----------------------------------------------------------------------
# 3. cardinality cross-check over the grid
# ----------------------------------------------------------------------

def test_criterion_3_cardinality_grid():
    checked = 0
    ok = True
    witness = ""
    for disc in (-7, -8, -11, -15, -20, -23, -24, -52):
        order = CMOrder.from_discriminant(disc)
        h = CLASS_NUMBER_TABLE[disc]
        assert len(reduced_forms(disc)) == h
        for level in range(1, 8):
            classes = len(build_extended_classes(order, level))
            cartan = cartan_order(order, level)
            # recount the unit matrices straight from their defining shape
            count = 0
            for s in range(level):
                for t in range(level):
                    m = (
                        (t - order.b * s) * t - (-order.c * s) * s
                    ) % level
                    if gcd(m, level) == 1:
                        count += 1
            if level == 1:
                count = 1
            quotient = count if level <= 2 else count // 2
            if (
                count != cartan.matrix_count
                or quotient != cartan.quotient
                or classes != h * quotient
            ):
                ok = False
                witness = f"failed at D={disc}, N={level}"
                break
            if (disc, level) == (-52, 5) and classes != 24:
                ok = False
                witness = "(-52, 5) did not give 24"
                break
            checked += 1
        if not ok:
            break
    _report("3 cardinality grid 8 x 7", ok, witness or f"{checked} cells agree")


# ----------------------------------------------------------------------
# 4. identity suites at random points
# ----------------------------------------------------------------------

def test_criterion_4_identity_suites():
    rng = random.Random(20260814)
    points = [
        mpc(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 2.5)) for _ in range(25)
    ]
    worst = mpf(0)
    ok = True
    for bits in (128, 256):
        cfg = PrecisionConfig(target_bits=bits)
        bound = mpf(2) ** (-(bits // 2))
        for tau in points:
            icosa = check_icosahedral(tau, cfg)
            klein = check_klein_relation(tau, cfg)
            worst = max(worst, icosa / bound, klein / bound)
            if icosa >= bound or klein >= bound:
                ok = False
    # invariance of the level-5 value under its congruence group
    cfg = PrecisionConfig(target_bits=128)
    tol = mpf(2) ** -64
    with mp.workprec(220):
        tau = mpc("0.17", "1.05")
        base_r = eval_rr(tau, cfg)
        for _ in range(20):
            g = random_principal_congruence(rng, 5)
            moved = (g.a * tau + g.b) / (g.c * tau + g.d)
            if abs(eval_rr(moved, cfg) - base_r) >= tol:
                ok = False
        base_j = eval_j(tau, cfg)
        for _ in range(20):
            g = random_sl2(rng, 14)
            moved = (g.a * tau + g.b) / (g.c * tau + g.d)
            if abs(eval_j(moved, cfg) - base_j) / abs(base_j) >= tol:
                ok = False
    _report(
        "4 identity and invariance suites",
        ok,
        f"worst residual/bound {mp.nstr(worst, 3)} over 25 points x 2 "
        f"precisions, 20+20 group elements",
    )


# ----------------------------------------------------------------------
# 5. representative independence
# ----------------------------------------------------------------------

def test_criterion_5_tie_break_independence():
    job = ClassFieldJob.create(-52, 5, "rogers-ramanujan", 256)
    lo = run(job, table=enumerate_cosets(5, "min"))
    hi = run(job, table=enumerate_cosets(5, "max"))
    ok = (
        lo.polynomial == hi.polynomial
        and lo.irreducible == hi.irreducible
        and lo.exponent == hi.exponent
    )
    _report(
        "5 tie-break independence",
        ok,
        "bit-identical polynomials" if ok else "polynomials differ",
    )


# ----------------------------------------------------------------------
# 6. unit property of the constant term
# ----------------------------------------------------------------------

def test_criterion_6_unit_property(run_52, run_68):
    c52 = run_52.irreducible.constant()
    c68 = run_68.irreducible.constant()
    ok = abs(c52) == 1 and abs(c68) == 1
    _report(
        "6 unit constant terms at -52 and -68",
        ok,
        f"constants {c52} and {c68}, degrees "
        f"{run_52.irreducible.degree} and {run_68.irreducible.degree}",
    )


# ----------------------------------------------------------------------
# 7. classical degree checks for the level-1 function
# ----------------------------------------------------------------------

def test_criterion_7_hilbert_sanity(run_hilbert_52, run_hilbert_8):
    irr = run_hilbert_52.irreducible
    bits = run_hilbert_52.precision_bits_used
    tol = mpf(2) ** (-(bits // 4))
    ok = irr.is_monic() and irr.degree == 2
    ok = ok and irr == IntPolynomial(HILBERT_MINUS_52_ASC)
    with mp.workprec(bits + 64):
        b, c = irr.coeffs[1], irr.coeffs[0]
        root_disc = mp.sqrt(mpf(b) * b - 4 * c)
        roots = [(-b + root_disc) / 2, (-b - root_disc) / 2]
        cfg = PrecisionConfig(target_bits=bits)
        values = [
            eval_j(f, cfg) for f in reduced_forms(-52)
        ]
        for v in values:
            ok = ok and min(abs(v - r) for r in roots) < tol
    ok_8 = (
        run_hilbert_8.irreducible.degree == 1
        and run_hilbert_8.irreducible == IntPolynomial([-8000, 1])
    )
    _report(
        "7 level-1 classical polynomials",
        ok and ok_8,
        f"degree-2 roots match both values to 2^-{bits // 4}; "
        f"degree 1 at -8",
    )


# ----------------------------------------------------------------------
# 8. exactness certificates on every completed run
# ----------------------------------------------------------------------

def test_criterion_8_exactness(run_52, run_68, run_hilbert_52, run_hilbert_8):
    ok = True
    detail = []
    for result in (run_52, run_68, run_hilbert_52, run_hilbert_8):
        ell = power_check(result.polynomial, result.irreducible)
        exact = (
            ell == result.exponent
            and result.irreducible ** ell == result.polynomial
        )
        bits = result.precision_bits_used
        base = next(d for d in result.data if d.identity_class)
        with mp.workprec(bits + 64):
            residual = abs(eval_poly(result.irreducible, base.value))
            small = residual < mpf(2) ** (-(bits // 4))
        ok = ok and exact and small
        detail.append(
            f"D={result.job.order.disc}: ell={ell}, "
            f"|irr(value)|={mp.nstr(residual, 3)}"
        )
    _report("8 exact power and root certificates", ok, "; ".join(detail))


def test_completed_runs_split_at_their_split_primes(run_52, run_68, run_hilbert_52,
                                                    run_hilbert_8):
    """No numerics: each irreducible factor splits into linear factors mod
    primes that split completely in its class field.  The check has teeth:
    one changed coefficient fails it, and so does the polynomial of the
    neighbouring discriminant at the same level."""
    runs = (run_52, run_68, run_hilbert_52, run_hilbert_8)
    failures = {result.job.order.disc: split_prime_failures(
        result.irreducible.coeffs, result.job.order.disc, result.job.level) for result in runs}
    changed = list(run_52.irreducible.coeffs)
    changed[5] += 1
    ok = (not any(failures.values())
          and split_prime_failures(changed, -52, 5) != []
          and split_prime_failures(run_68.irreducible.coeffs, -52, 5) != []
          and split_prime_failures(run_52.irreducible.coeffs, -68, 5) != [])
    _report("split-prime oracle on every completed run", ok, f"failing primes {failures}")
