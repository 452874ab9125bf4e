"""The conjugate pipeline: extended classes, twisting matrices, polynomials."""

import random
from dataclasses import replace
from math import gcd

import pytest
from mpmath import mp, mpc, mpf

from classpoly.conjugates import (
    CartanOrder,
    ClassFieldJob,
    assemble_poly,
    build_extended_classes,
    cartan_order,
    compute_conjugates,
    run,
    walk_grid,
)
from classpoly.errors import (
    CrossCheckError,
    NonConvergenceError,
    PoleError,
    PrecisionExhaustedError,
    RoundingFailureError,
    nstr,
)
from classpoly import conjugates, modfunc
from classpoly.modfunc import (
    ModularFunctionSpec,
    PrecisionConfig,
    catalog_lookup,
    eval_rr,
)
from classpoly.modgroup import (
    UnimodularMatrix,
    enumerate_cosets,
    mobius_apply,
    translation,
)
from classpoly.polyalgebra import (
    IntPolynomial,
    eval_poly,
    power_check,
)
from classpoly.quadforms import CMOrder, QuadraticForm, reduce_form, reduced_forms

from _oracles import assemble_reference, random_principal_congruence, split_prime_failures
from frozen_values import (
    GOLDEN_MINUS_52_LEVEL_5_ASC,
    HILBERT_MINUS_52_ASC,
    RR_AT_SQRT_MINUS_13,
)


# ----------------------------------------------------------------------
# class enumeration and the unit-group cross-check
# ----------------------------------------------------------------------

def test_extended_class_counts():
    order = CMOrder.from_discriminant(-52)
    assert len(build_extended_classes(order, 5)) == 24
    assert len(build_extended_classes(order, 1)) == 2
    order23 = CMOrder.from_discriminant(-23)
    assert len(build_extended_classes(order23, 2)) == 3


def test_extended_classes_cover_the_full_grid_at_minus_52():
    order = CMOrder.from_discriminant(-52)
    reps = build_extended_classes(order, 5)
    assert {(r.i, r.k) for r in reps} == {(i, k) for i in range(2) for k in range(12)}
    for r in reps:
        assert gcd(r.form.a, 5) == 1
        assert r.form.discriminant == -52


@pytest.mark.parametrize("tie_break", ["min", "max"])
@pytest.mark.parametrize("disc, level", [(-1351, 12), (-4079, 6)])
def test_walk_grid_matches_transform_cell_by_cell(disc, level, tie_break):
    order = CMOrder.from_discriminant(disc)
    forms = reduced_forms(disc)
    table = enumerate_cosets(level, tie_break)
    rows = list(walk_grid(forms, table, level))
    assert [row[0] for row in rows] == list(range(len(forms)))
    cells = [
        (i, k, (a1[k], b1[k], c1[k]), passes[k])
        for i, a1, b1, c1, passes in rows
        for k in range(table.size())
    ]
    assert all(len(part) == table.size() for row in rows for part in row[1:])
    assert len(cells) == len(forms) * table.size()
    for i, k, coeffs, passes in cells:
        assert coeffs == forms[i].transform(table.reps[k]).coefficients()
        assert passes == (gcd(coeffs[0], level) == 1)
    reps = build_extended_classes(order, level, table)
    assert len(reps) == sum(p for *_, p in cells)
    for r in reps:
        assert type(r.form) is QuadraticForm
        assert r.form.discriminant == disc


def test_cartan_order_values():
    assert cartan_order(CMOrder.from_discriminant(-52), 5) == CartanOrder(24, 2, 12)
    assert cartan_order(CMOrder.from_discriminant(-52), 1) == CartanOrder(1, 1, 1)
    assert cartan_order(CMOrder.from_discriminant(-52), 2) == CartanOrder(2, 1, 2)
    assert cartan_order(CMOrder.from_discriminant(-23), 2) == CartanOrder(1, 1, 1)


def test_class_count_equals_forms_times_unit_quotient():
    for disc in (-7, -8, -11, -15, -20, -23, -24, -52, -68):
        order = CMOrder.from_discriminant(disc)
        h = len(reduced_forms(disc))
        for level in range(1, 8):
            got = len(build_extended_classes(order, level))
            assert got == h * cartan_order(order, level).quotient, (disc, level)


def test_run_enumerates_the_reduced_forms_once(monkeypatch):
    """run() builds its classes, its class-count cross-check and
    RunResult.forms from one list of reduced forms."""
    calls = []
    monkeypatch.setattr(conjugates, "reduced_forms",
                        lambda disc: calls.append(disc) or reduced_forms(disc))
    result = run(ClassFieldJob.create(-52, 5, "rogers-ramanujan", 320))
    assert calls == [-52]
    assert result.forms == reduced_forms(-52)


# ----------------------------------------------------------------------
# twisting matrices
# ----------------------------------------------------------------------

def test_conjugate_matrix_of_the_identity_class():
    order = CMOrder.from_discriminant(-52)
    table = enumerate_cosets(5)
    reps = build_extended_classes(order, 5, table)
    identity_reps = [
        r for r in reps if r.form == order.principal_form() and r.gamma.mod(5)[1][0] == 0
    ]
    principal = [r for r in identity_reps if r.gamma.mod(5)[0][0] in (1, 4)]
    assert len(principal) == 1
    assert [r for r in reps if r.identity_class] == principal
    assert principal[0].alpha == ((1, 0), (0, 1))


def test_conjugate_matrix_structure():
    """Recompute the defining pieces independently for every class: the top
    row shifts by u = -(a^-1) * (b + b0)/2 and the bottom row carries a^-1."""
    for disc, level in ((-52, 5), (-23, 2), (-68, 5), (-7, 5)):
        order = CMOrder.from_discriminant(disc)
        for rep in build_extended_classes(order, level):
            alpha = rep.alpha
            a_inv = pow(rep.form.a, -1, level)
            u = (-a_inv * ((rep.form.b + order.b) // 2)) % level
            ghat = rep.gamma.hat()
            assert alpha[0] == (
                (ghat.a + u * ghat.c) % level,
                (ghat.b + u * ghat.d) % level,
            )
            assert alpha[1] == ((a_inv * ghat.c) % level, (a_inv * ghat.d) % level)
            det = alpha[0][0] * alpha[1][1] - alpha[0][1] * alpha[1][0]
            assert det % level == a_inv % level


@pytest.mark.parametrize("disc, level", [(-52, 5), (-23, 2), (-68, 5), (-84, 7)])
def test_lifted_matrix_is_the_exact_twist(disc, level):
    """Each class's SL2(Z) matrix is T^u * hat(gamma) over Z, with
    u = -a^-1 (b + b0)/2 mod the level; mod the level it is alpha with the
    bottom row multiplied back by a."""
    order = CMOrder.from_discriminant(disc)
    for d in build_extended_classes(order, level, enumerate_cosets(level)):
        a, b = d.form.a, d.form.b
        u = (-pow(a, -1, level) * ((b + order.b) // 2)) % level
        assert d.lifted == translation(u) @ d.gamma.hat()
        top, bottom = d.lifted.mod(level)
        assert top == d.alpha[0]
        assert bottom == ((a * d.alpha[1][0]) % level, (a * d.alpha[1][1]) % level)


# ----------------------------------------------------------------------
# conjugate data
# ----------------------------------------------------------------------

CFG192 = PrecisionConfig(target_bits=192)


@pytest.fixture(scope="module")
def golden_conjugates():
    job = ClassFieldJob.create(-52, 5, "rogers-ramanujan", 192)
    return job, compute_conjugates(job)


def test_conjugate_data_shape(golden_conjugates):
    job, data = golden_conjugates
    assert len(data) == 24
    assert sum(d.identity_class for d in data) == 1
    # the lifted matrix reduces to the determinant-one companion of alpha
    for d in data:
        lift_rows = d.lifted.mod(job.level)
        assert lift_rows[0] == d.alpha[0]
        a = d.form.a % job.level
        assert lift_rows[1] == (
            (a * d.alpha[1][0]) % job.level,
            (a * d.alpha[1][1]) % job.level,
        )


def test_identity_class_value_is_the_frozen_special_value(golden_conjugates):
    job, data = golden_conjugates
    base = next(d for d in data if d.identity_class)
    # the mirrored principal form; for even D its root is the generator
    assert base.eval_point == job.order.principal_form()
    with mp.workprec(260):
        v = base.value
        assert abs(v.real - mpf(RR_AT_SQRT_MINUS_13)) < mpf("1e-44")
        assert abs(v.imag) < mpf(2) ** -180


def test_conjugate_values_match_a_float_route(golden_conjugates):
    """Each value came from the exact Moebius image; recompute through the
    floating route and through the function directly."""
    job, data = golden_conjugates
    for d in data[:8]:
        with mp.workprec(300):
            arg = mobius_apply(d.lifted, d.eval_point.to_mpc())
        w = eval_rr(arg, CFG192)
        with mp.workprec(260):
            assert abs(d.value - w) < mpf(2) ** -170


def test_conjugate_values_are_pairwise_distinct(golden_conjugates):
    _, data = golden_conjugates
    values = [d.value for d in data]
    with mp.workprec(260):
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                assert abs(values[i] - values[j]) > mpf(2) ** -50


def _class_value(i, gamma, form, order, level, fn):
    """The value of the class of reduced form i at the coset rep gamma, with
    the transformed form; its twist T^u * hat(gamma) is rebuilt here."""
    u = (-pow(form.a, -1, level) * ((form.b + order.b) // 2)) % level
    lifted = translation(u) @ gamma.hat()
    f = reduced_forms(order.disc)[i]
    point = QuadraticForm(f.a, -f.b, f.c).transform(lifted.inverse())
    return fn.evaluate(point, CFG192)


def test_value_is_independent_of_the_coset_representative():
    """Replacing a class representative gamma by gamma * delta with delta in
    the sign-extended level subgroup must not change the conjugate value.
    This is the Gamma(N)-invariance that lets the exact matrix T^u * hat(gamma)
    stand for every SL2(Z) matrix congruent to it; checked for
    rogers-ramanujan at (-52, 5) and a Klein quotient at (-84, 7)."""
    rng = random.Random(51)
    minus_one = UnimodularMatrix(-1, 0, 0, -1)
    for disc, level, name in ((-52, 5, "rogers-ramanujan"),
                              (-84, 7, "klein-quotient:1/7,0|2/7,0")):
        order = CMOrder.from_discriminant(disc)
        fn = catalog_lookup(name)
        reps = build_extended_classes(order, level)
        for rep in (reps[0], reps[7], reps[13]):
            base = _class_value(rep.i, rep.gamma, rep.form, order, level, fn)
            for _ in range(4):
                # a general subgroup element: principal-congruence part, a
                # free upper-right translation, and possibly the global sign
                delta = random_principal_congruence(rng, level)
                delta = delta @ translation(rng.randint(-6, 6))
                if rng.random() < 0.5:
                    delta = delta @ minus_one
                value = _class_value(rep.i, rep.gamma @ delta,
                                     rep.form.transform(delta), order, level, fn)
                with mp.workprec(260):
                    gap = abs(value - base)
                    assert gap < mpf(2) ** -170 * max(1, abs(base)), (name, rep)


def _orbit_key(datum, level):
    """The Gauss-reduced form of the cell's evaluation argument and, for a
    function of level > 1, +-gamma mod the level, gamma the reducing matrix:
    by Gamma(level)-invariance, equal keys must give equal values."""
    reduced, gamma = reduce_form(datum.eval_point.transform(datum.lifted.inverse()))
    if level == 1:
        return reduced
    minus = UnimodularMatrix(-gamma.a, -gamma.b, -gamma.c, -gamma.d)
    return reduced, min(gamma.mod(level), minus.mod(level))


@pytest.mark.parametrize("disc, level, function, bits, keys, multiplicity", [
    (-52, 5, "j", 1024, 2, 12),
    (-56, 5, "j", 1024, 4, 8),
    (-52, 10, "j", 1024, 2, 24),
    (-52, 10, "rogers-ramanujan", 256, 24, 2),
    (-91, 10, "rogers-ramanujan", 256, 16, 3),
    (-231, 5, "rogers-ramanujan", 256, 96, 1),
    (-391, 5, "j", 256, 14, 8),  # run() exhausts its escalations here
])
def test_cells_with_one_orbit_key_share_their_value(disc, level, function, bits,
                                                     keys, multiplicity):
    """The values of compute_conjugates() depend only on the orbit key, and
    every key covers the same number of cells: the exponent of p = irr^m.
    A level-1 value is the series at the reduced point, so its cells agree
    exactly; an rr value is replayed per cell, so its cells agree to the
    working precision."""
    job = ClassFieldJob.create(disc, level, function, bits)
    groups = {}
    for d in compute_conjugates(job):
        groups.setdefault(_orbit_key(d, job.function.level), []).append(d.value)
    assert len(groups) == keys
    assert {len(values) for values in groups.values()} == {multiplicity}
    with mp.workprec(2 * bits):
        for first, *rest in groups.values():
            for v in rest:
                if job.function.level == 1:
                    assert (v.real, v.imag) == (first.real, first.imag)
                else:
                    assert abs(v - first) < mpf(2) ** -bits * max(1, abs(first))
    if (disc, level, function) != (-391, 5, "j"):
        result = run(job)
        assert result.exponent == multiplicity
        assert split_prime_failures(result.irreducible.coeffs, disc, level) == []


_KLEIN_5 = "klein-quotient:1/5,0|2/5,0"
_KLEIN_7 = "klein-quotient:1/7,0|2/7,0"


@pytest.mark.parametrize("disc, level, function, bits", [
    (-52, 5, "rogers-ramanujan", 320),
    (-52, 5, "j", 1024),
    (-56, 5, "j", 1024),
    (-52, 10, "rogers-ramanujan", 256),
    (-84, 7, _KLEIN_7, 256),
    (-391, 5, "rogers-ramanujan", 256),  # tiny reduced values: Im z* = 9.9
])
def test_shared_series_give_the_values_of_single_point_calls(disc, level, function, bits):
    """Every value of compute_conjugates(), whose cells share the series of
    their reduced point, is exactly the value of evaluate() called alone."""
    job = ClassFieldJob.create(disc, level, function, bits)
    for d in compute_conjugates(job):
        alone = job.function.evaluate(d.eval_point.transform(d.lifted.inverse()),
                                      job.precision)
        assert (d.value.real, d.value.imag) == (alone.real, alone.imag), (d.i, d.k)


def _count_theta_calls(monkeypatch):
    """Record every sum of the series kernel, modfunc._theta_core, from here
    on; returns the record."""
    calls = []
    theta = modfunc._theta_core

    def counting(*args):
        calls.append(args)
        return theta(*args)

    monkeypatch.setattr(modfunc, "_theta_core", counting)
    return calls


@pytest.mark.parametrize("disc, level, function, bits, sums", [
    (-52, 5, "rogers-ramanujan", 256, 4),  # 24 cells on 2 reduced points
    (-52, 5, "j", 1024, 4),
    (-52, 5, _KLEIN_5, 320, 36),  # one theta per reduced point and moved pair
    (-391, 1, "j", 256, 16),  # 14 reduced points, 6 of them mirror pairs
])
def test_each_series_is_summed_once_per_reduced_point(monkeypatch, disc, level,
                                                       function, bits, sums):
    """One compute_conjugates() sums each theta series once per reduced point,
    j once per mirror pair of them, and a second call sums them all again:
    nothing outlives the call."""
    calls = _count_theta_calls(monkeypatch)
    job = ClassFieldJob.create(disc, level, function, bits)
    compute_conjugates(job)
    assert len(calls) == sums
    compute_conjugates(job)
    assert len(calls) == 2 * sums


def test_j_at_a_mirror_form_is_the_conjugate_of_one_series(monkeypatch):
    """The reduced (5, -3, 20) takes the exact conj of the value at its mirror
    (5, 3, 20), and the two calls, sharing one memo, sum one j series."""
    calls = _count_theta_calls(monkeypatch)
    cfg, memo = PrecisionConfig(target_bits=256), {}
    value = modfunc.eval_j(QuadraticForm(5, 3, 20), cfg, memo)
    mirrored = modfunc.eval_j(QuadraticForm(5, -3, 20), cfg, memo)
    with mp.workprec(cfg.working_bits):  # negation is exact at the value's precision
        assert (mirrored.real, mirrored.imag) == (value.real, -value.imag)
    assert value.imag != 0
    assert len(calls) == 2
    alone = modfunc.eval_j(QuadraticForm(5, -3, 20), cfg)
    assert (alone.real, alone.imag) == (mirrored.real, mirrored.imag)


def test_no_shared_series_outlive_a_failed_compute(monkeypatch):
    """An evaluator that raises partway leaves no memo behind: a later
    single-point call at a form already summed sums its series again."""
    job = ClassFieldJob.create(-52, 5, "j", 1024)
    seen, exact = [], job.function.evaluator

    def fifth_call_fails(tau, memo):
        seen.append(tau)
        if len(seen) == 5:
            raise NonConvergenceError("synthetic")
        return exact(tau, memo)

    failing = replace(job, function=replace(job.function, evaluator=fifth_call_fails))
    with pytest.raises(NonConvergenceError):
        compute_conjugates(failing)
    calls = _count_theta_calls(monkeypatch)
    job.function.evaluate(seen[0], job.precision)
    assert len(calls) == 2


def test_assemble_poly_uses_reality_shortcut(golden_conjugates):
    job, data = golden_conjugates
    (re, im, shift), shortcut = assemble_poly(data, job)
    assert shortcut is True
    assert len(re) == len(im) == 25
    assert shift == 192 + modfunc.GUARD_BITS


@pytest.mark.parametrize("disc, level, function, bits, degree, coeff_bits, is_real", [
    (-52, 5, "j", 1024, 24, 589, True),  # 12 copies of H_-52
    (-231, 5, "rogers-ramanujan", 256, 192, 147, False),  # values and conjugates
])
def test_fixed_point_assembly_matches_the_mpc_schoolbook(disc, level, function, bits,
                                                         degree, coeff_bits, is_real):
    """The scaled integers, over 2^shift, agree with the mpc schoolbook
    within 2^-bits times each coefficient's size, at the largest
    coefficients of the bench and the largest degree of the tests."""
    job = ClassFieldJob.create(disc, level, function, bits)
    data = compute_conjugates(job)
    (re, im, shift), shortcut = assemble_poly(data, job)
    ref, ref_shortcut = assemble_reference(data, job)
    assert shortcut is ref_shortcut is is_real
    assert shift == bits + modfunc.GUARD_BITS
    assert len(re) == len(im) == len(ref) == degree + 1
    with mp.workprec(2 * bits):
        for cr, ci, theirs in zip(re, im, ref):
            ours = mpc(mp.ldexp(cr, -shift), mp.ldexp(ci, -shift))
            gap = abs(ours - theirs)
            assert gap < mpf(2) ** -bits * max(1, abs(theirs))
        assert mp.mag(max(abs(c) for c in ref)) == coeff_bits


# ----------------------------------------------------------------------
# full runs
# ----------------------------------------------------------------------

def test_run_golden_polynomial():
    result = run(ClassFieldJob.create(-52, 5, "rogers-ramanujan", 320))
    assert result.forms == reduced_forms(-52)
    assert result.polynomial == IntPolynomial(GOLDEN_MINUS_52_LEVEL_5_ASC)
    assert result.irreducible == result.polynomial
    assert result.exponent == 1
    assert result.escalations == 0
    assert result.reality_shortcut is True
    assert result.max_rounding_residual < mpf("1e-20")
    assert split_prime_failures(result.irreducible.coeffs, -52, 5) == []


def test_run_classical_degree_two_invariant():
    result = run(ClassFieldJob.create(-52, 1, "j", 256))
    assert result.irreducible == IntPolynomial(HILBERT_MINUS_52_ASC)
    assert result.exponent == 1
    assert result.class_count == 2


def test_run_degree_one_invariant():
    result = run(ClassFieldJob.create(-8, 1, "j", 256))
    assert result.irreducible == IntPolynomial([-8000, 1])
    assert result.polynomial == result.irreducible


def test_run_complex_generator_doubles_the_degree():
    result = run(ClassFieldJob.create(-7, 5, "rogers-ramanujan", 192))
    assert result.reality_shortcut is False
    assert result.class_count == 12
    assert result.polynomial.degree == 24
    assert result.polynomial.is_monic()
    assert power_check(result.polynomial, result.irreducible) == result.exponent
    with mp.workprec(result.precision_bits_used):
        base = next(d for d in result.data if d.identity_class)
        assert abs(eval_poly(result.irreducible, base.value)) < mpf(2) ** -40


def test_level_seven_klein_quotient_rounds():
    """Level 7 through the reduced Klein-quotient evaluator: all 85
    coefficients of the degree-84 product round cleanly at 256 bits, and
    run() certifies the polynomial as squarefree; it splits at the primes
    that split completely in the class field mod 7."""
    result = run(ClassFieldJob.create(-84, 7, "klein-quotient:1/7,0|2/7,0", 256))
    assert len(result.data) == 84
    assert result.reality_shortcut is True
    polynomial = result.polynomial
    assert len(polynomial.coeffs) == 85
    assert result.max_rounding_residual < mpf(2) ** -64
    assert result.value_residual < mpf(2) ** -64
    assert polynomial.is_monic()
    assert result.exponent == 1
    assert result.irreducible == polynomial
    assert result.escalations == 0
    assert split_prime_failures(polynomial.coeffs, -84, 7) == []
    # a quotient of Siegel functions takes unit values
    assert polynomial.coeffs[0] == 1


@pytest.mark.parametrize("disc, level, negated, plain, bits", [
    (-52, 5, "klein-quotient:-4/5,0|2/5,0", None, 320),
    (-84, 7, "klein-quotient:-6/7,0|2/7,0", "klein-quotient:1/7,0|2/7,0", 256),
])
def test_klein_quotient_with_a_negative_first_parameter(disc, level, negated, plain, bits):
    """K3 moves (r1 - 1, 0) to (r1, 0) with the sign -1, so the quotient is
    negated and its polynomial is the plain one at -x (even degree): the
    golden polynomial at level 5, the run of the plain quotient at 7."""
    result = run(ClassFieldJob.create(disc, level, negated, bits))
    if plain is None:
        want = GOLDEN_MINUS_52_LEVEL_5_ASC
    else:
        want = run(ClassFieldJob.create(disc, level, plain, bits)).irreducible.coeffs
    assert result.exponent == 1
    assert result.irreducible.coeffs == tuple((-1) ** k * c for k, c in enumerate(want))


def test_klein_quotient_with_a_first_parameter_past_one():
    """K3 moves (6/5, 0) to (1/5, 0) with the sign -1, so k_(6/5,0) / k_(2/5,0)
    at (-52, 5) certifies the golden polynomial at -x."""
    result = run(ClassFieldJob.create(-52, 5, "klein-quotient:6/5,0|2/5,0", 256))
    assert result.exponent == 1
    assert result.irreducible.coeffs == tuple(
        (-1) ** k * c for k, c in enumerate(GOLDEN_MINUS_52_LEVEL_5_ASC))


def test_run_degree_192_rogers_ramanujan():
    """(-231, 5): 96 extended classes and a complex generator, so the
    product has degree 192; it is squarefree and certified at 256 bits."""
    result = run(ClassFieldJob.create(-231, 5, "rogers-ramanujan", 256))
    assert result.polynomial.degree == 192
    assert result.exponent == 1
    assert result.irreducible == result.polynomial
    assert result.max_rounding_residual < mpf(2) ** -64
    assert result.value_residual < mpf(2) ** -64


def test_run_escalates_until_the_power_structure_resolves():
    """At level 5 the degree-1 function packs 12 copies of its degree-2
    polynomial; low starting precision must escalate, not fail."""
    result = run(ClassFieldJob.create(-52, 5, "j", 256))
    assert result.exponent == 12
    assert result.escalations == 2
    assert result.precision_bits_used == 1024
    assert result.irreducible == IntPolynomial(HILBERT_MINUS_52_ASC)


def test_rr_certifies_at_the_requested_precision_for_a_large_discriminant():
    """At (-2003, 5) the reduced points climb to Im ~ 22, where r is tiny;
    the replay keeps the value's bits, so 256 bits certify without an
    escalation, with the polynomial that 512 bits give."""
    result = run(ClassFieldJob.create(-2003, 5, "rogers-ramanujan", 256))
    assert result.escalations == 0
    assert result.precision_bits_used == 256
    assert result.polynomial.degree == 216
    assert result.exponent == 1
    wider = run(ClassFieldJob.create(-2003, 5, "rogers-ramanujan", 512))
    assert result.irreducible == wider.irreducible


@pytest.mark.parametrize("disc, level, function, bits, degree, exponent", [
    (-52, 5, "rogers-ramanujan", 320, 24, 1),
    (-84, 7, "klein-quotient:1/7,0|2/7,0", 256, 84, 1),
    (-52, 5, "j", 256, 24, 12),
])
def test_run_reduces_exact_points_without_the_numeric_loop(
        monkeypatch, disc, level, function, bits, degree, exponent):
    """Every evaluation point of run() is a form already, reduced by Gauss
    reduction as it is; no number is ever converted to a form."""
    def refuse(tau):
        raise AssertionError("an evaluation point of run() was a number")

    monkeypatch.setattr(modfunc, "form_of_point", refuse)
    result = run(ClassFieldJob.create(disc, level, function, bits))
    assert result.polynomial.degree == degree
    assert result.exponent == exponent


def test_run_is_independent_of_the_tie_break():
    job = ClassFieldJob.create(-52, 5, "rogers-ramanujan", 256)
    lo = run(job, table=enumerate_cosets(5, "min"))
    hi = run(job, table=enumerate_cosets(5, "max"))
    assert lo.polynomial == hi.polynomial
    assert lo.irreducible == hi.irreducible
    assert lo.exponent == hi.exponent


# ----------------------------------------------------------------------
# validation and failure paths
# ----------------------------------------------------------------------

def test_job_validation():
    with pytest.raises(ValueError):
        ClassFieldJob.create(-3, 5, "rogers-ramanujan")
    with pytest.raises(ValueError):
        ClassFieldJob.create(-4, 1, "j")
    with pytest.raises(ValueError):
        ClassFieldJob.create(-52, 0, "j")
    with pytest.raises(ValueError):
        ClassFieldJob.create(-52, 7, "rogers-ramanujan")  # 5 does not divide 7


def test_run_rejects_non_rational_functions():
    with pytest.raises(ValueError, match="lacks rational Fourier coefficients"):
        ClassFieldJob.create(-52, 5, "klein-quotient:1/5,1/5|2/5,0")


@pytest.mark.parametrize("table_level", [1, 7])
def test_run_and_compute_conjugates_reject_a_table_of_another_level(table_level):
    job = ClassFieldJob.create(-52, 5, "rogers-ramanujan", 192)
    table = enumerate_cosets(table_level)
    with pytest.raises(ValueError, match="coset table level"):
        run(job, table=table)
    with pytest.raises(ValueError, match="coset table level"):
        compute_conjugates(job, table)


def test_run_rejects_mismatched_table():
    job = ClassFieldJob.create(-52, 5, "rogers-ramanujan", 192)
    with pytest.raises(ValueError):
        run(job, table=enumerate_cosets(10))


def _constant_spec(value) -> ModularFunctionSpec:
    def evaluate(tau, memo):
        return mpc(value)

    return ModularFunctionSpec(
        name="synthetic-constant",
        level=1,
        has_rational_coefficients=True,
        evaluator=evaluate,
    )


def _failing_spec(calls: list) -> ModularFunctionSpec:
    """Never converges; records the target bits of every call."""
    def evaluate(tau, memo):
        calls.append(mp.prec - modfunc.GUARD_BITS)
        raise NonConvergenceError("synthetic")

    return ModularFunctionSpec(
        name="synthetic-failure",
        level=1,
        has_rational_coefficients=True,
        evaluator=evaluate,
    )


def test_pole_guard():
    job = ClassFieldJob(
        order=CMOrder.from_discriminant(-52),
        level=5,
        function=_constant_spec(mpf(10) ** 200),
        precision=PrecisionConfig(target_bits=256),
    )
    with pytest.raises(PoleError):
        run(job)


def test_precision_exhaustion_on_permanent_nonconvergence():
    """More bits only lengthen a series, so run() does not escalate on
    non-convergence: the error leaves the first attempt."""
    calls = []
    job = ClassFieldJob(
        order=CMOrder.from_discriminant(-52),
        level=1,
        function=_failing_spec(calls),
        precision=PrecisionConfig(target_bits=64),
    )
    with pytest.raises(NonConvergenceError):
        run(job)
    assert calls == [64]


@pytest.mark.parametrize("max_escalations", [0, 2])
def test_compute_conjugates_makes_one_attempt(max_escalations):
    calls = []
    job = ClassFieldJob(
        order=CMOrder.from_discriminant(-52),
        level=1,
        function=_failing_spec(calls),
        precision=PrecisionConfig(target_bits=64, max_escalations=max_escalations),
    )
    with pytest.raises(NonConvergenceError):
        compute_conjugates(job)
    assert calls == [64]


@pytest.mark.parametrize("bits, kind", [(256, "rounding"), (512, "value")])
def test_exhaustion_names_the_certificate_that_failed(bits, kind):
    """(-391, 1, j) misses the rounding threshold at 256 bits; at 512 bits
    it rounds, but the polynomial does not vanish at the value within the
    (absolute) threshold.  Both failures keep the RoundingFailureError type,
    so they escalate alike, but the message names the check."""
    job = ClassFieldJob.create(-391, 1, "j", bits)
    job = replace(job, precision=replace(job.precision, max_escalations=0))
    with pytest.raises(PrecisionExhaustedError) as info:
        run(job)
    cause = info.value.__cause__
    assert isinstance(cause, RoundingFailureError)
    assert cause.kind == kind
    assert f"(last failure: {kind} residual " in str(info.value)


def test_rounding_residual_keeps_the_fraction_of_wide_coefficients():
    """(-52, 5, j) at 256 bits assembles 12 copies of H_-52, coefficients
    of 589 bits over a 320-bit scale: its rounding residual must be measured
    on the whole fraction, not on the coefficients cut to 320 bits, which
    read about 4e-4 where the distance is about one half."""
    job = ClassFieldJob.create(-52, 5, "j", 256)
    job = replace(job, precision=PrecisionConfig(256, max_escalations=0))
    with pytest.raises(PrecisionExhaustedError) as info:
        run(job)
    cause = info.value.__cause__
    assert isinstance(cause, RoundingFailureError)
    assert cause.kind == "rounding"
    assert cause.residual > mpf("0.25")


def test_a_residual_past_the_decimal_digit_limit_formats():
    """(-4079, 1, j, 4096) fails its value check on a residual near 2^20450
    before it certifies at 32,768 bits, where it prints residuals far below
    1.  mpmath's str of such a long mantissa passes Python's 4,300-digit
    limit for integer conversion, and its ValueError would read as invalid
    input (exit 2); the message and the printed residuals carry a few
    digits."""
    with mp.workprec(32768 + modfunc.GUARD_BITS):
        residual = mp.sqrt(mpf(2)) * mpf(2) ** 20450
        threshold = mpf(2) ** -8192
    error = RoundingFailureError(residual, threshold, kind="value")
    assert str(error) == "value residual 1.6365e+6156 exceeds threshold 9.168e-2467"
    with mp.workprec(32768 + modfunc.GUARD_BITS):
        certified = mp.sqrt(mpf(2)) * mpf(2) ** -16000
    assert nstr(certified) == "4.68364935829e-4817"


def test_precision_exhaustion_on_non_integer_values():
    """A constant value of one half gives binomial coefficients over 2^24;
    rounding can never certify them, and escalation cannot fix that."""
    job = ClassFieldJob(
        order=CMOrder.from_discriminant(-52),
        level=5,
        function=_constant_spec(mpf("0.5")),
        precision=PrecisionConfig(target_bits=64),
    )
    with pytest.raises(PrecisionExhaustedError):
        run(job)


def test_synthetic_integer_constant_exercises_the_power_path():
    job = ClassFieldJob(
        order=CMOrder.from_discriminant(-52),
        level=5,
        function=_constant_spec(3),
        precision=PrecisionConfig(target_bits=64),
    )
    result = run(job)
    assert result.irreducible == IntPolynomial([-3, 1])
    assert result.exponent == 24
    assert result.max_rounding_residual == 0


def test_cross_check_rejects_a_truncated_table():
    table = enumerate_cosets(5)
    truncated = replace(table, reps=table.reps[:-1])
    job = ClassFieldJob.create(-52, 5, "rogers-ramanujan", 192)
    with pytest.raises(CrossCheckError):
        run(job, table=truncated)
