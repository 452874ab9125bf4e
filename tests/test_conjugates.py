"""The conjugate pipeline: extended classes, twisting matrices, polynomials."""

import random
from math import gcd

import pytest
from mpmath import mp, mpc, mpf

from classpoly.conjugates import (
    CartanOrder,
    ClassFieldJob,
    ExtendedClassRep,
    assemble_poly,
    build_extended_classes,
    cartan_order,
    compute_conjugates,
    conjugate_matrix,
    run,
)
from classpoly.errors import (
    CrossCheckError,
    NonConvergenceError,
    PoleError,
    PrecisionExhaustedError,
)
from classpoly.modfunc import (
    APComplex,
    ModularFunctionSpec,
    PrecisionConfig,
    catalog_lookup,
    eval_rr,
)
from classpoly.modgroup import (
    CosetTable,
    enumerate_cosets,
    lift_sl2_mod_n,
    mobius_apply,
)
from classpoly.polyalgebra import (
    IntPolynomial,
    eval_poly,
    power_check,
    round_coefficients,
)
from classpoly.quadforms import CMOrder, reduced_forms

from _oracles import random_principal_congruence
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
    assert conjugate_matrix(principal[0], order, 5) == ((1, 0), (0, 1))


def test_conjugate_matrix_structure():
    """Recompute the defining pieces independently for every class: the top
    row shifts by u = -(a^-1) * (b + b0)/2 and the bottom row carries a^-1."""
    for disc, level in ((-52, 5), (-23, 2), (-68, 5), (-7, 5)):
        order = CMOrder.from_discriminant(disc)
        for rep in build_extended_classes(order, level):
            alpha = conjugate_matrix(rep, order, level)
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
        a = d.rep.form.a % job.level
        assert lift_rows[1] == (
            (a * d.alpha[1][0]) % job.level,
            (a * d.alpha[1][1]) % job.level,
        )


def test_identity_class_value_is_the_frozen_special_value(golden_conjugates):
    job, data = golden_conjugates
    base = next(d for d in data if d.identity_class)
    assert base.eval_point == job.order.generator()
    with mp.workprec(260):
        v = base.value.to_mpc()
        assert abs(v.real - mpf(RR_AT_SQRT_MINUS_13)) < mpf("1e-44")
        assert abs(v.imag) < mpf(2) ** -180


def test_conjugate_values_match_a_float_route(golden_conjugates):
    """Each value came from the exact Moebius image; recompute through the
    floating route and through the function directly."""
    job, data = golden_conjugates
    for d in data[:8]:
        with mp.workprec(300):
            arg = mobius_apply(d.lifted, d.eval_point.to_mpc())
        w = eval_rr(arg, CFG192).to_mpc()
        with mp.workprec(260):
            assert abs(d.value.to_mpc() - w) < mpf(2) ** -170


def test_conjugate_values_are_pairwise_distinct(golden_conjugates):
    _, data = golden_conjugates
    values = [d.value.to_mpc() for d in data]
    with mp.workprec(260):
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                assert abs(values[i] - values[j]) > mpf(2) ** -50


def test_value_is_independent_of_the_coset_representative():
    """Replacing a class representative gamma by gamma * delta with delta in
    the sign-extended level subgroup must not change the conjugate value."""
    rng = random.Random(51)
    order = CMOrder.from_discriminant(-52)
    level = 5
    fn = catalog_lookup("rogers-ramanujan")
    reps = build_extended_classes(order, level)

    def class_value(rep):
        alpha = conjugate_matrix(rep, order, level)
        a = rep.form.a % level
        sl_rows = (alpha[0], ((a * alpha[1][0]) % level, (a * alpha[1][1]) % level))
        lifted = lift_sl2_mod_n(sl_rows, level)
        point = reduced_forms(order.disc)[rep.i].cm_point().neg_conjugate()
        return fn.evaluate(point.mobius(lifted), CFG192).to_mpc()

    from classpoly.modgroup import UnimodularMatrix, translation

    minus_one = UnimodularMatrix(-1, 0, 0, -1)
    for rep in (reps[0], reps[7], reps[13]):
        base = class_value(rep)
        for _ in range(4):
            # a general subgroup element: principal-congruence part, a free
            # upper-right translation, and possibly the global sign
            delta = random_principal_congruence(rng, level)
            delta = delta @ translation(rng.randint(-6, 6))
            if rng.random() < 0.5:
                delta = delta @ minus_one
            shifted = ExtendedClassRep(
                i=rep.i,
                k=rep.k,
                gamma=rep.gamma @ delta,
                form=rep.form.transform(delta),
            )
            with mp.workprec(260):
                assert abs(class_value(shifted) - base) < mpf(2) ** -170


def test_assemble_poly_uses_reality_shortcut(golden_conjugates):
    job, data = golden_conjugates
    coeffs, shortcut = assemble_poly(data, job)
    assert shortcut is True
    assert len(coeffs) == 25


# ----------------------------------------------------------------------
# full runs
# ----------------------------------------------------------------------

def test_run_golden_polynomial():
    result = run(ClassFieldJob.create(-52, 5, "rogers-ramanujan", 320))
    assert result.polynomial == IntPolynomial(GOLDEN_MINUS_52_LEVEL_5_ASC)
    assert result.irreducible == result.polynomial
    assert result.exponent == 1
    assert result.escalations == 0
    assert result.reality_shortcut is True
    assert result.max_rounding_residual < mpf("1e-20")


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
    coefficients of the degree-84 product round cleanly at 256 bits."""
    job = ClassFieldJob.create(-84, 7, "klein-quotient:1/7,0|2/7,0", 256)
    data = compute_conjugates(job)
    assert len(data) == 84
    coeffs, shortcut = assemble_poly(data, job)
    assert shortcut is True
    polynomial, residual = round_coefficients(coeffs, fail_above=mpf(2) ** -64)
    assert len(polynomial.coeffs) == 85
    assert residual < mpf(2) ** -64
    assert polynomial.is_monic()
    # a quotient of Siegel functions takes unit values
    assert abs(polynomial.coeffs[0]) == 1


def test_run_escalates_until_the_power_structure_resolves():
    """At level 5 the degree-1 function packs 12 copies of its degree-2
    polynomial; low starting precision must escalate, not fail."""
    result = run(ClassFieldJob.create(-52, 5, "j", 256))
    assert result.exponent == 12
    assert result.escalations == 2
    assert result.precision_bits_used == 1024
    assert result.irreducible == IntPolynomial(HILBERT_MINUS_52_ASC)


def test_run_is_independent_of_the_tie_break():
    job = ClassFieldJob.create(-52, 5, "rogers-ramanujan", 256)
    lo = run(job, table=enumerate_cosets(5, "min"))
    hi = run(job, table=enumerate_cosets(5, "max"))
    assert lo.polynomial == hi.polynomial
    assert lo.irreducible == hi.irreducible
    assert lo.exponent == hi.exponent


def test_run_accepts_a_round_tripped_table():
    job = ClassFieldJob.create(-52, 5, "rogers-ramanujan", 192)
    table = CosetTable.loads(enumerate_cosets(5).dumps())
    result = run(job, table=table)
    assert result.polynomial.degree == 24


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
    job = ClassFieldJob.create(-52, 5, "klein-quotient:1/5,1/5|2/5,0")
    with pytest.raises(ValueError):
        run(job)


def test_run_rejects_mismatched_table():
    job = ClassFieldJob.create(-52, 5, "rogers-ramanujan", 192)
    with pytest.raises(ValueError):
        run(job, table=enumerate_cosets(10))


def _constant_spec(value) -> ModularFunctionSpec:
    def evaluate(tau, cfg):
        with mp.workprec(cfg.working_bits):
            return APComplex.from_mpc(mpc(value), cfg.target_bits)

    return ModularFunctionSpec(
        name="synthetic-constant",
        level=1,
        has_rational_coefficients=True,
        evaluator=evaluate,
    )


def _failing_spec(calls: list) -> ModularFunctionSpec:
    """Never converges; records the target bits of every call."""
    def evaluate(tau, cfg):
        calls.append(cfg.target_bits)
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
    job = ClassFieldJob(
        order=CMOrder.from_discriminant(-52),
        level=1,
        function=_failing_spec([]),
        precision=PrecisionConfig(target_bits=64),
    )
    with pytest.raises(PrecisionExhaustedError):
        run(job)


@pytest.mark.parametrize("max_escalations", [0, 2])
def test_compute_conjugates_escalates_then_gives_up(max_escalations):
    calls = []
    job = ClassFieldJob(
        order=CMOrder.from_discriminant(-52),
        level=1,
        function=_failing_spec(calls),
        precision=PrecisionConfig(target_bits=64, max_escalations=max_escalations),
    )
    with pytest.raises(PrecisionExhaustedError) as info:
        compute_conjugates(job)
    assert isinstance(info.value.__cause__, NonConvergenceError)
    assert calls == [64 * 2 ** e for e in range(max_escalations + 1)]


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
    data = table.to_json_dict()
    data["reps"] = data["reps"][:-1]
    truncated = CosetTable.from_json_dict(data)
    job = ClassFieldJob.create(-52, 5, "rogers-ramanujan", 192)
    with pytest.raises(CrossCheckError):
        run(job, table=truncated)
