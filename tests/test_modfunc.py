"""Evaluators for the level-5 function, eta, j, and Klein forms.

Every special function is checked against an independent route: the
continued fraction for the level-5 value, mpmath's qp/kleinj/jtheta for the
rest, plus classical closed forms and transformation laws.
"""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from classpoly.errors import NonConvergenceError
from classpoly.modfunc import (
    APComplex,
    DEFAULT_PRECISION,
    PrecisionConfig,
    catalog_entries,
    catalog_lookup,
    check_icosahedral,
    check_klein_relation,
    eval_eta,
    eval_j,
    eval_klein,
    eval_rr,
    eval_rr_product,
)

from _oracles import (
    eta_reference,
    j_reference,
    klein_theta_reference,
    random_principal_congruence,
    random_sl2,
    rr_continued_fraction,
)
from frozen_values import RR_AT_SQRT_MINUS_13

CFG128 = PrecisionConfig(target_bits=128)
CFG192 = PrecisionConfig(target_bits=192)
CFG256 = PrecisionConfig(target_bits=256)

SAMPLE_POINTS = [
    mpc("0.31", "0.9"),
    mpc("-0.2", "1.7"),
    mpc("0.05", "0.62"),
    mpc("-0.49", "1.05"),
    mpc("0.44", "2.6"),
]


# ----------------------------------------------------------------------
# precision plumbing
# ----------------------------------------------------------------------

def test_precision_config_validation():
    with pytest.raises(ValueError):
        PrecisionConfig(target_bits=8)
    with pytest.raises(ValueError):
        PrecisionConfig(guard_bits=16)
    with pytest.raises(ValueError):
        PrecisionConfig(max_terms=4)
    with pytest.raises(ValueError):
        PrecisionConfig(escalation_factor=1)


def test_precision_escalation_grows_bits_and_budget():
    cfg = PrecisionConfig(target_bits=100, max_terms=1000)
    up = cfg.escalated()
    assert up.target_bits == 200
    assert up.max_terms == 2000
    assert up.guard_bits == cfg.guard_bits
    assert cfg.working_bits == 100 + cfg.guard_bits


def test_apcomplex_transport_is_lossless():
    with mp.workprec(300):
        z = mp.sqrt(mpc(2, 3))  # full 300-bit mantissas
        boxed = APComplex.from_mpc(z, 300)
    # reading back at the default 53-bit ambient must not round
    recovered = boxed.to_mpc()
    assert recovered.real._mpf_ == z.real._mpf_
    assert recovered.imag._mpf_ == z.imag._mpf_
    assert boxed.conjugate().to_mpc().imag == -z.imag


def test_apcomplex_real_test_and_strings():
    v = APComplex.from_mpc(mpc("1.5", "1e-30"), 128)
    assert v.is_real_within(mpf("1e-20"))
    assert not v.is_real_within(mpf("1e-40"))
    assert "1.5" in str(v)


# ----------------------------------------------------------------------
# the level-5 function
# ----------------------------------------------------------------------

def test_rr_matches_continued_fraction():
    for tau in SAMPLE_POINTS:
        for cfg in (CFG128, CFG256):
            ours = eval_rr(tau, cfg).to_mpc()
            ref = rr_continued_fraction(tau, cfg.target_bits + 40)
            with mp.workprec(cfg.working_bits):
                assert abs(ours - ref) < mpf(2) ** (-cfg.target_bits + 6)


def test_rr_special_values():
    with mp.workprec(360):
        # the classical value at i
        v = eval_rr(mpc(0, 1), CFG256).to_mpc()
        phi = (1 + mp.sqrt(5)) / 2
        closed = mp.sqrt(phi * mp.sqrt(5)) - phi
        assert abs(v - closed) < mpf(2) ** -250
        # frozen high-precision value on the imaginary axis; the string must
        # be parsed at high precision or the comparison itself truncates
        w = eval_rr(mpc(0, mp.sqrt(13)), CFG256).to_mpc()
        assert abs(w.real - mpf(RR_AT_SQRT_MINUS_13)) < mpf("1e-44")
        assert abs(w.imag) < mpf(2) ** -250


def test_rr_translation_rule():
    with mp.workprec(256):
        zeta = mp.expjpi(mpf(2) / 5)
        for tau in SAMPLE_POINTS[:3]:
            v = eval_rr(tau, CFG192).to_mpc()
            v1 = eval_rr(tau + 1, CFG192).to_mpc()
            v5 = eval_rr(tau + 5, CFG192).to_mpc()
            assert abs(v1 - zeta * v) < mpf(2) ** -180
            assert abs(v5 - v) < mpf(2) ** -180


def _rr_t_rule(v):
    """r(tau + 1) in terms of v = r(tau)."""
    return mp.expjpi(mpf(2) / 5) * v


def _rr_s_rule(v):
    """r(-1/tau) in terms of v = r(tau)."""
    phi = (1 + mp.sqrt(5)) / 2
    return (1 - phi * v) / (phi + v)


def test_rr_inversion_rule_from_catalog():
    spec = catalog_lookup("rogers-ramanujan")
    with mp.workprec(256):
        for tau in SAMPLE_POINTS[:3]:
            v = spec.evaluate(tau, CFG192).to_mpc()
            w = spec.evaluate(-1 / tau, CFG192).to_mpc()
            assert abs(w - _rr_s_rule(v)) < mpf(2) ** -175
            # the rule is an involution
            assert abs(_rr_s_rule(_rr_s_rule(v)) - v) < mpf(2) ** -175


def test_rr_rules_hold_for_the_raw_product():
    """The translation and inversion rules that eval_rr replays, checked
    against the unreduced q-product on both sides."""
    cfg = PrecisionConfig(target_bits=160)
    tol = mpf(2) ** -120
    with mp.workprec(cfg.working_bits):
        for k in range(10):
            z = mpc(mpf(-45 + 10 * k) / 100, mpf(90 + 9 * k) / 100)
            v = eval_rr_product(z, cfg).to_mpc()
            assert abs(eval_rr_product(z + 1, cfg).to_mpc() - _rr_t_rule(v)) < tol
            assert abs(eval_rr_product(-1 / z, cfg).to_mpc() - _rr_s_rule(v)) < tol
            assert abs(_rr_s_rule(_rr_s_rule(v)) - v) < tol


def test_rr_replay_agrees_with_direct_product_near_real_axis():
    """Points with tiny imaginary part force the reduce-and-replay path;
    the raw product with an enlarged budget is the cross-route."""
    big = PrecisionConfig(target_bits=128, max_terms=2_000_000)
    for tau in (mpc("0.37", "0.01"), mpc("-1.28", "0.004"), mpc("0.5", "0.002")):
        via_replay = eval_rr(tau, CFG128).to_mpc()
        direct = eval_rr_product(tau, big).to_mpc()
        with mp.workprec(220):
            assert abs(via_replay - direct) < mpf(2) ** -100


def test_rr_principal_congruence_invariance_sample():
    rng = random.Random(31)
    with mp.workprec(256):
        tau = mpc("0.23", "1.12")
        v = eval_rr(tau, CFG192).to_mpc()
        for _ in range(5):
            g = random_principal_congruence(rng, 5)
            moved = (g.a * tau + g.b) / (g.c * tau + g.d)
            w = eval_rr(moved, CFG192).to_mpc()
            assert abs(w - v) < mpf(2) ** -160


def test_rr_product_exhausts_term_budget():
    tight = PrecisionConfig(target_bits=128, max_terms=16)
    with pytest.raises(NonConvergenceError):
        eval_rr_product(mpc("0.3", "0.01"), tight)


def test_rejects_lower_half_plane():
    for fn in (eval_rr, eval_eta, eval_j):
        with pytest.raises(ValueError):
            fn(mpc(0, -1), CFG128)


# ----------------------------------------------------------------------
# eta
# ----------------------------------------------------------------------

def test_eta_matches_qp_reference():
    for tau in SAMPLE_POINTS:
        ours = eval_eta(tau, CFG192).to_mpc()
        ref = eta_reference(tau, 232)
        with mp.workprec(260):
            assert abs(ours - ref) < mpf(2) ** -186


def test_eta_closed_forms():
    with mp.workprec(360):
        g = mp.gamma(mpf(1) / 4)
        p34 = mp.pi ** (mpf(3) / 4)
        v1 = eval_eta(mpc(0, 1), CFG256).to_mpc()
        assert abs(v1 - g / (2 * p34)) < mpf(2) ** -245
        v2 = eval_eta(mpc(0, 2), CFG256).to_mpc()
        assert abs(v2 - g / (2 ** mpf("1.375") * p34)) < mpf(2) ** -245


def test_eta_24th_power_inversion():
    with mp.workprec(300):
        for tau in SAMPLE_POINTS[:3]:
            lhs = eval_eta(-1 / tau, CFG192).to_mpc() ** 24
            rhs = tau ** 12 * eval_eta(tau, CFG192).to_mpc() ** 24
            assert abs(lhs - rhs) / abs(rhs) < mpf(2) ** -170


# ----------------------------------------------------------------------
# j
# ----------------------------------------------------------------------

def test_j_matches_mpmath_reference():
    for tau in SAMPLE_POINTS:
        ours = eval_j(tau, CFG192).to_mpc()
        ref = j_reference(tau, 232)
        with mp.workprec(260):
            assert abs(ours - ref) / abs(ref) < mpf(2) ** -180


def test_j_classical_anchors():
    with mp.workprec(360):
        cases = [
            (mpc(0, 1), 1728),
            (mpc(0, mp.sqrt(2)), 8000),
            (mpc(mpf(-1) / 2, mp.sqrt(7) / 2), -3375),
            (mpc(mpf(-1) / 2, mp.sqrt(11) / 2), -32768),
        ]
        for tau, want in cases:
            got = eval_j(tau, CFG256).to_mpc()
            assert abs(got - want) < mpf(2) ** -240
        corner = eval_j(mpc(mpf(-1) / 2, mp.sqrt(3) / 2), CFG256).to_mpc()
        assert abs(corner) < mpf(2) ** -240


def test_j_full_modular_invariance_sample():
    rng = random.Random(32)
    with mp.workprec(256):
        tau = mpc("0.375", "0.88")
        v = eval_j(tau, CFG192).to_mpc()
        for _ in range(5):
            g = random_sl2(rng, 9)
            moved = (g.a * tau + g.b) / (g.c * tau + g.d)
            w = eval_j(moved, CFG192).to_mpc()
            assert abs(w - v) / abs(v) < mpf(2) ** -165


# ----------------------------------------------------------------------
# Klein forms
# ----------------------------------------------------------------------

KLEIN_PARAMS = [
    (Fraction(1, 5), Fraction(0)),
    (Fraction(2, 5), Fraction(0)),
    (Fraction(1, 5), Fraction(2, 5)),
    (Fraction(-3, 7), Fraction(1, 7)),
    (Fraction(1, 2), Fraction(1, 3)),
]


def test_klein_matches_theta_reference():
    for tau in SAMPLE_POINTS[:3]:
        for r1, r2 in KLEIN_PARAMS:
            ours = eval_klein(r1, r2, tau, CFG192).to_mpc()
            ref = klein_theta_reference(r1, r2, tau, 232)
            with mp.workprec(260):
                assert abs(ours - ref) / abs(ref) < mpf(2) ** -180


def test_klein_quasi_periodicity():
    tau = mpc("0.13", "1.21")
    with mp.workprec(300):
        for r1, r2 in [(Fraction(1, 5), Fraction(0)), (Fraction(-2, 5), Fraction(3, 5))]:
            base = eval_klein(r1, r2, tau, CFG192).to_mpc()
            up2 = eval_klein(r1, r2 + 1, tau, CFG192).to_mpc()
            law2 = mp.expjpi(mpf(r1.numerator) / r1.denominator - 1)
            assert abs(up2 / base - law2) < mpf(2) ** -170
            if -1 < r1 + 1 < 1:
                up1 = eval_klein(r1 + 1, r2, tau, CFG192).to_mpc()
                law1 = -mp.expjpi(-mpf(r2.numerator) / r2.denominator)
                assert abs(up1 / base - law1) < mpf(2) ** -170


def test_klein_parameter_validation():
    with pytest.raises(ValueError):
        eval_klein(Fraction(3, 2), Fraction(0), mpc(0, 1), CFG128)
    with pytest.raises(ValueError):
        eval_klein(Fraction(0), Fraction(1), mpc(0, 1), CFG128)
    with pytest.raises(NonConvergenceError):
        eval_klein(
            Fraction(1, 5),
            Fraction(0),
            mpc("0.3", "0.002"),
            PrecisionConfig(target_bits=128, max_terms=16),
        )


# ----------------------------------------------------------------------
# identity residuals
# ----------------------------------------------------------------------

def test_icosahedral_identity_residuals():
    for tau in SAMPLE_POINTS:
        for cfg in (CFG128, CFG256):
            residual = check_icosahedral(tau, cfg)
            assert residual < mpf(2) ** (-(cfg.target_bits // 2))


def test_klein_quotient_identity_residuals():
    for tau in SAMPLE_POINTS:
        for cfg in (CFG128, CFG256):
            residual = check_klein_relation(tau, cfg)
            assert residual < mpf(2) ** (-(cfg.target_bits // 2))


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

def test_catalog_entries():
    names = {e.name: e for e in catalog_entries()}
    assert names["rogers-ramanujan"].level == 5
    assert names["rogers-ramanujan"].has_rational_coefficients
    assert names["j"].level == 1
    assert names["j"].has_rational_coefficients


def test_catalog_lookup_unknown():
    with pytest.raises(ValueError):
        catalog_lookup("weierstrass")


def test_klein_quotient_parsing():
    spec = catalog_lookup("klein-quotient:1/5,0|2/5,0")
    assert spec.level == 5
    assert spec.has_rational_coefficients
    imag = catalog_lookup("klein-quotient:1/5,1/5|2/5,0")
    assert imag.level == 5
    assert not imag.has_rational_coefficients
    even = catalog_lookup("klein-quotient:1/2,0|0,1/2")
    assert even.level == 2
    assert not even.has_rational_coefficients


def test_klein_quotient_parsing_errors():
    for bad in (
        "klein-quotient:1/5,0",
        "klein-quotient:1,0|2,0",
        "klein-quotient:6/5,0|2/5,0",
        "klein-quotient:1/5,0|2,1",
        "klein-quotient:a,b|c,d",
    ):
        with pytest.raises(ValueError):
            catalog_lookup(bad)


def test_klein_quotient_evaluator_is_the_scaled_ratio():
    spec = catalog_lookup("klein-quotient:1/5,0|2/5,0")
    tau = mpc("0.11", "0.93")
    got = spec.evaluate(tau, CFG192).to_mpc()
    with mp.workprec(300):
        k1 = eval_klein(Fraction(1, 5), Fraction(0), 5 * tau, CFG192).to_mpc()
        k2 = eval_klein(Fraction(2, 5), Fraction(0), 5 * tau, CFG192).to_mpc()
        assert abs(got - k1 / k2) < mpf(2) ** -180
        # and that ratio is the level-5 continued-fraction value
        assert abs(got - eval_rr(tau, CFG192).to_mpc()) < mpf(2) ** -170


# Values of N*tau near the real line, where the raw q-products are slow.
LOW_SCALED_POINTS = [
    mpc("0.37", "0.01"),
    mpc("-1.28", "0.05"),
    mpc("2.13", "0.17"),
    mpc("0.5", "0.3"),
]


@pytest.mark.parametrize(
    "name, level",
    [
        ("klein-quotient:1/5,1/5|2/5,0", 5),
        ("klein-quotient:1/7,0|3/7,2/7", 7),
        ("klein-quotient:-3/7,1/7|1/2,1/3", 42),
    ],
)
def test_reduced_klein_quotient_matches_the_raw_products(name, level):
    """The reduced evaluator moves the parameters by the transformation law;
    the ratio of raw q-products at N*tau, with a large budget, must agree."""
    spec = catalog_lookup(name)
    assert spec.level == level
    top, bottom = (
        [Fraction(s) for s in pair.split(",")]
        for pair in name.split(":")[1].split("|")
    )
    big = PrecisionConfig(target_bits=192, max_terms=2_000_000)
    for w in LOW_SCALED_POINTS:
        with mp.workprec(53):
            tau = w / level
        with mp.workprec(300):
            w_exact = level * tau
        got = spec.evaluate(tau, CFG192).to_mpc()
        k_top = eval_klein(*top, w_exact, big).to_mpc()
        k_bottom = eval_klein(*bottom, w_exact, big).to_mpc()
        with mp.workprec(300):
            want = k_top / k_bottom
            assert abs(got - want) / abs(want) < mpf(2) ** -180


def test_reduced_klein_quotient_converges_where_the_raw_product_cannot():
    """At Im(5 tau) = 0.003 a 64-factor budget suffices in the fundamental
    domain, while the raw product would need thousands of factors."""
    tight = PrecisionConfig(target_bits=128, max_terms=64)
    spec = catalog_lookup("klein-quotient:1/5,0|2/5,0")
    with mp.workprec(53):
        tau = mpc("0.41", "0.003") / 5
    got = spec.evaluate(tau, tight).to_mpc()
    with pytest.raises(NonConvergenceError):
        eval_klein(Fraction(1, 5), Fraction(0), 5 * tau, tight)
    # the continued-fraction value, reduced by its own S/T rules
    with mp.workprec(220):
        assert abs(got - eval_rr(tau, CFG128).to_mpc()) < mpf(2) ** -100


def test_same_value_across_precisions():
    tau = mpc("0.27", "1.33")
    with mp.workprec(320):
        lo = eval_rr(tau, CFG128).to_mpc()
        hi = eval_rr(tau, CFG256).to_mpc()
        assert abs(lo - hi) < mpf(2) ** -120
        lo_j = eval_j(tau, CFG128).to_mpc()
        hi_j = eval_j(tau, CFG256).to_mpc()
        assert abs(lo_j - hi_j) / abs(hi_j) < mpf(2) ** -120
