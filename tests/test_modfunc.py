"""Evaluators for the level-5 function, eta, j, and Klein forms.

Every special function is checked against an independent route: the
continued fraction for the level-5 value, mpmath's qp/kleinj/jtheta for the
rest, plus classical closed forms and transformation laws.
"""

import random
import time
from fractions import Fraction

import pytest
from mpmath import mp, mpc, mpf

from classpoly import modfunc
from classpoly.errors import NonConvergenceError
from classpoly.modfunc import (
    DEFAULT_PRECISION,
    GUARD_BITS,
    PrecisionConfig,
    catalog_entries,
    catalog_lookup,
    check_icosahedral,
    check_klein_relation,
    eval_j,
    eval_rr,
    _icosahedral_residual,
    _j_ctx,
    _replay_value,
    _rr_ctx,
    _theta_ctx,
)
from classpoly.modgroup import S, UnimodularMatrix, mobius_apply, translation
from classpoly.quadforms import QuadraticForm, reduced_forms

from _oracles import (
    eta_reference,
    j_reference,
    klein_theta_reference,
    random_principal_congruence,
    random_sl2,
    rr_continued_fraction,
    theta_reference,
    zeta5,
    zeta5_matmul,
    zeta5_proportional,
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
    with pytest.raises(ValueError, match="max_escalations"):
        PrecisionConfig(max_escalations=-1)
    assert PrecisionConfig(max_escalations=0).max_escalations == 0


def test_precision_escalation_grows_bits():
    cfg = PrecisionConfig(target_bits=100)
    up = cfg.escalated()
    assert up.target_bits == 200
    assert up.working_bits == 200 + GUARD_BITS
    assert cfg.working_bits == 100 + GUARD_BITS


# ----------------------------------------------------------------------
# the level-5 function
# ----------------------------------------------------------------------

def test_rr_matches_continued_fraction():
    for tau in SAMPLE_POINTS:
        for cfg in (CFG128, CFG256):
            ours = eval_rr(tau, cfg)
            ref = rr_continued_fraction(tau, cfg.target_bits + 40)
            with mp.workprec(cfg.working_bits):
                assert abs(ours - ref) < mpf(2) ** (-cfg.target_bits + 6)


def test_rr_special_values():
    with mp.workprec(360):
        # the classical value at i
        v = eval_rr(mpc(0, 1), CFG256)
        phi = (1 + mp.sqrt(5)) / 2
        closed = mp.sqrt(phi * mp.sqrt(5)) - phi
        assert abs(v - closed) < mpf(2) ** -250
        # frozen high-precision value on the imaginary axis; the string must
        # be parsed at high precision or the comparison itself truncates
        w = eval_rr(mpc(0, mp.sqrt(13)), CFG256)
        assert abs(w.real - mpf(RR_AT_SQRT_MINUS_13)) < mpf("1e-44")
        assert abs(w.imag) < mpf(2) ** -250


def test_rr_translation_rule():
    with mp.workprec(256):
        zeta = mp.expjpi(mpf(2) / 5)
        for tau in SAMPLE_POINTS[:3]:
            v = eval_rr(tau, CFG192)
            v1 = eval_rr(tau + 1, CFG192)
            v5 = eval_rr(tau + 5, CFG192)
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
            v = spec.evaluate(tau, CFG192)
            w = spec.evaluate(-1 / tau, CFG192)
            assert abs(w - _rr_s_rule(v)) < mpf(2) ** -175
            # the rule is an involution
            assert abs(_rr_s_rule(_rr_s_rule(v)) - v) < mpf(2) ** -175


def test_rr_rules_hold_for_the_raw_product():
    """The translation and inversion rules that eval_rr replays, checked
    against the continued fraction, which replays nothing, on both sides."""
    tol = mpf(2) ** -120
    with mp.workprec(224):
        for k in range(10):
            z = mpc(mpf(-45 + 10 * k) / 100, mpf(90 + 9 * k) / 100)
            v = rr_continued_fraction(z, 160)
            assert abs(rr_continued_fraction(z + 1, 160) - _rr_t_rule(v)) < tol
            assert abs(rr_continued_fraction(-1 / z, 160) - _rr_s_rule(v)) < tol
            assert abs(_rr_s_rule(_rr_s_rule(v)) - v) < tol


def test_rr_replay_agrees_with_direct_product_near_real_axis():
    """Points with tiny imaginary part force the reduce-and-replay path;
    the continued fraction at tau itself, long there, is the cross-route."""
    for tau in (mpc("0.37", "0.01"), mpc("-1.28", "0.004"), mpc("0.5", "0.002")):
        via_replay = eval_rr(tau, CFG128)
        direct = rr_continued_fraction(tau, 168)
        with mp.workprec(220):
            assert abs(via_replay - direct) < mpf(2) ** -100


def test_rr_replay_keeps_its_precision_where_the_reduced_value_is_tiny():
    """At 0.3 + 1e-4 i the reduced point is high in the fundamental domain
    and r there is tiny; a first S step would keep only its absolute bits.
    The 128-bit value must be good to 128 bits against a 2048-bit one."""
    tau = mpc("0.3", "1e-4")
    ours = eval_rr(tau, CFG128)
    ref = eval_rr(tau, PrecisionConfig(target_bits=2048))
    with mp.workprec(2200):
        assert abs(ours - ref) / abs(ref) < mpf(2) ** -128


def test_rr_replay_returns_a_tiny_value_moved_by_a_translation():
    """A point high up reduces by a pure translation, which only multiplies
    r by a root of unity and loses no bits: r there is about 2^-362 and is
    returned, as the continued fraction at tau itself gives it.  The form is
    the principal point of D = -160003, so a level-5 class of that
    discriminant is evaluated there."""
    high, form = mpc("0.1", "200"), QuadraticForm(1, 1, 40001)
    with mp.workprec(300):
        root = form.to_mpc()
    for tau, point in ((high, high), (form, root)):
        got = eval_rr(tau, CFG128)
        want = rr_continued_fraction(point, 168)
        with mp.workprec(200):
            assert mp.mag(got) < -360
            assert abs(got - want) / abs(want) < mpf(2) ** -128


def test_rr_replay_is_right_at_a_point_very_near_a_cusp():
    """At (0.4123456789 + 1e-10 i) / 5 the reduced point has Im ~ 5390, so r
    there is about 2^-9800 and the value at tau about 2^9773; the exact
    reduction and the exact map keep it good to 2^-179 against the reduced
    Klein quotient at 1024 bits."""
    spec = catalog_lookup("klein-quotient:1/5,0|2/5,0")
    with mp.workprec(53):
        tau = mpc("0.4123456789", "1e-10") / 5
    got = eval_rr(tau, CFG128)
    want = spec.evaluate(tau, PrecisionConfig(target_bits=1024))
    with mp.workprec(1100):
        assert mp.mag(got) == 9773
        assert abs(got - want) / abs(want) < mpf(2) ** -179


def test_rr_replay_near_cusps_is_right():
    """Points just above rationals a/c: each 128-bit value is good to 2^-120
    against the reduced Klein quotient at 1024 bits, which moves its
    parameters exactly and replays nothing."""
    spec = catalog_lookup("klein-quotient:1/5,0|2/5,0")
    rng = random.Random(3)
    for _ in range(40):
        c = rng.randint(1, 12)
        x = rng.randint(0, c) / c + rng.uniform(-1e-6, 1e-6)
        with mp.workprec(53):
            tau = mpc(x, 10 ** rng.uniform(-7, -3))
        got = eval_rr(tau, CFG128)
        want = spec.evaluate(tau, PrecisionConfig(target_bits=1024))
        with mp.workprec(1100):
            assert abs(got - want) / abs(want) < mpf(2) ** -120, tau


def test_replay_value_is_r_at_the_moved_point():
    """_replay_value(gamma, r(z)) is r(gamma z) to 2^-100 relative, for
    gamma = -I, pure translations of either sign, S, matrices with c = 0
    mod 5 and a = +-2 mod 5 (v -> -zeta^k / v), and random matrices with
    c < 0, c = 0 and entries up to about 50 or up to 10^6, whose Euclid
    chains are long.  r(z) is the continued fraction; r(gamma z), near the
    real line, is the reduced Klein quotient, which moves its parameters
    exactly and replays nothing."""
    spec = catalog_lookup("klein-quotient:1/5,0|2/5,0")
    rng = random.Random(41)
    minus_one = UnimodularMatrix(-1, 0, 0, -1)
    gammas = [minus_one, translation(7), minus_one @ translation(-13), S,
              UnimodularMatrix(2, 1, 5, 3), UnimodularMatrix(-3, 2, 10, -7)]
    gammas += [random_sl2(rng, 50) for _ in range(12)]
    gammas += [random_sl2(rng, 10 ** 6) for _ in range(12)]
    assert any(g.c < 0 for g in gammas) and any(g.c == 0 for g in gammas)
    cfg = PrecisionConfig(target_bits=128)
    with mp.workprec(cfg.working_bits):
        z = mpc("0.1037", "1.41")
        r_z = rr_continued_fraction(z, cfg.working_bits)
        for gamma in gammas:
            got = _replay_value(gamma, r_z, {})
            want = spec.evaluate(mobius_apply(gamma, z), cfg)
            assert abs(got - want) < mpf(2) ** -100 * abs(want), gamma


def test_replay_value_inverts_a_tiny_value_to_full_relative_precision():
    """[[2, 1], [5, 3]] is +-[[2, 0], [0, 3]] T^2 mod 5, so it swaps 0 and
    infinity: r(z) of about 2^-300 goes to -zeta^(-b d) / r(z), about 2^300,
    with every working bit, and agrees with the Klein quotient at gamma z."""
    gamma = UnimodularMatrix(2, 1, 5, 3)
    cfg = PrecisionConfig(target_bits=128)
    with mp.workprec(cfg.working_bits):
        z = mpc("0.1", "165.5")
        r_z = rr_continued_fraction(z, cfg.working_bits)
        got = _replay_value(gamma, r_z, {})
    with mp.workprec(4 * cfg.working_bits):
        assert -302 < mp.mag(r_z) < -298
        want = -mp.expjpi(mpf(-2 * gamma.b * gamma.d) / 5) / r_z
        assert abs(got - want) < mpf(2) ** (1 - cfg.working_bits) * abs(want)
        klein = catalog_lookup("klein-quotient:1/5,0|2/5,0").evaluate(mobius_apply(gamma, z), cfg)
        assert abs(got - klein) < mpf(2) ** -120 * abs(klein)


ZETA_POWERS = [zeta5(*([0] * k + [1])) for k in range(5)]


def _word_matrix(gamma) -> tuple:
    """The T and S rules multiplied out over Z[zeta_5] along gamma = T^k1 S
    T^k2 S ... (+-T^m), the word Euclid reads off the first column."""
    def rule_t(k):
        return (ZETA_POWERS[k % 5], zeta5(), zeta5(), zeta5(1))

    phi = zeta5(0, 0, -1, -1)  # -(zeta^2 + zeta^3)
    rule_s = (zeta5(0, 0, 1, 1), zeta5(1), zeta5(1), phi)
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    product = rule_t(0)
    while c:
        k = a // c
        product = zeta5_matmul(zeta5_matmul(product, rule_t(k)), rule_s)
        a, b, c, d = c, d, k * c - a, k * d - b
    return zeta5_matmul(product, rule_t(b * d))


def _word_map(gamma, v):
    """The Moebius map of _word_matrix(gamma) at v, at the working precision."""
    zeta = mp.expjpi(mpf(2) / 5)
    a, b, c, d = (sum(x * zeta ** k for k, x in enumerate(entry)) for entry in _word_matrix(gamma))
    return (a * v + b) / (c * v + d)


def _lifts_of_psl2_mod_5(rng) -> dict:
    """One lift in SL2(Z) of each of the 60 elements of PSL2(Z/5), keyed by
    the element: the smaller of its entries mod 5 and their negatives."""
    lifts = {}
    while len(lifts) < 60:  # the order of PSL2(Z/5)
        g = random_sl2(rng, 12)
        entries = (g.a, g.b, g.c, g.d)
        lifts.setdefault(min(tuple(x % 5 for x in entries), tuple(-x % 5 for x in entries)), g)
    return lifts


def _reduced_rr_value(prec):
    """v = r(z) at a point z of the fundamental domain with trivial stabiliser."""
    with mp.workprec(prec):
        return rr_continued_fraction(mpc("0.1037", "1.41"), prec)


def test_icosahedral_table_has_one_map_per_element_of_psl2_mod_5():
    """_replay_value gives one map per element of PSL2(Z/5): at v = r(z),
    z reduced, another lift of the same element (negated, times a matrix of
    Gamma(5)) gives the same value, and the 60 elements give 60 distinct
    values, A5 acting faithfully on the Riemann sphere."""
    rng = random.Random(46)
    prec = CFG192.working_bits
    v, minus_one = _reduced_rr_value(prec), UnimodularMatrix(-1, 0, 0, -1)
    values = []
    for gamma in _lifts_of_psl2_mod_5(rng).values():
        other = minus_one @ gamma @ random_principal_congruence(rng, 5, bound=40)
        with mp.workprec(prec):
            got, again = _replay_value(gamma, v, {}), _replay_value(other, v, {})
            assert abs(got - again) < mpf(2) ** (4 - prec) * abs(got), (gamma, other)
        values.append(got)
    with mp.workprec(prec):
        assert min(abs(x - y) for i, x in enumerate(values) for y in values[:i]) > mpf("1e-3")


def test_icosahedral_maps_are_a_homomorphism():
    """_replay_value(g1 g2, v) is g1's word map applied to g2's word map of v,
    and the word matrix of g1 g2 is proportional to the product of those of
    g1 and g2 exactly over Z[zeta_5]."""
    rng = random.Random(43)
    prec = CFG192.working_bits
    v = _reduced_rr_value(prec)
    for _ in range(60):
        g1, g2 = random_sl2(rng, 60), random_sl2(rng, 60)
        assert zeta5_proportional(_word_matrix(g1 @ g2),
                                  zeta5_matmul(_word_matrix(g1), _word_matrix(g2))), (g1, g2)
        with mp.workprec(prec):
            got = _replay_value(g1 @ g2, v, {})
        with mp.workprec(prec + 64):
            want = _word_map(g1, _word_map(g2, v))
            assert abs(got - want) < mpf(2) ** (4 - prec) * abs(want), (g1, g2)


def test_icosahedral_maps_of_t_and_s_are_the_rr_rules():
    """T gives v -> zeta v and S gives v -> (1 - phi v) / (phi + v), as
    matrices and as values."""
    phi = zeta5(0, 0, -1, -1)
    assert zeta5_proportional(_word_matrix(translation(1)),
                              (zeta5(0, 1), zeta5(), zeta5(), zeta5(1)))
    assert zeta5_proportional(_word_matrix(S), (zeta5(0, 0, 1, 1), zeta5(1), zeta5(1), phi))
    with mp.workprec(CFG192.working_bits):
        v = rr_continued_fraction(mpc("0.21", "1.3"), CFG192.working_bits)
        tol = mpf(2) ** (4 - CFG192.working_bits)
        assert abs(_replay_value(translation(1), v, {}) - _rr_t_rule(v)) < tol * abs(v)
        assert abs(_replay_value(S, v, {}) - _rr_s_rule(v)) < tol


def test_maps_keeping_zero_and_infinity_are_the_closed_forms():
    """The 10 elements with c = 0 mod 5 act as the closed forms _replay_value
    applies as one mpc operation: [[zeta^(b d), 0], [0, 1]] for a = +-1 and
    [[0, -zeta^(-b d)], [1, 0]] for a = +-2 mod 5, to full relative precision
    at |v| ~ 2^-300.  The other 50 have no zero entry, so neither 0 nor
    infinity maps to 0 or infinity."""
    prec = CFG192.working_bits
    with mp.workprec(prec):
        tiny = rr_continued_fraction(mpc("0.1", "165.5"), prec)
    kept = 0
    for (a, b, c, d), gamma in _lifts_of_psl2_mod_5(random.Random(47)).items():
        m = _word_matrix(gamma)
        if c:
            assert all(any(zeta5(*entry)) for entry in m), gamma
            continue
        kept += 1
        turn = gamma.b * gamma.d % 5
        with mp.workprec(prec):
            got = _replay_value(gamma, tiny, {})
        with mp.workprec(4 * prec):
            zeta = mp.expjpi(mpf(2) / 5)
            if a in (1, 4):
                assert zeta5_proportional(m, (ZETA_POWERS[turn], zeta5(), zeta5(), zeta5(1)))
                want = zeta ** turn * tiny
            else:
                minus = tuple(-x for x in ZETA_POWERS[-turn % 5])
                assert zeta5_proportional(m, (zeta5(), minus, zeta5(1), zeta5()))
                want = -zeta ** (-turn) / tiny
            assert abs(got - want) < mpf(2) ** (1 - prec) * abs(want), gamma
    assert kept == 10


def test_icosahedral_maps_are_scalar_on_plus_minus_gamma_5():
    """The T and S rules multiplied along any gamma = +-I mod 5 give a
    scalar matrix."""
    rng = random.Random(44)
    minus_one = UnimodularMatrix(-1, 0, 0, -1)
    for _ in range(30):
        g = random_principal_congruence(rng, 5, bound=40)
        for gamma in (g, minus_one @ g):
            a, b, c, d = _word_matrix(gamma)
            assert b == c == zeta5() and a == d, gamma


def test_replay_value_is_the_word_map_for_every_element_of_psl2_mod_5():
    """For one lift of each of the 60 elements of PSL2(Z/5), its negative and
    a lift with entries near 10^6, the closed formula of _replay_value is the
    Moebius map of the T and S rules multiplied along the Euclid word, to
    2^(4 - prec) relative at v = r(z), z reduced; and for the 10 elements with
    c = 0 mod 5, which keep 0 and infinity, at |v| ~ 2^-300 too."""
    rng = random.Random(45)
    lifts = _lifts_of_psl2_mod_5(rng)
    minus_one = UnimodularMatrix(-1, 0, 0, -1)
    prec = CFG192.working_bits
    reduced = _reduced_rr_value(prec)
    with mp.workprec(prec):
        tiny = rr_continued_fraction(mpc("0.1", "165.5"), prec)
    assert -302 < mp.mag(tiny) < -298
    for gamma in lifts.values():
        big = gamma @ random_principal_congruence(rng, 5, bound=100_000)
        assert max(abs(big.a), abs(big.b), abs(big.c), abs(big.d)) > 10 ** 5, big
        for g in (gamma, minus_one @ gamma, big):
            for v in (reduced, tiny) if g.c % 5 == 0 else (reduced,):
                with mp.workprec(prec):
                    got = _replay_value(g, v, {})
                with mp.workprec(prec + 64):
                    want = _word_map(g, v)
                    assert abs(got - want) < mpf(2) ** (4 - prec) * abs(want), (g, v)


def test_rr_principal_congruence_invariance_sample():
    rng = random.Random(31)
    with mp.workprec(256):
        tau = mpc("0.23", "1.12")
        v = eval_rr(tau, CFG192)
        for _ in range(5):
            g = random_principal_congruence(rng, 5)
            moved = (g.a * tau + g.b) / (g.c * tau + g.d)
            w = eval_rr(moved, CFG192)
            assert abs(w - v) < mpf(2) ** -160


def test_rejects_lower_half_plane():
    for fn in (eval_rr, eval_j):
        with pytest.raises(ValueError):
            fn(mpc(0, -1), CFG128)


# ----------------------------------------------------------------------
# eta: Euler's pentagonal series, the P(q) that j is built from
# ----------------------------------------------------------------------

def _eta(tau, cfg: PrecisionConfig) -> mpc:
    """q^(1/24) theta(q^3, q), summed by the kernel at the working precision."""
    with mp.workprec(cfg.working_bits):
        q = mp.expjpi(2 * tau)
        return mp.expjpi(tau / 12) * _theta_ctx(q * q * q, q, "eta")


def test_eta_matches_qp_reference():
    for tau in SAMPLE_POINTS:
        ours = _eta(tau, CFG192)
        ref = eta_reference(tau, 232)
        with mp.workprec(260):
            assert abs(ours - ref) < mpf(2) ** -186


def test_eta_closed_forms():
    with mp.workprec(360):
        g = mp.gamma(mpf(1) / 4)
        p34 = mp.pi ** (mpf(3) / 4)
        v1 = _eta(mpc(0, 1), CFG256)
        assert abs(v1 - g / (2 * p34)) < mpf(2) ** -245
        v2 = _eta(mpc(0, 2), CFG256)
        assert abs(v2 - g / (2 ** mpf("1.375") * p34)) < mpf(2) ** -245


def test_eta_24th_power_inversion():
    with mp.workprec(300):
        for tau in SAMPLE_POINTS[:3]:
            lhs = _eta(-1 / tau, CFG192) ** 24
            rhs = tau ** 12 * _eta(tau, CFG192) ** 24
            assert abs(lhs - rhs) / abs(rhs) < mpf(2) ** -170


# ----------------------------------------------------------------------
# j
# ----------------------------------------------------------------------

def test_j_matches_mpmath_reference():
    for tau in SAMPLE_POINTS:
        ours = eval_j(tau, CFG192)
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
            got = eval_j(tau, CFG256)
            assert abs(got - want) < mpf(2) ** -240
        corner = eval_j(mpc(mpf(-1) / 2, mp.sqrt(3) / 2), CFG256)
        assert abs(corner) < mpf(2) ** -240


@pytest.mark.parametrize("bits", [2048, 4096])
@pytest.mark.parametrize("where", ["i", "corner"])
def test_j_at_high_precision_where_q_is_largest(bits, where):
    """i and a point just inside the corner e^(2 pi i/3) of the fundamental
    domain, where |q| ~ 0.0043 is largest and j is near its triple zero."""
    with mp.workprec(bits + 80):
        if where == "i":
            tau = mpc(0, 1)
        else:
            tau = mpc(mpf(-1) / 2, mp.sqrt(3) / 2) + mpc(1, 1) * mpf(2) ** -20
    cfg = PrecisionConfig(target_bits=bits)
    ours = eval_j(tau, cfg)
    ref = j_reference(tau, bits + 40)
    with mp.workprec(bits + 80):
        assert abs(ours - ref) / abs(ref) < mpf(2) ** -(bits - 12)


def test_j_full_modular_invariance_sample():
    rng = random.Random(32)
    with mp.workprec(256):
        tau = mpc("0.375", "0.88")
        v = eval_j(tau, CFG192)
        for _ in range(5):
            g = random_sl2(rng, 9)
            moved = (g.a * tau + g.b) / (g.c * tau + g.d)
            w = eval_j(moved, CFG192)
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
    (Fraction(0), Fraction(1, 3)),  # |q_z| = 1
    (Fraction(29, 30), Fraction(1, 7)),  # |q / q_z| near 1
    (Fraction(-29, 30), Fraction(2, 5)),  # moved to r1 + 1 by K3
]


def _klein_spec(top, bottom):
    """The catalog entry for the quotient k_top / k_bottom."""
    return catalog_lookup("klein-quotient:%s,%s|%s,%s" % (*top, *bottom))


def _rational(r: Fraction) -> mpf:
    return mpf(r.numerator) / r.denominator


def test_klein_matches_theta_reference():
    """Each parameter pair over the next one, as the reduced catalog
    quotient at w / N, against the ratio of the theta_1 references at w."""
    for top, bottom in zip(KLEIN_PARAMS, KLEIN_PARAMS[1:] + KLEIN_PARAMS[:1]):
        spec = _klein_spec(top, bottom)
        for w in SAMPLE_POINTS[:3]:
            with mp.workprec(53):
                tau = w / spec.level
            ours = spec.evaluate(tau, CFG192)
            with mp.workprec(300):
                w_exact = spec.level * tau
                ref = (klein_theta_reference(*top, w_exact, 232)
                       / klein_theta_reference(*bottom, w_exact, 232))
                assert abs(ours - ref) / abs(ref) < mpf(2) ** -180, (top, bottom)


def test_klein_quasi_periodicity():
    """Shifting the top pair r of a quotient by an integer vector b
    multiplies it by the K3 factor: -e^(pi i r1) for b = (0, 1), and
    -e^(-+pi i r2) for b = (+-1, 0), which takes r1 past (-1, 1)."""
    tau = mpc("0.13", "1.21")
    bottom = (Fraction(2, 5), Fraction(0))
    with mp.workprec(300):
        for r1, r2 in [(Fraction(1, 5), Fraction(0)), (Fraction(-2, 5), Fraction(3, 5))]:
            base = _klein_spec((r1, r2), bottom).evaluate(tau, CFG192)
            laws = {
                (0, 1): -mp.expjpi(_rational(r1)),
                (1, 0): -mp.expjpi(-_rational(r2)),
                (-1, 0): -mp.expjpi(_rational(r2)),
            }
            for (b1, b2), law in laws.items():
                spec = _klein_spec((r1 + b1, r2 + b2), bottom)
                shifted = spec.evaluate(tau, CFG192)
                assert abs(shifted / base - law) < mpf(2) ** -170, (r1 + b1, r2 + b2)


@pytest.mark.parametrize("q, x", [
    (mpc("0.5"), mpc("1.01")),  # |x| > 1
    (mpc("0.5"), mpc(0, "0.4")),  # |x| < |q|
    (mpc(1), mpc(1)),  # |q| = 1
    (mpc("0.5"), mpc(1)),  # the product's zero at x = 1
    (mpc(0, "0.5"), mpc(0, "0.5")),  # and at x = q
])
def test_theta_kernel_rejects_points_outside_its_bound(q, x):
    with mp.workprec(128):
        with pytest.raises(ValueError):
            _theta_ctx(q, x, "theta")


@pytest.mark.parametrize("bits, tau, kind", [
    (256, mpc(0, "0.001"), "pentagonal"),  # sum ~ 2^-372: refused
    (256, mpc(0, "0.003"), "pentagonal"),  # sum ~ 2^-121: refused
    (1024, mpc("0.05", "0.01"), "|x| = 1"),
    (1024, mpc("0.3", "0.05"), "|x| = |q|"),
    (4096, mpc("0.2", "0.5"), "|x| = 1"),
    (4096, mpc("-0.4", "0.6"), "|x| = |q|"),
])
def test_fixed_point_theta_kernel_meets_its_error_bound(bits, tau, kind):
    """The fixed-point kernel against the mpc series run with 64 more bits:
    within 2^-p (1 + |sum|), p the working precision.  Euler's pentagonal
    series near the real line, never at a reduced point, cancels far more
    than a quarter of the guard bits, and is refused rather than returned
    below its precision."""
    with mp.workprec(bits):
        q = mp.expjpi(2 * tau)
        if kind == "pentagonal":
            with pytest.raises(NonConvergenceError, match=r"lost \d+ bits"):
                _theta_ctx(q * q * q, q, "pentagonal")
            return
        if kind == "|x| = 1":
            x = mp.expjpi(mpf("0.74"))
        else:
            x = mpc(q.imag, q.real)  # i conj(q): |x| = |q| exactly
        ours = _theta_ctx(q, x, "theta")
    with mp.workprec(bits + 64):
        ref = theta_reference(q, x)
        assert abs(ours - ref) < mpf(2) ** -bits * (1 + abs(ref))


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


def test_identity_checks_pass_quickly_at_a_point_2_to_the_minus_10000_above_a_cusp():
    """0.3 + 2^-10000 i is the root of a form with 20,000-bit coefficients;
    Gauss reduction takes it to a reduced point with Im past 2^9000, where
    each series has a couple of terms, so both checks that validate runs
    pass in a time that does not grow with 1/Im (about 0.02 s)."""
    with mp.workprec(53):
        tau = mpc(mpf("0.3"), mpf(2) ** -10000)
    start = time.perf_counter()
    residuals = check_icosahedral(tau, CFG128), check_klein_relation(tau, CFG128)
    assert time.perf_counter() - start < 5
    assert max(residuals) < mpf(2) ** -120


@pytest.mark.parametrize("bits", [128, 256])
def test_icosahedral_check_fails_on_a_perturbed_value(bits):
    """The backward error sees a relative error of 2^-(bits/4) in x: it
    fails the 2^-(bits/2) threshold at the sample points, at i, and at
    0.123456 + 1e-6 i, where j ~ 2^850 and x is near a five-fold root of
    x^10 + 11 x^5 - 1, while the exact values pass there."""
    threshold = mpf(2) ** -(bits // 2)
    for tau in SAMPLE_POINTS + [mpc(0, 1), mpc("0.123456", "1e-6")]:
        with mp.workprec(bits + GUARD_BITS):
            x, jv = _rr_ctx(tau, {}), _j_ctx(tau, {})
            assert _icosahedral_residual(x, jv) < threshold
            perturbed = x * (1 + mpf(2) ** -(bits // 4))
            assert _icosahedral_residual(perturbed, jv) >= threshold, tau


@pytest.mark.parametrize("bits", [128, 256])
def test_klein_check_fails_on_a_perturbed_value_at_i(monkeypatch, bits):
    """At tau = i, j = 1728 is a critical value of the degree-60 map x -> j,
    so the icosahedral check sees an error in r only to second order: an r
    off by a relative 2^-(bits/4)/3 barely fails it.  The Klein check
    compares r with the Klein quotient directly and fails by far."""
    cfg = PrecisionConfig(target_bits=bits)
    threshold = mpf(2) ** -(bits // 2)
    assert check_klein_relation(mpc(0, 1), cfg) < threshold
    exact = modfunc.eval_rr

    def perturbed(tau, cfg):
        with mp.workprec(cfg.working_bits):
            return exact(tau, cfg) * (1 + mpf(2) ** -(bits // 4) / 3)

    monkeypatch.setattr(modfunc, "eval_rr", perturbed)
    assert check_klein_relation(mpc(0, 1), cfg) > 2 ** 20 * threshold


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
        "klein-quotient:1/5,0|2,1",
        "klein-quotient:a,b|c,d",
    ):
        with pytest.raises(ValueError):
            catalog_lookup(bad)


def test_klein_parameter_validation():
    """A pair of integers is refused; any other rational pair is accepted,
    a first parameter past (-1, 1) too, since K3 moves it into range."""
    for name in ("klein-quotient:0,1|1/5,0", "klein-quotient:1/5,0|-3,2"):
        with pytest.raises(ValueError, match="both be integers"):
            catalog_lookup(name)
    for name, level in (("klein-quotient:3/2,0|1/2,1/2", 2), ("klein-quotient:-7/5,0|11/5,1", 5)):
        assert catalog_lookup(name).level == level


def test_klein_quotient_evaluator_is_the_scaled_ratio():
    spec = catalog_lookup("klein-quotient:1/5,0|2/5,0")
    tau = mpc("0.11", "0.93")
    got = spec.evaluate(tau, CFG192)
    with mp.workprec(300):
        k1 = klein_theta_reference(Fraction(1, 5), Fraction(0), 5 * tau, 232)
        k2 = klein_theta_reference(Fraction(2, 5), Fraction(0), 5 * tau, 232)
        assert abs(got - k1 / k2) < mpf(2) ** -180
        # and that ratio is the level-5 continued-fraction value
        assert abs(got - eval_rr(tau, CFG192)) < mpf(2) ** -170


# Values of N*tau near the real line, where the q-series at N*tau are long.
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
    the ratio of the theta_1 references at N*tau, unreduced, must agree."""
    spec = catalog_lookup(name)
    assert spec.level == level
    top, bottom = (
        [Fraction(s) for s in pair.split(",")]
        for pair in name.split(":")[1].split("|")
    )
    for w in LOW_SCALED_POINTS:
        with mp.workprec(53):
            tau = w / level
        with mp.workprec(300):
            w_exact = level * tau
        got = spec.evaluate(tau, CFG192)
        with mp.workprec(300):
            want = (klein_theta_reference(*top, w_exact, 232)
                    / klein_theta_reference(*bottom, w_exact, 232))
            assert abs(got - want) / abs(want) < mpf(2) ** -180


def test_reduced_klein_quotient_converges_where_the_raw_product_cannot():
    """At Im(5 tau) = 1e-10 the series at 5 tau would run to millions of
    terms, while at the reduced point they are short."""
    spec = catalog_lookup("klein-quotient:1/5,0|2/5,0")
    with mp.workprec(53):
        tau = mpc("0.3141592653", "1e-10") / 5
    got = spec.evaluate(tau, CFG128)
    # the continued-fraction value, reduced by its own S/T rules
    with mp.workprec(220):
        assert abs(got - eval_rr(tau, CFG128)) < mpf(2) ** -100


@pytest.mark.parametrize("name", ["j", "rogers-ramanujan", "klein-quotient:1/7,0|2/7,0"])
def test_exact_reduction_agrees_with_the_numeric_loop(name):
    """An evaluator at a scrambled form, reduced by Gauss reduction, gives
    the value it gives at the form's root as an mpc, reduced numerically."""
    spec = catalog_lookup(name)
    rng = random.Random(43)
    for form in reduced_forms(-84):
        scrambled = form.transform(random_sl2(rng, 9))
        exact = spec.evaluate(scrambled, CFG192)
        with mp.workprec(CFG192.working_bits):
            numeric = spec.evaluate(scrambled.to_mpc(), CFG192)
            assert abs(exact - numeric) < mpf(2) ** -150 * max(1, abs(exact))


def test_same_value_across_precisions():
    tau = mpc("0.27", "1.33")
    with mp.workprec(320):
        lo = eval_rr(tau, CFG128)
        hi = eval_rr(tau, CFG256)
        assert abs(lo - hi) < mpf(2) ** -120
        lo_j = eval_j(tau, CFG128)
        hi_j = eval_j(tau, CFG256)
        assert abs(lo_j - hi_j) / abs(hi_j) < mpf(2) ** -120
