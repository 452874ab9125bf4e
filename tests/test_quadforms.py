"""Binary quadratic forms, reduction, and forms as exact CM points."""

import random
from math import gcd

import pytest
from mpmath import mp, mpc, mpf

from classpoly.modgroup import (
    IDENTITY,
    S,
    T,
    UnimodularMatrix,
    mobius_apply,
    translation,
)
from classpoly.quadforms import (
    CMOrder,
    QuadraticForm,
    form_of_point,
    reduce_form,
    reduced_forms,
)

from _oracles import (
    CLASS_NUMBER_TABLE,
    brute_force_reduced_forms,
    conductor_by_squarefreeness,
    is_reduced,
    random_form,
    random_sl2,
)


# ----------------------------------------------------------------------
# construction and the right action
# ----------------------------------------------------------------------

def test_discriminant_values():
    assert QuadraticForm(1, 0, 13).discriminant == -52
    assert QuadraticForm(2, 2, 7).discriminant == -52
    assert QuadraticForm(1, 1, 6).discriminant == -23


def test_rejects_non_positive_definite():
    with pytest.raises(ValueError):
        QuadraticForm(-1, 0, 13)
    with pytest.raises(ValueError):
        QuadraticForm(1, 5, 1)  # discriminant 21 > 0


def test_rejects_imprimitive():
    with pytest.raises(ValueError):
        QuadraticForm(2, 2, 2)
    with pytest.raises(ValueError):
        QuadraticForm(3, 0, 3)


def test_transform_worked_example():
    gamma = UnimodularMatrix(5, -3, 2, -1)
    assert QuadraticForm(1, 0, 13).transform(gamma).coefficients() == (77, -82, 22)
    gamma2 = UnimodularMatrix(2, -1, 5, -2)
    assert QuadraticForm(2, 2, 7).transform(gamma2).coefficients() == (203, -166, 34)


def test_transform_identity_and_composition():
    rng = random.Random(11)
    for _ in range(40):
        q = random_form(rng)
        assert q.transform(IDENTITY) == q
        g1, g2 = random_sl2(rng, 8), random_sl2(rng, 8)
        assert q.transform(g1 @ g2) == q.transform(g1).transform(g2)


def test_transform_preserves_discriminant_and_primitivity():
    rng = random.Random(12)
    for _ in range(60):
        q = random_form(rng)
        g = random_sl2(rng, 10)
        image = q.transform(g)
        assert image.discriminant == q.discriminant
        # primitivity is validated in the constructor; reaching here is the test


# ----------------------------------------------------------------------
# reduction
# ----------------------------------------------------------------------

def test_is_reduced_cases():
    assert is_reduced(QuadraticForm(1, 0, 13))
    assert is_reduced(QuadraticForm(2, 2, 7))
    assert is_reduced(QuadraticForm(3, 2, 3))
    assert not is_reduced(QuadraticForm(77, -82, 22))
    assert not is_reduced(QuadraticForm(2, -2, 3))  # boundary |b| = a wants b >= 0
    assert not is_reduced(QuadraticForm(3, -2, 3))  # boundary a = c wants b >= 0
    assert is_reduced(QuadraticForm(3, -2, 5))  # strictly inside: sign free


def test_reduce_worked_examples():
    reduced, gamma = reduce_form(QuadraticForm(77, -82, 22))
    assert reduced.coefficients() == (1, 0, 13)
    assert QuadraticForm(77, -82, 22).transform(gamma) == reduced
    reduced2, gamma2 = reduce_form(QuadraticForm(203, -166, 34))
    assert reduced2.coefficients() == (2, 2, 7)
    assert QuadraticForm(203, -166, 34).transform(gamma2) == reduced2


def test_reduce_fixes_reduced_forms():
    for coeffs in [(1, 0, 13), (2, 2, 7), (2, -1, 3), (3, 2, 3)]:
        form = QuadraticForm(*coeffs)
        reduced, gamma = reduce_form(form)
        assert reduced == form
        assert gamma == IDENTITY


def test_reduce_recovers_class_representative():
    """Scrambling a reduced form and reducing again lands on the same form,
    with an exact witness."""
    rng = random.Random(13)
    discs = [-52, -23, -68, -84, -163, -471]
    for disc in discs:
        for form in reduced_forms(disc):
            for _ in range(5):
                g = random_sl2(rng, 9)
                scrambled = form.transform(g)
                reduced, witness = reduce_form(scrambled)
                assert reduced == form
                assert scrambled.transform(witness) == reduced


# ----------------------------------------------------------------------
# enumeration and class numbers
# ----------------------------------------------------------------------

def test_reduced_forms_examples():
    assert [f.coefficients() for f in reduced_forms(-52)] == [(1, 0, 13), (2, 2, 7)]
    assert [f.coefficients() for f in reduced_forms(-23)] == [
        (1, 1, 6),
        (2, -1, 3),
        (2, 1, 3),
    ]
    assert [f.coefficients() for f in reduced_forms(-4)] == [(1, 0, 1)]


def test_reduced_forms_against_independent_scan():
    discs = sorted(CLASS_NUMBER_TABLE) + [-51, -55, -87, -95, -104, -115, -120]
    for disc in discs:
        ours = [f.coefficients() for f in reduced_forms(disc)]
        assert ours == brute_force_reduced_forms(disc), disc


def test_class_numbers_against_table():
    for disc, h in CLASS_NUMBER_TABLE.items():
        assert len(reduced_forms(disc)) == h, disc


def test_reduced_forms_rejects_bad_discriminant():
    with pytest.raises(ValueError):
        reduced_forms(5)
    with pytest.raises(ValueError):
        reduced_forms(-14)  # 2 mod 4


# ----------------------------------------------------------------------
# forms as exact CM points
# ----------------------------------------------------------------------

def _mirror(q):
    """The form whose root is -conj of q's root."""
    return QuadraticForm(q.a, -q.b, q.c)


def test_cm_point_values():
    with mp.workprec(220):
        tol = mp.mpf(2) ** -200
        p = QuadraticForm(1, 0, 13).to_mpc()
        assert abs(p - mpc(0, mp.sqrt(13))) < tol
        q = QuadraticForm(2, 2, 7).to_mpc()
        assert abs(q - mpc(mp.mpf(-1) / 2, mp.sqrt(13) / 2)) < tol


def test_point_equality_across_radicands():
    """Equal points are equal forms: the root of (1, 0, 13), carried with
    radicand -52, is i*sqrt(13) to the last bit, and forms with different
    coefficients have different roots."""
    with mp.workprec(220):
        assert QuadraticForm(1, 0, 13).to_mpc() == mpc(0, mp.sqrt(13))
        rng = random.Random(13)
        forms = sorted({random_form(rng) for _ in range(60)},
                       key=QuadraticForm.coefficients)
        roots = [f.to_mpc() for f in forms]
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                assert abs(roots[i] - roots[j]) > mp.mpf(2) ** -100


def test_point_validation():
    """A point off the upper half-plane has no form: a positive discriminant
    or a negative leading coefficient is refused, and every root lies above
    the real axis."""
    with pytest.raises(ValueError):
        QuadraticForm(1, 0, -13)
    with pytest.raises(ValueError):
        QuadraticForm(-1, 0, -13)
    rng = random.Random(12)
    with mp.workprec(100):
        for _ in range(30):
            assert random_form(rng).to_mpc().imag > 0


def test_a_number_is_the_root_of_its_form_exactly():
    """form_of_point(z) is primitive and its root, taken at z's own
    precision, is z to the last bit: for parts of either sign, zero real
    parts, integers (a = 1), and parts far apart in magnitude."""
    rng = random.Random(18)
    for bits in (24, 53, 200):
        with mp.workprec(bits):
            points = [mpc(0, 1), mpc(10 ** 7, 1), mpc(-2 ** 70, 2 ** 60),
                      mpc(0, mpf(2) ** -900), mpc("-0.3", "1e-100")]
            for _ in range(200):
                x = rng.getrandbits(bits) - 2 ** (bits - 1)
                y = rng.getrandbits(bits) | 1
                points.append(mpc(mp.ldexp(x, rng.randint(-300, 300)),
                                  mp.ldexp(y, rng.randint(-300, 300))))
            for z in points:
                form = form_of_point(z)
                assert gcd(gcd(form.a, form.b), form.c) == 1
                assert form.to_mpc() == z, z
    assert form_of_point(mpc(10 ** 7, 1)).coefficients() == (1, -2 * 10 ** 7, 10 ** 14 + 1)


def test_a_number_off_the_upper_half_plane_has_no_form():
    nan, inf = mpf("nan"), mpf("inf")
    for z in (mpc(0, -1), mpc(0.3, 0), mpc(0.3, nan), mpc(nan, 1),
              mpc(inf, 1), mpc(0.3, inf), mpc(-inf, inf)):
        with pytest.raises(ValueError):
            form_of_point(z)


def test_neg_conjugate_and_numeric_agreement():
    p = QuadraticForm(2, 2, 7)
    q = _mirror(p)
    assert q.coefficients() == (2, -2, 7)
    with mp.workprec(220):
        zp, zq = p.to_mpc(), q.to_mpc()
        assert abs(zq - (-mp.conj(zp))) < mp.mpf(2) ** -200


def test_exact_mobius_matches_numeric_mobius():
    """g moves the root of a form to the root of form.transform(g^-1)."""
    rng = random.Random(14)
    for _ in range(50):
        form = random_form(rng)
        g = random_sl2(rng, 12)
        image = form.transform(g.inverse())
        with mp.workprec(260):
            z = form.to_mpc()
            expected = (g.a * z + g.b) / (g.c * z + g.d)
            assert abs(image.to_mpc() - expected) < mp.mpf(2) ** -230


def test_mobius_composition_and_identity():
    rng = random.Random(15)
    for _ in range(30):
        p = random_form(rng)
        g1, g2 = random_sl2(rng, 8), random_sl2(rng, 8)
        assert p.transform(IDENTITY) == p
        # (g1 g2) . tau = g1 . (g2 . tau)
        assert (p.transform((g1 @ g2).inverse())
                == p.transform(g2.inverse()).transform(g1.inverse()))


def test_transformed_form_root_is_pulled_back_root():
    """The root of the transformed form is the inverse image of the root."""
    rng = random.Random(16)
    for _ in range(40):
        q = random_form(rng)
        g = random_sl2(rng, 10)
        t = q.transform(g)
        with mp.workprec(260):
            z = mobius_apply(g.inverse(), q.to_mpc())
            assert abs(t.a * z * z + t.b * z + t.c) < mp.mpf(2) ** -200 * t.c
            assert abs(t.to_mpc() - z) < mp.mpf(2) ** -230


def test_neg_conjugate_intertwines_sign_flipped_action():
    """-conj(g . p) equals g' . (-conj p) with g' = diag-flip of g."""
    rng = random.Random(17)
    for _ in range(40):
        p = random_form(rng)
        g = random_sl2(rng, 10)
        flipped = UnimodularMatrix(g.a, -g.b, -g.c, g.d)
        assert (_mirror(p.transform(g.inverse()))
                == _mirror(p).transform(flipped.inverse()))


# ----------------------------------------------------------------------
# orders
# ----------------------------------------------------------------------

def test_order_parameters():
    order = CMOrder.from_discriminant(-52)
    assert (order.b, order.c) == (0, 13)
    assert order.fundamental_discriminant == -52
    assert order.conductor == 1
    order7 = CMOrder.from_discriminant(-7)
    assert (order7.b, order7.c) == (1, 2)
    assert order7.conductor == 1


def test_order_conductors():
    cases = {
        -12: (-3, 2),
        -27: (-3, 3),
        -48: (-3, 4),
        -72: (-8, 3),
        -100: (-4, 5),
        -28: (-7, 2),
        -52: (-52, 1),
        -68: (-68, 1),
    }
    for disc, (fund, f) in cases.items():
        order = CMOrder.from_discriminant(disc)
        assert order.fundamental_discriminant == fund, disc
        assert order.conductor == f, disc
        assert fund * f * f == disc
    for disc in range(-3, -5001, -1):
        if disc % 4 in (0, 1):
            order = CMOrder.from_discriminant(disc)
            assert order.conductor == conductor_by_squarefreeness(disc), disc


def test_order_generator_and_principal_form():
    order = CMOrder.from_discriminant(-52)
    assert order.principal_form().coefficients() == (1, 0, 13)
    order23 = CMOrder.from_discriminant(-23)
    assert order23.principal_form().coefficients() == (1, 1, 6)
    # the generator, the principal form's root, is a root of x^2 + b x + c
    for disc in (-52, -23, -7, -68, -84):
        order = CMOrder.from_discriminant(disc)
        with mp.workprec(220):
            z = order.principal_form().to_mpc()
            assert abs(z * z + order.b * z + order.c) < mp.mpf(2) ** -190


def test_order_rejects_bad_discriminants():
    for bad in (5, 0, -5, -14):
        with pytest.raises(ValueError):
            CMOrder.from_discriminant(bad)


def test_principal_form_is_reduced_and_principal():
    for disc in sorted(CLASS_NUMBER_TABLE):
        order = CMOrder.from_discriminant(disc)
        form = order.principal_form()
        assert form.discriminant == disc
        assert is_reduced(form)
        assert form == reduced_forms(disc)[0]
