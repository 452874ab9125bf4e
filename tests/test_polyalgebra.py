"""Exact integer polynomial arithmetic and the rounding/certification steps."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from classpoly import polyalgebra
from classpoly.errors import PowerCheckError, RoundingFailureError
from classpoly.polyalgebra import (
    IntPolynomial,
    eval_poly,
    power_check,
    round_coefficients,
    squarefree_part,
)

from _oracles import content, exact_divide, poly_gcd, primitive_positive, squarefree_kernel
from frozen_values import HILBERT_MINUS_52_ASC


def P(*desc):
    """Build from descending coefficients, matching how humans write them."""
    return IntPolynomial(reversed(desc))


# ----------------------------------------------------------------------
# basics
# ----------------------------------------------------------------------

def test_construction_strips_trailing_zeros():
    p = IntPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial([]).degree == -1
    assert IntPolynomial([0, 0]).is_zero()


def test_immutability():
    p = P(1, 2, 3)
    with pytest.raises(AttributeError):
        p.coeffs = (1,)


def test_pretty_printing():
    assert str(P(1, -2, 1)) == "x^2 - 2*x + 1"
    assert str(P(1, 0, -6896880000, -567663552000000)) == (
        "x^3 - 6896880000*x - 567663552000000"
    )
    assert str(P(-1, 1)) == "-x + 1"
    assert str(IntPolynomial(())) == "0"


def test_mul_and_pow():
    x_minus_1 = P(1, -1)
    x_plus_1 = P(1, 1)
    assert x_minus_1 * x_plus_1 == P(1, 0, -1)
    assert x_minus_1 * 3 == P(3, -3)
    assert 3 * x_minus_1 == P(3, -3)
    zero = IntPolynomial(())
    assert zero * x_minus_1 == x_minus_1 * zero == zero * zero == zero
    assert x_minus_1 ** 3 == P(1, -3, 3, -1)
    assert x_minus_1 ** 0 == P(1)
    with pytest.raises(ValueError):
        x_minus_1 ** -1
    rng = random.Random(41)
    for _ in range(25):
        a = IntPolynomial(rng.randint(-9, 9) for _ in range(rng.randint(1, 6)))
        b = IntPolynomial(rng.randint(-9, 9) for _ in range(rng.randint(1, 6)))
        c = IntPolynomial(rng.randint(-9, 9) for _ in range(rng.randint(1, 6)))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_pow_multiplies_only_while_exponent_bits_remain(monkeypatch):
    calls = []
    mul = IntPolynomial.__mul__

    def counting_mul(self, other):
        calls.append(other)
        return mul(self, other)

    p = P(1, 2, 3)
    monkeypatch.setattr(IntPolynomial, "__mul__", counting_mul)
    for n, want_calls in ((1, 1), (12, 5)):  # 12 = 0b1100: 3 squarings, 2 products
        calls.clear()
        power = p ** n
        assert len(calls) == want_calls
        expected = P(1)
        for _ in range(n):
            expected = mul(expected, p)
        assert power == expected


def test_derivative_and_evaluate():
    p = P(3, 0, -2, 5)  # 3x^3 - 2x + 5
    assert p.derivative() == P(9, 0, -2)
    assert p.evaluate(2) == 3 * 8 - 4 + 5
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 8) - 1 + 5
    with mp.workprec(128):
        z = mpc(1, 1)
        assert abs(p.evaluate(z) - (3 * z ** 3 - 2 * z + 5)) < mpf(2) ** -100


def test_content_and_primitive_positive():
    p = P(-4, 8, -12)
    assert content(p) == 4
    assert primitive_positive(p) == P(1, -2, 3)
    assert primitive_positive(P(2, 4)) == P(1, 2)


def test_json_round_trip_with_huge_coefficients():
    p = P(1, -(10 ** 40), 567663552000000)
    strings = p.to_json_list()
    assert all(isinstance(s, str) for s in strings)
    assert IntPolynomial(int(s) for s in strings) == p


# ----------------------------------------------------------------------
# rounding
# ----------------------------------------------------------------------

def _scaled(values, shift):
    """(re, im, shift) in the shape assemble_poly returns, from exact
    rationals (a number, or a (real, imaginary) pair)."""
    pairs = [v if isinstance(v, tuple) else (v, 0) for v in values]
    return ([round(Fraction(r) * 2 ** shift) for r, _ in pairs],
            [round(Fraction(i) * 2 ** shift) for _, i in pairs], shift)


def test_round_coefficients_basic():
    values = [1 + Fraction(1, 2 ** 40), "81.99999999", "-996.00000001"]
    poly, residual = round_coefficients(_scaled(values, 64))
    assert poly == IntPolynomial([1, 82, -996])
    assert mpf("0.9e-8") < residual < mpf("1.1e-8")


def test_round_coefficients_failure_threshold():
    coeffs = _scaled([Fraction(3, 8), 1], 8)
    with pytest.raises(RoundingFailureError) as info:
        round_coefficients(coeffs, fail_above=mpf("0.25"))
    assert info.value.residual >= mpf("0.25")
    poly, residual = round_coefficients(coeffs)  # no threshold: best effort
    assert poly == IntPolynomial([0, 1])
    assert residual == mpf("0.375")


def test_round_coefficients_rounds_halves_up():
    """A residual of one half fails every threshold 2^-(bits/4), so the
    direction of a tie never reaches a certified polynomial."""
    poly, residual = round_coefficients(_scaled([Fraction(5, 2), Fraction(-1, 2)], 4))
    assert poly == IntPolynomial([3, 0])
    assert residual == mpf("0.5")


def test_round_coefficients_counts_imaginary_leakage():
    _, residual = round_coefficients(_scaled([(3, Fraction(77, 256)), 1], 8))
    assert residual == mpf(77) / 256


def test_round_coefficients_keeps_high_precision_payloads():
    """A coefficient near 2^120 with a 2^-60 offset survives rounding, and
    its residual is exact, while the ambient precision is the default 53."""
    poly, residual = round_coefficients(_scaled([2 ** 120 + Fraction(1, 2 ** 60)], 384))
    assert poly.coeffs[0] == 2 ** 120
    assert residual == mpf(2) ** -60


def test_round_coefficients_keeps_the_fraction_of_a_coefficient_wider_than_the_shift():
    """One unit of 2^-shift under a 600-bit coefficient is its residual,
    exactly: no rounding of the coefficient to shift bits drops it."""
    shift = 384
    big = 3 ** 378  # 600 bits
    assert big.bit_length() == 600
    poly, residual = round_coefficients(([(big << shift) + 1, -(big << shift)], [0, 0], shift))
    assert poly.coeffs == (big, -big)
    assert residual == mpf(2) ** -shift


# ----------------------------------------------------------------------
# gcd, division, squarefree part (gcd and division are the rational
# oracle the modular squarefree part is checked against)
# ----------------------------------------------------------------------

def test_poly_gcd_examples():
    assert poly_gcd(P(1, 0, -1), P(1, -2, 1)) == P(1, -1)
    shared = P(1, 0, 1)
    assert poly_gcd(shared * P(1, -2), shared * P(1, 5)) == shared
    assert poly_gcd(P(2, 2), P(4, 4)) == P(1, 1)
    assert poly_gcd(P(1, 1), IntPolynomial(())) == P(1, 1)
    with pytest.raises(ValueError):
        poly_gcd(IntPolynomial(()), IntPolynomial(()))


def test_poly_gcd_random_products():
    rng = random.Random(42)
    for _ in range(20):
        g = IntPolynomial([rng.randint(-5, 5) for _ in range(3)] + [1])
        a = IntPolynomial([rng.randint(-5, 5) for _ in range(2)] + [1])
        while True:
            b = IntPolynomial([rng.randint(-5, 5) for _ in range(2)] + [1])
            if poly_gcd(a, b).degree == 0:
                break
        # coprime cofactors leave exactly the planted monic factor
        assert poly_gcd(g * a, g * b) == g


def test_exact_divide():
    q = exact_divide(P(1, -2, 1), P(1, -1))
    assert q == P(1, -1)
    with pytest.raises(ValueError):
        exact_divide(P(1, 0, -1), P(1, -2))  # remainder 3
    with pytest.raises(ValueError):
        exact_divide(P(1, 1), P(2, 1))  # quotient not integral
    with pytest.raises(ZeroDivisionError):
        exact_divide(P(1, 1), IntPolynomial(()))


def test_squarefree_part():
    base = P(1, 0, 1)
    assert squarefree_part(base ** 3) == base
    assert squarefree_part(P(1, -3) ** 4) == P(1, -3)
    assert squarefree_part(P(1, 5, 6)) == P(1, 5, 6)
    assert squarefree_part(P(1)) == P(1)  # degree-0 passthrough
    with pytest.raises(ValueError):
        squarefree_part(P(2, 0, 2))  # not monic
    with pytest.raises(ValueError):
        squarefree_part(IntPolynomial(()))


def test_squarefree_part_random_powers():
    rng = random.Random(43)
    for _ in range(15):
        while True:
            g = IntPolynomial([rng.randint(-6, 6) for _ in range(3)] + [1])
            if poly_gcd(g, g.derivative()).degree == 0:
                break  # need a squarefree base
        ell = rng.randint(1, 4)
        assert squarefree_part(g ** ell) == g


_monic = st.lists(st.integers(-6, 6), min_size=1, max_size=3).map(
    lambda cs: IntPolynomial(cs + [1])
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.tuples(_monic, st.integers(1, 3)), min_size=1, max_size=3))
@example([(P(1, 0, 1), 2), (P(1, -3), 3)])  # a^2 * b^3
@example([(P(1, -2, 1), 2), (P(1, 1), 1)])  # non-squarefree base (x-1)^2
@example([(P(1, 0, -1), 3), (P(1, -1), 2)])  # bases sharing the factor x-1
def test_squarefree_part_matches_the_rational_kernel(factors):
    p = IntPolynomial((1,))
    for base, ell in factors:
        p = p * base ** ell
    assert squarefree_part(p) == squarefree_kernel(p)


def _record_primes(monkeypatch):
    primes = []
    gcd_mod = polyalgebra._gcd_mod

    def recording(p, q, prime):
        primes.append(prime)
        return gcd_mod(p, q, prime)

    monkeypatch.setattr(polyalgebra, "_gcd_mod", recording)
    return primes


def test_squarefree_part_of_a_power_of_the_hilbert_polynomial(monkeypatch):
    """H_{-52}^12 has 589-bit coefficients and its gcd with the derivative
    is H^11: the proof prime 2^61 - 1 sees that gcd, and the first prime
    above the Mignotte bound lifts it at once."""
    hilbert = IntPolynomial(HILBERT_MINUS_52_ASC)
    primes = _record_primes(monkeypatch)
    assert squarefree_part(hilbert ** 12) == hilbert
    assert primes == [2 ** 61 - 1, 2 ** 1279 - 1]


def test_squarefree_part_proves_a_squarefree_p_at_the_word_size_prime(monkeypatch):
    """H_{-52} (x - 2^100) is squarefree with a Mignotte bound above 2^61:
    its gcd with the derivative has degree 0 modulo 2^61 - 1, which is the
    proof, and no larger prime is tried."""
    p = IntPolynomial(HILBERT_MINUS_52_ASC) * P(1, -2 ** 100)
    primes = _record_primes(monkeypatch)
    assert squarefree_part(p) == p
    assert primes == [2 ** 61 - 1]


_M61 = 2 ** 61 - 1
_A = 1518500250  # just above sqrt(2^61 - 1)


@pytest.mark.parametrize("p", [
    # 256^8 - 8 = 8 (2^61 - 1): modulo the first prime x - 256 divides p
    # twice, and the lift x - 256 divides p but not p'
    P(1, -256) * P(1, 0, 0, 0, 0, 0, 0, 0, -8),
    # (x - A)^2 - (2^61 - 1): the lift x - A divides p' but not p
    P(1, -2 * _A, _A * _A - _M61),
], ids=["divides-p-only", "divides-derivative-only"])
def test_squarefree_part_retries_after_an_unlucky_prime(monkeypatch, p):
    """A squarefree p whose reduction modulo the first prime 2^61 - 1 is
    not squarefree: the lifted gcd must fail the division check, and the
    next prime proves p squarefree."""
    assert squarefree_kernel(p) == p
    primes = _record_primes(monkeypatch)
    assert squarefree_part(p) == p
    assert primes == [_M61, 2 ** 89 - 1]
    monkeypatch.setattr(polyalgebra, "_MERSENNE_EXPONENTS", (61,))
    with pytest.raises(ArithmeticError):
        squarefree_part(p)


def test_power_check():
    base = P(1, 2, -1)
    assert power_check(base ** 3, base) == 3
    assert power_check(base, base) == 1
    with pytest.raises(PowerCheckError):
        power_check(base ** 2 * P(1, 1), base)  # degree multiple, wrong poly
    with pytest.raises(PowerCheckError):
        power_check(P(1, 0, 0, 1), P(1, 1, 1))  # wrong cube
    with pytest.raises(PowerCheckError):
        power_check(P(1, 1, 1), P(1, 1))  # degree 2 vs 1 but not a square
    with pytest.raises(PowerCheckError):
        power_check(base, P(5))


def test_eval_poly_accepts_wrapped_values():
    """An evaluator's value is a plain mpc that keeps its full mantissa
    outside its working precision; eval_poly takes it as it is."""
    p = P(1, 0, -2)
    with mp.workprec(200):
        root = mpc(mp.sqrt(2))
    with mp.workprec(200):
        assert abs(eval_poly(p, root)) < mpf(2) ** -190
        assert abs(eval_poly(p, mpc(2)) - 2) < mpf(2) ** -190
