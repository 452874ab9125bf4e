"""Exact arithmetic on integer polynomials.

Coefficients are Python ints stored in ascending degree order, and every
step but eval_poly is exact integer arithmetic: rounding takes the scaled
integers of the assembly apart by a shift, and the squarefree part comes
from a gcd modulo a large prime that is verified by exact division over the
integers, so no rational arithmetic is needed.
"""

from __future__ import annotations

from mpmath import mp, mpc
from mpmath.libmp import from_man_exp

from .errors import PowerCheckError, RoundingFailureError


class IntPolynomial:
    """Immutable integer polynomial; index k holds the x^k coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(k * c for k, c in enumerate(self.coeffs) if k)

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = IntPolynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def evaluate(self, x):
        """Horner evaluation; works for int, Fraction, mpf, mpc inputs."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_json_list(self):
        # decimal strings survive JSON integer-size limits in consumers
        return [str(c) for c in self.coeffs]

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = f"{mag}"
            elif k == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{k}" if mag == 1 else f"{mag}*x^{k}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"


def round_coefficients(coeffs, fail_above=None):
    """Round the scaled Gaussian integers (re, im, shift) of assemble_poly,
    coefficient k being (re[k] + i im[k]) / 2^shift, to the nearest integers,
    halves rounding up.

    Returns (IntPolynomial, max_residual) where the residual of a
    coefficient is the larger of its distance to the nearest integer and its
    imaginary magnitude, exactly.  When fail_above is given, a residual at
    or above it raises RoundingFailureError.
    """
    re, im, shift = coeffs
    half = 1 << (shift - 1)
    ints = [(c + half) >> shift for c in re]
    worst = max(max(abs(c - (n << shift)) for c, n in zip(re, ints)),
                max(map(abs, im)))
    max_residual = mp.make_mpf(from_man_exp(worst, -shift))
    if fail_above is not None and max_residual >= fail_above:
        raise RoundingFailureError(max_residual, fail_above)
    return IntPolynomial(ints), max_residual


# Exponents e of the Mersenne primes 2^e - 1, from 2^61 - 1 upward.
_MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689,
    9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049, 216091,
)


def _divmod_monic(p: IntPolynomial, d: IntPolynomial):
    """Quotient and remainder of p by the monic d over Z[x]."""
    rem = list(p.coeffs)
    dd = d.degree
    quot = [0] * (len(rem) - dd)
    for top in range(len(rem) - 1, dd - 1, -1):
        factor = rem[top]
        if factor:
            shift = top - dd
            quot[shift] = factor
            for k in range(dd + 1):
                rem[shift + k] -= factor * d.coeffs[k]
    return IntPolynomial(quot), IntPolynomial(rem[:dd])


def _gcd_mod(p: IntPolynomial, q: IntPolynomial, prime: int) -> IntPolynomial:
    """Monic gcd over Z/prime, residues in [0, prime), of p (monic, so
    nonzero there) and q, by Euclid on lists of residues: each divisor is
    made monic, and each quotient digit is reduced before it is used."""
    a, b = [c % prime for c in p.coeffs], [c % prime for c in q.coeffs]
    while b:
        if not b[-1]:
            b.pop()
            continue
        inverse = pow(b[-1], -1, prime)
        b = [c * inverse % prime for c in b]
        db = len(b) - 1
        for top in range(len(a) - 1, db - 1, -1):
            factor, shift = a[top] % prime, top - db
            for k in range(db):
                a[shift + k] -= factor * b[k]
        a, b = b, [c % prime for c in a[:db]]
    return IntPolynomial(a)


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """For monic p = g^ell with g squarefree (the pipeline shape), returns g.

    In general returns p divided by gcd(p, p'), the squarefree kernel.  The
    gcd is taken modulo a Mersenne prime P; only integers are used.  Its
    degree bounds that of the integer gcd from above, because p is monic, so
    degree 0 proves p squarefree and p is returned unchanged.  Otherwise the
    gcd is lifted to residues in (-P/2, P/2) and accepted only when it
    divides both p and p' exactly over Z[x]: a common divisor at least as
    large as the gcd is the gcd.  A rejected lift moves on to the next
    prime.  The first prime exceeds twice the Mignotte bound
    2^(deg p) * ||p||_2 on the coefficients of any factor of p, so one prime
    suffices unless it divides a resultant of the factors of p.  Raises
    ArithmeticError when no listed prime remains.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no squarefree part")
    if not p.is_monic():
        raise ValueError("expected a monic polynomial")
    if p.degree == 0:
        return p
    dp = p.derivative()
    norm_bits = (sum(c * c for c in p.coeffs).bit_length() + 1) // 2
    bound_bits = p.degree + norm_bits + 1
    for e in _MERSENNE_EXPONENTS:
        if e <= bound_bits:
            continue
        prime = (1 << e) - 1
        gcd_mod = _gcd_mod(p, dp, prime)
        if gcd_mod.degree == 0:
            return p
        half = prime >> 1
        candidate = IntPolynomial(
            c - prime if c > half else c for c in gcd_mod.coeffs
        )
        quotient, remainder = _divmod_monic(p, candidate)
        if remainder.is_zero() and _divmod_monic(dp, candidate)[1].is_zero():
            return quotient
    raise ArithmeticError(
        f"no listed Mersenne prime above 2^{bound_bits} gives a verified "
        f"gcd of the degree-{p.degree} polynomial and its derivative"
    )


def power_check(p: IntPolynomial, g: IntPolynomial) -> int:
    """The exponent ell with p = g^ell exactly; raises PowerCheckError when
    no such exponent exists."""
    if p.is_zero() or g.is_zero():
        raise PowerCheckError("zero polynomial")
    if g.degree == 0:
        raise PowerCheckError("claimed base is constant")
    if p.degree % g.degree:
        raise PowerCheckError(
            f"degree {p.degree} is not a multiple of {g.degree}"
        )
    ell = p.degree // g.degree
    if g ** ell != p:
        raise PowerCheckError(f"polynomial is not the {ell}-th power of the base")
    return ell


def eval_poly(p: IntPolynomial, z) -> mpc:
    """Evaluate at an inexact point under the caller's working precision."""
    return p.evaluate(mpc(z))
