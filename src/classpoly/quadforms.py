"""Integral binary quadratic forms and imaginary quadratic orders.

A form (a, b, c) stands for a*x^2 + b*x*y + c*y^2; throughout the package
forms are primitive and positive definite, so the discriminant b^2 - 4ac is
negative.  A form is also the exact CM point it determines, its root
(-b + sqrt(D)) / (2a) in the upper half-plane: a matrix acts on the point by
acting on the form.  A complex number, whose parts are dyadic, is the root
of a form too, so reduction to the fundamental domain is Gauss reduction for
every point.  The order of discriminant D is Z[tau] where tau is a root of
x^2 + b*x + c chosen in the upper half-plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from mpmath import mp, mpc, mpf

from .modgroup import UnimodularMatrix


def _validate_discriminant(d: int) -> None:
    if d >= 0:
        raise ValueError("discriminant must be negative")
    if d % 4 not in (0, 1):
        raise ValueError("discriminant must be 0 or 1 mod 4")


# How a form (a, b, c) is written, for QuadraticForm and for raw triples.
FORM_TEXT = "%dx^2 + %dxy + %dy^2"


@dataclass(frozen=True)
class QuadraticForm:
    """Primitive positive definite form a*x^2 + b*x*y + c*y^2."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0 or self.discriminant >= 0:
            raise ValueError(f"form {self.coefficients()} is not positive definite")
        if gcd(gcd(self.a, self.b), self.c) != 1:
            raise ValueError(f"form {self.coefficients()} is not primitive")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def coefficients(self):
        return (self.a, self.b, self.c)

    def transform(self, gamma: UnimodularMatrix) -> "QuadraticForm":
        """Right action: substitute (x, y) -> gamma * (x, y)."""
        p, q, r, s = gamma.a, gamma.b, gamma.c, gamma.d
        a, b, c = self.a, self.b, self.c
        return QuadraticForm(
            a * p * p + b * p * r + c * r * r,
            2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
            a * q * q + b * q * s + c * s * s,
        )

    def to_mpc(self) -> mpc:
        """The root (-b + sqrt(D)) / (2a), in the upper half-plane, at the
        current working precision."""
        two_a = 2 * self.a
        return mpf(-self.b) / two_a + mpf(1) / two_a * mp.sqrt(mpc(self.discriminant))

    def __str__(self):
        return FORM_TEXT % self.coefficients()


def reduce_form(form: QuadraticForm):
    """Gauss reduction.  Returns (reduced, gamma) with form.transform(gamma)
    equal to reduced; gamma is the exact witness in SL2(Z), and the form's
    root is gamma applied to the reduced root.  The steps act on plain ints:
    T^k sends (a, b, c) to (a, b + 2ak, ak^2 + bk + c), S sends it to
    (c, -b, a); every S step but a last one at a = c lowers a."""
    a, b, c = form.a, form.b, form.c
    p, q, r, s = 1, 0, 0, 1
    while True:
        k = (a - b) // (2 * a)  # translate b into (-a, a]
        b, c = b + 2 * a * k, (a * k + b) * k + c
        q, s = p * k + q, r * k + s
        if a < c or (a == c and b >= 0):
            return QuadraticForm(a, b, c), UnimodularMatrix(p, q, r, s)
        a, b, c = c, -b, a
        p, q, r, s = q, -p, s, -r


def form_of_point(tau) -> QuadraticForm:
    """The form whose root is tau, an mpc at the working precision, exactly.
    Its parts are dyadic, x = X / s and y = Y / s with s = 2^k, so tau is the
    root of (s^2, -2 s X, X^2 + Y^2), taken over its content; to_mpc gives
    tau back to the last bit."""
    z = mpc(tau)
    if not (mp.isfinite(z) and z.imag > 0):
        raise ValueError("point must lie in the upper half-plane")
    e = min(z.real.exp, z.imag.exp, 0)
    x, y, s = int(mp.ldexp(z.real, -e)), int(mp.ldexp(z.imag, -e)), 1 << -e
    a, b, c = s * s, -2 * s * x, x * x + y * y
    g = gcd(a, b, c)
    return QuadraticForm(a // g, b // g, c // g)


def fundamental_domain_reduce(tau):
    """Move tau into the standard fundamental domain for SL2(Z), exactly:
    Gauss reduction of form_of_point(tau).  Returns (tau_star, gamma) with
    tau = gamma tau_star, tau_star the reduced root at the working
    precision."""
    reduced, gamma = reduce_form(form_of_point(tau))
    return reduced.to_mpc(), gamma


def reduced_forms(discriminant: int) -> list:
    """All reduced primitive positive definite forms of the discriminant,
    in lexicographic (a, b, c) order, the order the loops emit them in."""
    _validate_discriminant(discriminant)
    out = []
    a_max = isqrt(-discriminant // 3)
    for a in range(1, a_max + 1):
        for b in range(-a, a + 1):
            if (b * b - discriminant) % (4 * a):
                continue
            c = (b * b - discriminant) // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == c or -b == a):
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            out.append(QuadraticForm(a, b, c))
    return out


def class_number(discriminant: int) -> int:
    return len(reduced_forms(discriminant))


def _conductor(discriminant: int) -> int:
    """The largest f with f^2 dividing the discriminant and the quotient
    still 0 or 1 mod 4.  That quotient is fundamental: were it not, its own
    conductor times f would be a larger such f."""
    return max(f for f in range(1, isqrt(-discriminant) + 1)
               if discriminant % (f * f) == 0
               and discriminant // (f * f) % 4 in (0, 1))


@dataclass(frozen=True)
class CMOrder:
    """Imaginary quadratic order of discriminant disc.

    The generator tau satisfies x^2 + b*x + c = 0 with (b, c) read off the
    discriminant parity; conductor is the index of the order in the maximal
    one, i.e. the largest f with disc/f^2 fundamental.
    """

    disc: int
    b: int
    c: int
    fundamental_discriminant: int
    conductor: int

    @classmethod
    def from_discriminant(cls, discriminant: int) -> "CMOrder":
        _validate_discriminant(discriminant)
        b = discriminant % 2  # 0 or 1 matching parity
        c = (b * b - discriminant) // 4
        f = _conductor(discriminant)
        return cls(
            disc=discriminant,
            b=b,
            c=c,
            fundamental_discriminant=discriminant // (f * f),
            conductor=f,
        )

    def principal_form(self) -> QuadraticForm:
        return QuadraticForm(1, self.b, self.c)
