"""Integer 2x2 matrices of determinant 1 and their congruence structure.

Provides the matrix type used everywhere else, coset tables for the image of
+-Gamma_1(N) inside SL2(Z) (each coset's column mod N completed to an SL2(Z)
matrix), and Mobius action on points of the upper half-plane.  Reduction to
the fundamental domain is Gauss reduction of forms, in quadforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from mpmath import mpc


@dataclass(frozen=True)
class UnimodularMatrix:
    """Element [[a, b], [c, d]] of SL2(Z)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant must be 1: {self.rows()}")

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "UnimodularMatrix":
        return UnimodularMatrix(self.d, -self.b, -self.c, self.a)

    def hat(self) -> "UnimodularMatrix":
        """Swap the diagonal entries.  An involution preserving determinant."""
        return UnimodularMatrix(self.d, self.b, self.c, self.a)

    def mod(self, n: int):
        """Entries reduced to [0, n), as a pair of row tuples."""
        return ((self.a % n, self.b % n), (self.c % n, self.d % n))

    def __str__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


IDENTITY = UnimodularMatrix(1, 0, 0, 1)
S = UnimodularMatrix(0, -1, 1, 0)
T = UnimodularMatrix(1, 1, 0, 1)


def translation(n: int) -> UnimodularMatrix:
    return UnimodularMatrix(1, n, 0, 1)


def mobius_apply(gamma: UnimodularMatrix, tau):
    """Fractional-linear action of gamma on a complex point of the upper
    half-plane.  Exact points are forms; gamma acts on the root of a form Q
    as Q.transform(gamma.inverse())."""
    z = mpc(tau)
    if z.imag <= 0:
        raise ValueError("point must lie in the upper half-plane")
    return (gamma.a * z + gamma.b) / (gamma.c * z + gamma.d)


# ----------------------------------------------------------------------
# cosets of +-Gamma_1(N) in SL2(Z)
# ----------------------------------------------------------------------

def normalize_vector(a: int, c: int, n: int, tie_break: str = "min"):
    """Canonical representative of {(a, c), (-a, -c)} mod n.

    Requires gcd(n, a, c) = 1.  tie_break picks the lexicographic min or max
    of the pair; either choice labels the same coset.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    if gcd(gcd(a, c), n) != 1:
        raise ValueError(f"column ({a}, {c}) is not primitive mod {n}")
    v = (a % n, c % n)
    w = ((-a) % n, (-c) % n)
    if tie_break == "min":
        return min(v, w)
    if tie_break == "max":
        return max(v, w)
    raise ValueError(f"unknown tie_break {tie_break!r}")


def lift_vector_to_sl2(a: int, c: int, n: int) -> UnimodularMatrix:
    """Some gamma in SL2(Z) whose first column is congruent to (a, c) mod n.

    The integer first column (a', c') is chosen with gcd(a', c') = 1 and
    c' in [1, n], then completed by u = a'^-1 mod c' as [[a', (a' u - 1)/c'],
    [c', u]], so 0 <= d < c'.
    """
    if n == 1:
        return IDENTITY
    a0, c0 = a % n, c % n
    if gcd(gcd(a0, c0), n) != 1:
        raise ValueError(f"column ({a}, {c}) is not primitive mod {n}")
    if c0 == 0 and a0 == 1:
        return IDENTITY
    if c0 == 0 and a0 == n - 1:
        return UnimodularMatrix(-1, 0, 0, -1)
    cp = c0 if c0 != 0 else n
    ap = a0
    while gcd(ap, cp) != 1:  # terminates: some a0 + t*n is coprime to cp
        ap += n
    u = pow(ap, -1, cp)
    return UnimodularMatrix(ap, (ap * u - 1) // cp, cp, u)


@dataclass(frozen=True)
class CosetTable:
    """Representatives of the cosets of +-Gamma_1(N) in SL2(Z).

    Cosets correspond to primitive columns (a, c) mod N up to global sign;
    reps[k] is an SL2(Z) lift of the k-th class, the classes ordered by
    their normalized columns, and its first column mod N is that column.
    """

    level: int
    reps: tuple
    tie_break: str = "min"

    def size(self) -> int:
        return len(self.reps)

    def to_json_dict(self):
        return {
            "level": self.level,
            "tie_break": self.tie_break,
            "reps": [[g.a, g.b, g.c, g.d] for g in self.reps],
        }


def enumerate_cosets(n: int, tie_break: str = "min") -> CosetTable:
    """Build the full coset table for level n.  One scan of the columns
    (a, c) mod n in lexicographic order keeps each primitive column that is
    its own normalize_vector; so each class is met once, in sorted order."""
    if n < 1:
        raise ValueError("level must be positive")
    reps = tuple(lift_vector_to_sl2(a, c, n) for a in range(n) for c in range(n)
                 if gcd(gcd(a, c), n) == 1
                 and normalize_vector(a, c, n, tie_break) == (a, c))
    return CosetTable(level=n, reps=reps, tie_break=tie_break)
