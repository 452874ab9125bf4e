"""Independent reference routes used only by the tests.

Everything here recomputes a quantity through a *different* algorithm than
the package: continued fractions instead of q-products, mpmath's own special
functions (qp, kleinj, jtheta) instead of hand-rolled series, the theta series
and the product of linear factors in mpmath floating point instead of the
package's fixed-point integers, scan-and-solve
enumeration instead of the package's loops, a rational Euclidean gcd instead
of the package's modular one, and one json.dumps of the whole `table`
document, its cells from QuadraticForm.transform, instead of the package's
row templates and per-rep weights.  Agreement between the two routes
is the point; none of this code is imported by the package.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, isqrt, prod

import mpmath
from mpmath import mp, mpc, mpf

from classpoly.conjugates import _identity_value, cartan_order
from classpoly.modfunc import GUARD_BITS
from classpoly.modgroup import UnimodularMatrix, enumerate_cosets, normalize_vector
from classpoly.polyalgebra import IntPolynomial
from classpoly.quadforms import CMOrder, QuadraticForm, reduced_forms


def egcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


# ----------------------------------------------------------------------
# special values through independent algorithms
# ----------------------------------------------------------------------

def rr_continued_fraction(tau, bits: int, depth: int | None = None) -> mpc:
    """q^(1/5) / (1 + q/(1 + q^2/(1 + q^3/(1 + ...)))), evaluated bottom-up.

    Truncation error decays like |q|^depth, so the default depth leaves
    plenty of slack below 2^-bits.
    """
    with mp.workprec(bits + 80):
        z = mpc(tau)
        q = mp.expjpi(2 * z)
        if depth is None:
            depth = int((bits + 80) / (-mp.log(abs(q), 2))) + 40
        powers = [q]  # q^n by products: a few bits lost, far below the 80 added
        for _ in range(depth - 1):
            powers.append(powers[-1] * q)
        acc = mpc(1)
        for qn in reversed(powers):
            acc = 1 + qn / acc
        value = mp.expjpi(2 * z / 5) / acc
    return value


def eta_reference(tau, bits: int) -> mpc:
    """Dedekind eta via mpmath's q-Pochhammer symbol."""
    with mp.workprec(bits + 80):
        z = mpc(tau)
        value = mp.expjpi(z / 12) * mpmath.qp(mp.expjpi(2 * z))
    return value


def j_reference(tau, bits: int) -> mpc:
    """The classical modular invariant via mpmath (normalized to 1728 at i)."""
    with mp.workprec(bits + 80):
        value = 1728 * mpmath.kleinj(mpc(tau))
    return value


def klein_theta_reference(r1, r2, tau, bits: int) -> mpc:
    """Klein form through Jacobi theta_1 instead of the raw q-product:

        k(r1, r2; tau) = -2i * exp(pi*i*r1*z) * theta1(pi*z) / theta1'(0)

    with z = r1*tau + r2 and nome exp(pi*i*tau).
    """
    with mp.workprec(bits + 80):
        z = mpc(tau)
        w = r1 * z + r2
        nome = mp.expjpi(z)
        th = mpmath.jtheta(1, mp.pi * w, nome)
        th0 = mpmath.jtheta(1, 0, nome, 1)
        value = -2j * mp.expjpi(r1 * w) * th / th0
    return value


def theta_reference(q: mpc, x: mpc) -> mpc:
    """The triple-product series sum_m (-1)^m q^(m(m-1)/2) x^m in mpc
    arithmetic at the ambient precision, with the package kernel's tail cut
    res (1-|q|)/4 and a second pass against cancellation: the floating-point
    route the fixed-point kernel replaced."""
    absq = abs(q)
    base = prec = mp.prec
    while True:
        with mp.workprec(prec):
            cut = mpf(2) ** -prec * (1 - absq) / 4
            total = mpc(1)
            for step in (x, q / x):
                term = -step
                abs_step = size = abs(step)
                while size >= cut:
                    total += term
                    step *= q
                    term *= -step
                    abs_step *= absq
                    size *= abs_step
        lost = -mp.mag(total)
        if prec >= base + lost - GUARD_BITS // 4:
            return total
        prec = base + lost


def assemble_reference(data, job):
    """prod (x - value) by the schoolbook in mpc arithmetic at bits +
    GUARD_BITS, with the package's reality shortcut; returns (coefficients
    ascending as mpc, is_real) like conjugates.assemble_poly."""
    base = _identity_value(data)
    bits = base.precision_bits
    is_real = abs(base.value.imag) < mpf(2) ** (-(bits // 2))
    with mp.workprec(bits + GUARD_BITS):
        roots = [d.value for d in data]
        if not is_real:
            roots.extend(mp.conj(r) for r in roots[:])
        coeffs = [mpc(1)]
        for root in roots:
            nxt = [mpc(0)] * (len(coeffs) + 1)
            for idx, c in enumerate(coeffs):
                nxt[idx + 1] += c
                nxt[idx] -= root * c
            coeffs = nxt
        return coeffs, is_real


# ----------------------------------------------------------------------
# class data through independent enumeration
# ----------------------------------------------------------------------

# classical values, checked against standard tables
CLASS_NUMBER_TABLE = {
    -4: 1, -7: 1, -8: 1, -11: 1, -12: 1, -15: 2, -16: 1, -19: 1,
    -20: 2, -23: 3, -24: 2, -27: 1, -28: 1, -31: 3, -32: 2, -35: 2,
    -36: 2, -39: 4, -40: 2, -43: 1, -47: 5, -52: 2, -56: 4, -68: 4,
    -71: 7, -84: 4, -163: 1,
}


def is_reduced(form: QuadraticForm) -> bool:
    """Gauss-reduced: |b| <= a <= c, with b >= 0 on the boundary."""
    if not abs(form.b) <= form.a <= form.c:
        return False
    return not ((abs(form.b) == form.a or form.a == form.c) and form.b < 0)


def brute_force_reduced_forms(disc: int):
    """Reduced primitive forms found by scanning (a, c) and solving for b."""
    assert disc < 0 and disc % 4 in (0, 1)
    out = []
    a = 1
    while 3 * a * a <= -disc:
        c = a
        while 4 * a * c <= a * a - disc:
            b2 = disc + 4 * a * c
            if b2 >= 0:
                b = isqrt(b2)
                if b * b == b2 and b <= a:
                    # -b is a distinct reduced form only strictly inside
                    signs = (b, -b) if (0 < b < a and a < c) else (b,)
                    for bb in signs:
                        if gcd(gcd(a, bb), c) == 1:
                            out.append((a, bb, c))
            c += 1
        a += 1
    return sorted(out)


def _prime_divisors(n: int):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def conductor_by_squarefreeness(disc: int) -> int:
    """The one f with disc / f^2 fundamental: squarefree and 1 mod 4, or 4m
    with m squarefree and 2 or 3 mod 4, squarefreeness read off the prime
    divisors."""
    def squarefree(n):
        return prod(_prime_divisors(-n)) == -n

    def fundamental(d):
        if d % 4 == 1:
            return squarefree(d)
        return d % 4 == 0 and d // 4 % 4 in (2, 3) and squarefree(d // 4)

    (f,) = [f for f in range(1, isqrt(-disc) + 1)
            if disc % (f * f) == 0 and fundamental(disc // (f * f))]
    return f


def coset_count_formula(n: int) -> int:
    """Index of the sign-extended unit-upper-triangular-mod-n subgroup:
    n^2 * prod(1 - p^-2) over primes p | n, halved once n > 2."""
    if n == 1:
        return 1
    idx = n * n
    for p in _prime_divisors(n):
        idx = idx // (p * p) * (p * p - 1)
    return idx if n <= 2 else idx // 2


def in_pm_gamma1(g: UnimodularMatrix, n: int) -> bool:
    """Definitional membership test, written out independently."""
    for sign in (1, -1):
        if (
            (sign * g.a) % n == 1 % n
            and (sign * g.c) % n == 0
            and (sign * g.d) % n == 1 % n
        ):
            return True
    return False


def index_of_column(table, a: int, c: int) -> int:
    """The index of the rep whose first column mod the level is the
    normalized column of (a, c)."""
    key = normalize_vector(a, c, table.level, table.tie_break)
    n = table.level
    return next(k for k, g in enumerate(table.reps) if (g.a % n, g.c % n) == key)


# ----------------------------------------------------------------------
# Z[zeta_5] by long division by 1 + x + x^2 + x^3 + x^4, apart from the
# package's cyclic convolution; a matrix [[a, b], [c, d]] as (a, b, c, d)
# ----------------------------------------------------------------------

def zeta5(*coeffs) -> tuple:
    """sum coeffs[k] zeta_5^k as its coefficients on 1, zeta, zeta^2, zeta^3."""
    cs = list(coeffs) + [0] * 4
    for top in range(len(cs) - 1, 3, -1):
        lead = cs[top]
        for k in range(top - 4, top + 1):
            cs[k] -= lead
    return tuple(cs[:4])


def zeta5_mul(x, y) -> tuple:
    product = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            product[i + j] += a * b
    return zeta5(*product)


def zeta5_matmul(m, n) -> tuple:
    (a, b, c, d), (e, f, g, h) = m, n

    def dot(x1, y1, x2, y2):
        return tuple(u + v for u, v in zip(zeta5_mul(x1, y1), zeta5_mul(x2, y2)))

    return (dot(a, e, b, g), dot(a, f, b, h), dot(c, e, d, g), dot(c, f, d, h))


def zeta5_proportional(m, n) -> bool:
    """m = lambda n for a scalar lambda of Q(zeta_5), n not zero: every 2x2
    minor of the rows m, n vanishes."""
    m, n = [zeta5(*x) for x in m], [zeta5(*x) for x in n]
    return any(any(x) for x in n) and all(
        zeta5_mul(m[i], n[j]) == zeta5_mul(m[j], n[i]) for i in range(4) for j in range(i))


# ----------------------------------------------------------------------
# random group elements (bottom row first, completed by Euclid)
# ----------------------------------------------------------------------

def random_sl2(rng, bound: int = 20) -> UnimodularMatrix:
    while True:
        c = rng.randint(-bound, bound)
        d = rng.randint(-bound, bound)
        if (c, d) == (0, 0) or gcd(c, d) != 1:
            continue
        g, x, y = egcd(d, c)
        if g < 0:
            g, x, y = -g, -x, -y
        assert g == 1
        a, b = x, -y  # a*d - b*c = 1
        t = rng.randint(-3, 3)
        return UnimodularMatrix(a + t * c, b + t * d, c, d)


def random_principal_congruence(rng, n: int, bound: int = 6) -> UnimodularMatrix:
    """Random matrix congruent to the identity mod n."""
    while True:
        c = n * rng.randint(-bound, bound)
        d = 1 + n * rng.randint(-bound, bound)
        if gcd(c, d) != 1:
            continue
        g, x, y = egcd(d, c)
        if g < 0:
            g, x, y = -g, -x, -y
        a, b = x, -y
        # shifting by the bottom row fixes the determinant; d = 1 mod n
        # walks b to 0 mod n, and a*d = 1 + b*c forces a = 1 mod n
        while b % n:
            a += c
            b += d
        return UnimodularMatrix(a, b, c, d)


def random_form(rng, bound: int = 25):
    """Random primitive positive definite form, any discriminant."""
    from classpoly.quadforms import QuadraticForm

    while True:
        a = rng.randint(1, bound)
        b = rng.randint(-bound, bound)
        c = (b * b) // (4 * a) + rng.randint(1, bound)
        if b * b - 4 * a * c >= 0:
            continue
        if gcd(gcd(a, b), c) != 1:
            continue
        return QuadraticForm(a, b, c)


# ----------------------------------------------------------------------
# polynomial gcd and division over the rationals
# ----------------------------------------------------------------------

def _fraction_coeffs(p: IntPolynomial):
    return [Fraction(c) for c in p.coeffs]


def _frac_degree(cs) -> int:
    d = len(cs) - 1
    while d >= 0 and cs[d] == 0:
        d -= 1
    return d


def _frac_mod(a, b):
    """Remainder of a by b over the rationals (lists, ascending)."""
    a = a[:]
    da, db = _frac_degree(a), _frac_degree(b)
    lead = b[db]
    while da >= db:
        factor = a[da] / lead
        shift = da - db
        for k in range(db + 1):
            a[k + shift] -= factor * b[k]
        da = _frac_degree(a)
    return a[: da + 1]


def content(p: IntPolynomial) -> int:
    g = 0
    for c in p.coeffs:
        g = gcd(g, abs(c))
    return g


def primitive_positive(p: IntPolynomial) -> IntPolynomial:
    """Divide out the content and make the leading coefficient positive."""
    if p.is_zero():
        return p
    g = content(p)
    sign = 1 if p.coeffs[-1] > 0 else -1
    return IntPolynomial(c * sign // g for c in p.coeffs)


def poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Greatest common divisor in Z[x] by Euclid over the rationals,
    primitive with positive leading coefficient.  gcd(p, 0) is the
    primitive positive part of p."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero():
        return primitive_positive(q)
    if q.is_zero():
        return primitive_positive(p)
    a, b = _fraction_coeffs(p), _fraction_coeffs(q)
    while _frac_degree(b) >= 0:
        a, b = b, _frac_mod(a, b)
    # clear denominators, then strip content
    lcm = 1
    for c in a:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ints = IntPolynomial(int(c * lcm) for c in a)
    return primitive_positive(ints)


def exact_divide(p: IntPolynomial, d: IntPolynomial) -> IntPolynomial:
    """Quotient p / d when the division is exact over Z[x]; raises otherwise."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    a = _fraction_coeffs(p)
    b = _fraction_coeffs(d)
    da, db = _frac_degree(a), _frac_degree(b)
    if da < db:
        raise ValueError("division is not exact")
    out = [Fraction(0)] * (da - db + 1)
    lead = b[db]
    while da >= db:
        factor = a[da] / lead
        out[da - db] = factor
        shift = da - db
        for k in range(db + 1):
            a[k + shift] -= factor * b[k]
        da = _frac_degree(a)
    if da >= 0:
        raise ValueError("division is not exact")
    if any(c.denominator != 1 for c in out):
        raise ValueError("division is not exact over the integers")
    return IntPolynomial(int(c) for c in out)


def squarefree_kernel(p: IntPolynomial) -> IntPolynomial:
    """p / gcd(p, p') through the rational Euclid above (p of degree >= 1)."""
    return exact_divide(p, poly_gcd(p, p.derivative()))


# ----------------------------------------------------------------------
# splitting at primes that split completely, on plain ints mod l
# ----------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def split_primes(disc: int, level: int, count: int, above: int) -> list:
    """The count least primes l > above, prime to level * disc, with
    l = x^2 + b x y + c y^2 on the principal form (1, b, c) of disc, y a
    nonzero multiple of level and x = +-1 (mod level).  l is then the norm
    of x - y omega, omega the root of the principal form, an element of the
    order = +-1 mod level, so l splits completely in the class field mod
    level of the order, up to +-1, where the values at the CM points of a
    function of this level live (Cho, J. Number Theory 130, 2010; for
    level 1, Cox, Primes of the form x^2 + ny^2, Thm. 9.4)."""
    b = disc % 2
    c = (b * b - disc) // 4
    bound, found = 4 * above + 64, set()
    while len(found) < count:
        for y in range(level, isqrt(4 * bound // -disc) + 1, level):
            for x in range(-isqrt(bound) - y, isqrt(bound) + y + 1):
                ell = x * x + b * x * y + c * y * y
                if (ell <= bound and ell > above and x % level in (1 % level, -1 % level)
                        and (level * disc) % ell and _is_prime(ell)):
                    found.add(ell)
        bound *= 4
    return sorted(found)[:count]


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _divmod_mod(a: list, m: list, ell: int):
    """Quotient and remainder of a by m in F_ell[x] (lists, ascending, m trimmed)."""
    a, inverse, quotient = [x % ell for x in a], pow(m[-1], -1, ell), []
    for top in range(len(a) - 1, len(m) - 2, -1):
        factor = a[top] * inverse % ell
        quotient.append(factor)
        for k, mk in enumerate(m, top - len(m) + 1):
            a[k] = (a[k] - factor * mk) % ell
    return quotient[::-1], _trim(a[: len(m) - 1])


def _mul_mod(a: list, b: list, m: list, ell: int) -> list:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return _divmod_mod(out, m, ell)[1]


def _squarefree_part_mod(f: list, ell: int) -> list:
    """f / gcd(f, f') in F_ell[x], f monic: its radical when deg f < ell."""
    a, b = _trim([x % ell for x in f]), _trim([k * x % ell for k, x in enumerate(f)][1:])
    while b:
        a, b = b, _divmod_mod(a, b, ell)[1]
    return _divmod_mod(f, a, ell)[0]


def split_prime_failures(coeffs: list, disc: int, level: int) -> list:
    """The primes of split_primes at which the monic integer polynomial with
    these ascending coefficients does not split into linear factors: a
    polynomial whose roots are the CM values of a function of this level
    splits at each, so x^l = x modulo its squarefree part s mod l.  Three
    primes above the degree are used, or twelve for degree 2 and below,
    where a wrong polynomial splits by chance more often."""
    degree = len(coeffs) - 1
    failures = []
    for ell in split_primes(disc, level, 3 if degree > 2 else 12, degree):
        s = _squarefree_part_mod(coeffs, ell)
        x = _divmod_mod([0, 1], s, ell)[1]
        power, base, e = [1], x, ell
        while e:
            if e & 1:
                power = _mul_mod(power, base, s, ell)
            base, e = _mul_mod(base, base, s, ell), e >> 1
        if power != x:
            failures.append(ell)
    return failures


# ----------------------------------------------------------------------
# the table subcommand's output, rendered as one whole document
# ----------------------------------------------------------------------

def render_table_reference(disc: int, level: int, fmt: str, tie_break: str) -> str:
    """What `classpoly table` prints, built the straightforward way: the whole
    grid in memory, then one json.dumps(indent=2) of the whole document, or
    the text lines written cell by cell."""
    order = CMOrder.from_discriminant(disc)
    table = enumerate_cosets(level, tie_break)
    forms = reduced_forms(order.disc)
    cartan = cartan_order(order, level)
    grid = [
        (i, k, f, gcd(f.a, level) == 1)
        for i, form in enumerate(forms)
        for k, f in enumerate(form.transform(g) for g in table.reps)
    ]
    passing = sum(p for *_, p in grid)
    if fmt == "json":
        doc = {
            "input": {"discriminant": disc, "level": level},
            "class_data": {
                "reduced_forms": [list(f.coefficients()) for f in forms],
                "coset_table": table.to_json_dict(),
                "unit_group": {
                    "matrix_count": cartan.matrix_count,
                    "torsion_count": cartan.torsion_count,
                    "quotient": cartan.quotient,
                },
                "grid": [
                    {
                        "i": i,
                        "k": k,
                        "form": list(f.coefficients()),
                        "passes_filter": bool(p),
                    }
                    for (i, k, f, p) in grid
                ],
                "class_count": passing,
            },
        }
        return json.dumps(doc, indent=2) + "\n"
    out = [f"discriminant {disc}, level {level}\n", f"reduced forms ({len(forms)}):\n"]
    out += [f"  i={i}: {f}\n" for i, f in enumerate(forms)]
    out.append(f"coset reps ({table.size()}, tie-break {table.tie_break}):\n")
    out += [f"  k={k}: {g}\n" for k, g in enumerate(table.reps)]
    out.append(
        f"unit group {cartan.matrix_count} / {cartan.torsion_count}"
        f" = {cartan.quotient}\n"
    )
    out.append(f"grid ({len(grid)} pairs, {passing} pass the filter):\n")
    for (i, k, f, p) in grid:
        out.append(
            f"  (i={i}, k={k}) {str(f):30s}"
            f" {'pass' if p else 'skip (leading coeff shares a factor)'}\n"
        )
    return "".join(out)
