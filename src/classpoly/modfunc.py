"""Arbitrary-precision evaluation of the modular functions in the catalog.

A value has one entry point, ModularFunctionSpec.evaluate: it enters the
mpmath working-precision context of target_bits + GUARD_BITS and calls the
entry's evaluator, which takes its series only at a point reduced to the
fundamental domain (by Gauss reduction: every point is a form, a number the
root of one exactly), carries the value back by the function's
transformation law, and returns the mpc it computed there, its parts at the
full working precision.  One kernel, _theta_core,
sums the Jacobi triple product on Gaussian integers at its caller's scale:
the level-5 value is q^(1/5) theta(q^5, q) / theta(q^5, q^2) through the
kernel's mpc wrapper _theta_ctx, j is Weber's (f^24 + 16)^3 / f^24 with
f^24 = 2^12 q (P(q^2)/P(q))^24 and P(q) = theta(q^3, q), all but the last
steps on integers, one series per mirror pair (a, +-b, c), and a Klein
form at integer parameters a / n, moved into [0, n)^2 by its transformation
laws, is a prefactor times theta(q, e^(2 pi i (a1 tau + a2) / n)) / P(q)^3,
the prefactors of a quotient gathered into one exponential; the level-5 value
moves by a closed Moebius formula in gamma mod 5, the icosahedral action of
SL2(Z) on it (Duke, 2005).  Each evaluator takes a memo, a dict its caller
keeps for one attempt: each series is summed once per exact reduced form and
working precision and shared by the calls at that form; a call of evaluate
with no memo gets a fresh one.

The q^e convention throughout is q^e = exp(2*pi*i*e*tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, mpf_log, round_nearest, to_fixed, to_float

from .errors import NonConvergenceError
from .quadforms import QuadraticForm, form_of_point, reduce_form


GUARD_BITS = 64  # working headroom above the target precision
ESCALATION_FACTOR = 2  # growth of the bits per escalation


@dataclass(frozen=True)
class PrecisionConfig:
    """Precision of one evaluation attempt.

    target_bits is what the caller gets to rely on; max_escalations bounds
    the retries at escalated precision after a failed certificate.
    """

    target_bits: int = 256
    max_escalations: int = 3

    def __post_init__(self):
        if self.target_bits < 16:
            raise ValueError("target_bits must be at least 16")
        if self.max_escalations < 0:
            raise ValueError("max_escalations must not be negative")

    @property
    def working_bits(self) -> int:
        return self.target_bits + GUARD_BITS

    def escalated(self) -> "PrecisionConfig":
        """Next attempt: more precision."""
        return PrecisionConfig(
            target_bits=self.target_bits * ESCALATION_FACTOR,
            max_escalations=self.max_escalations,
        )


DEFAULT_PRECISION = PrecisionConfig()


def _reduce_point(tau, level: int = 1):
    """(form, gamma), by Gauss reduction, with the reduced form's root in the
    fundamental domain and level * tau = gamma root.  tau is a form or a
    number, which form_of_point makes the root of a form exactly; level * tau
    is the root of (a, level b, level^2 c) over its content."""
    form = tau if isinstance(tau, QuadraticForm) else form_of_point(tau)
    a, b, c = form.a, level * form.b, level * level * form.c
    g = math.gcd(a, b, c)
    return reduce_form(QuadraticForm(a // g, b // g, c // g))


def _share(memo, key, compute):
    """memo's value for key at this working precision, computed on a miss.
    key must fix that value: an exact point, not a rounded one."""
    key = (key, mp.prec)
    if key not in memo:
        memo[key] = compute()
    return memo[key]


# ----------------------------------------------------------------------
# the one series kernel and the evaluators built on it (evaluate holds the
# working-precision context)
# ----------------------------------------------------------------------

def _theta_core(q, x, y, shift: int, cut: int):
    """The Jacobi triple-product series sum_m (-1)^m q^(m(m-1)/2) x^m, on
    Gaussian integers at scale 2^shift: q, x and y = q/x are (re, im) pairs
    of ints, and so is the sum returned.  Summed outward from m = 0, each
    step and term a Gaussian-integer product shifted back by shift bits,
    rounded to nearest; each side stops at its first term below cut units,
    tested exactly on re^2 + im^2 against cut^2.  The caller picks shift and
    cut and owns the error bound (_theta_ctx, _j_series)."""
    qr, qi = q
    half = 1 << (shift - 1)
    cut2 = cut * cut
    total_re, total_im = 1 << shift, 0
    for sr, si in (x, y):  # -t_1 and -t_(-1); each later step gains a q
        tr, ti = -sr, -si
        while abs(tr) >= cut or abs(ti) >= cut or tr * tr + ti * ti >= cut2:
            total_re += tr
            total_im += ti
            sr, si = ((sr * qr - si * qi + half) >> shift,
                      (sr * qi + si * qr + half) >> shift)
            tr, ti = (-((tr * sr - ti * si + half) >> shift),
                      -((tr * si + ti * sr + half) >> shift))
    return total_re, total_im


def _fixed(z: mpc, shift: int):
    """z as a Gaussian integer at scale 2^shift."""
    return to_fixed(z.real._mpf_, shift), to_fixed(z.imag._mpf_, shift)


def _from_fixed(re: int, im: int, shift: int) -> mpc:
    """(re + i im) / 2^shift, each part rounded to the working precision."""
    return mp.make_mpc((from_man_exp(re, -shift, mp.prec, round_nearest),
                        from_man_exp(im, -shift, mp.prec, round_nearest)))


def _theta_ctx(q: mpc, x: mpc, label: str) -> mpc:
    """The Jacobi triple product as a series,

        prod (1-q^n)(1-q^(n-1) x)(1-q^n/x) = sum_m (-1)^m q^(m(m-1)/2) x^m,

    summed by _theta_core in fixed point: q, x and q/x become Gaussian
    integers at scale 2^F.

    With |q| < 1 and |q| <= |x| <= 1, every step past m = +-1 shrinks the
    term by at least |q|, so stopping each side at its first term below
    res (1-|q|)/4, with res = 2^-prec the working resolution, leaves a tail
    below res/4 per side.  Since |t_m| <= |q|^(m(m-1)/2), no side runs past

        n <= sqrt(2 (prec + log2(8/(1-|q|))) / log2(1/|q|)) + 2

    terms.  Each shift is off by at most one unit 2^-F, errors in the steps
    grow linearly and in the terms quadratically in m, so the terms summed
    are off by at most 12 n^3 units, and the stopping test, run on computed
    terms, leaves at most 12 n^4 units more tail (1/(1-|q|) <= n^2).  The
    guard F - prec = 4 bitlen(n) + 6 keeps all of that below res/2: the
    value returned is within res (1 + |sum|) of the series.

    No term exceeds 1, so a small sum has lost log2(1/|sum|) bits.  The
    evaluators sum only at reduced points, where |q| <= e^(-pi sqrt 3): the
    factors 1 - q^k of the level-5 value are near 1, and of a Klein
    form's, at x = q_a = e^(2 pi i (a1 z + a2) / n) with a in [0, n)^2, only
    one of 1 - q_a and 1 - q/q_a can be small, since |q_a| |q/q_a| = |q|; it
    is at least 2 sin(pi/n) if a1 = 0, else 1 - e^(-pi sqrt 3 / n), about
    5/n either way.  So such a sum loses at most about log2 n bits; one that
    loses more than a quarter of the guard bits is refused, not returned
    below its precision.  The zeros x = 1 and x = q are refused too.
    """
    absq = abs(q)
    if not (absq < 1 and absq <= abs(x) <= 1) or x in (1, q):
        raise ValueError(f"{label}: theta series needs |q| < 1, |q| <= |x| <= 1, x not 1 or q")
    gap = 1 - absq
    slope = -to_float(mpf_log(absq._mpf_, 53)) / math.log(2)  # inf at q = 0
    gap_bits = -to_float(mpf_log(gap._mpf_, 53)) / math.log(2)
    prec = mp.prec
    side = int(math.sqrt(2 * (prec + 3 + gap_bits) / slope)) + 2
    guard = 4 * side.bit_length() + 6
    shift = prec + guard
    with mp.workprec(shift):
        y = q / x
    cut = to_fixed(gap._mpf_, guard - 2)  # res (1-|q|)/4, in units
    total = _from_fixed(*_theta_core(_fixed(q, shift), _fixed(x, shift), _fixed(y, shift),
                                     shift, cut), shift)
    lost = -mp.mag(total)  # bits cancelled away
    if lost > GUARD_BITS // 4:
        raise NonConvergenceError(f"{label}: the theta series lost {lost} bits to cancellation")
    return total


def _rr_product_ctx(z: mpc) -> mpc:
    """q^(1/5) theta(q^5, q) / theta(q^5, q^2), which by the triple product
    is q^(1/5) prod (1-q^(5n-1))(1-q^(5n-4)) / ((1-q^(5n-2))(1-q^(5n-3)))."""
    q = mp.expjpi(2 * z)
    q2 = q * q
    q5 = q2 * q2 * q
    return (mp.expjpi(2 * z / 5) * _theta_ctx(q5, q, "rr-product")
            / _theta_ctx(q5, q2, "rr-product"))


def _replay_constants():
    """zeta_5^k, k mod 5, at the working precision, and zeta^k and phi =
    (1 + sqrt 5) / 2 in parts at scale 2^(prec + 16)."""
    shift = mp.prec + 16
    with mp.workprec(shift + 8):
        zeta = mp.expjpi(mpf(2) / 5)
        powers = (mpc(1), zeta, zeta * zeta, mp.conj(zeta * zeta), mp.conj(zeta))
        phi = (1 + mp.sqrt(5)) / 2
    return ([+x for x in powers], [to_fixed(x.real._mpf_, shift) for x in powers],
            [to_fixed(x.imag._mpf_, shift) for x in powers], to_fixed(phi._mpf_, shift))


def _replay_value(gamma, value: mpc, memo) -> mpc:
    """Given value = r(z) at a point z of the fundamental domain, return
    r(gamma z).  SL2(Z) acts on r through SL2(Z/5) by T: v -> zeta v and
    S: v -> (1 - phi v) / (phi + v), and diag(2, 3) acts as v -> -1/v.  If
    c = 0 mod 5, +-gamma is T^(b d) or diag(2, 3) T^k mod 5, so r(gamma z) is
    zeta^(b d) v for a = +-1 and -zeta^(-b d) / v for a = +-2: one mpc
    operation, with no loss for any value.  Otherwise gamma = T^(a/c) S
    diag(c, 1/c) T^(d/c) mod 5, and with u = zeta^(d/c) v

        r(gamma z) = zeta^(a/c) (1 - phi u) / (phi + u)    for c = +-1,
                     zeta^(a/c) (phi + u) / (phi u - 1)    for c = +-2 mod 5.

    |r(z)| < 0.34 keeps every numerator and denominator above 0.45 in modulus,
    so these run on Gaussian integers at scale 2^(prec + 16): products shifted
    back, one integer division per part.  The constants are shared in memo."""
    zetas, reals, imags, phi = _share(memo, "rr-replay", _replay_constants)
    c = gamma.c % 5
    if c == 0:
        turn = gamma.b * gamma.d % 5
        return zetas[turn] * value if gamma.a % 5 in (1, 4) else -zetas[-turn] / value
    shift = mp.prec + 16
    one, inverse = 1 << shift, pow(c, -1, 5)

    def turned(k, x, y):  # zeta^k (x + i y)
        return (reals[k] * x - imags[k] * y) >> shift, (reals[k] * y + imags[k] * x) >> shift

    ur, ui = turned(gamma.d * inverse % 5, *_fixed(value, shift))
    if c in (1, 4):
        (nr, ni), (er, ei) = (one - (phi * ur >> shift), -(phi * ui >> shift)), (phi + ur, ui)
    else:
        (nr, ni), (er, ei) = (phi + ur, ui), ((phi * ur >> shift) - one, phi * ui >> shift)
    nr, ni = turned(gamma.a * inverse % 5, nr, ni)
    norm = er * er + ei * ei
    return _from_fixed(((nr * er + ni * ei) << shift) // norm,
                       ((ni * er - nr * ei) << shift) // norm, shift)


def _rr_ctx(tau, memo) -> mpc:
    """r(tau) from r(z) at the reduced point, moved by _replay_value, which
    loses no bits, at the one working precision; r(z) and the constants are
    shared in memo."""
    point, gamma = _reduce_point(tau)
    value = _share(memo, (point, "rr"), lambda: _rr_product_ctx(point.to_mpc()))
    return _replay_value(gamma, value, memo)


def _j_ctx(tau, memo) -> mpc:
    """Klein j at the reduced point of tau (exact invariance), the whole
    value shared in memo.  j has rational Fourier coefficients, so
    j(-conj z) = conj j(z): a reduced (a, b, c) with b < 0, whose mirror
    (a, -b, c) is reduced too since |b| < a < c, takes the exact conj of its
    mirror's value, and each mirror pair sums one series."""
    point, _ = _reduce_point(tau)
    if point.b < 0:
        mirror = QuadraticForm(point.a, -point.b, point.c)
        return mp.conj(_share(memo, (mirror, "j"), lambda: _j_series(mirror.to_mpc())))
    return _share(memo, (point, "j"), lambda: _j_series(point.to_mpc()))


def _j_series(z: mpc) -> mpc:
    """j at a reduced point z by Weber's (f^24 + 16)^3 / f^24, where f = f2
    and f^24 = 2^12 q R with R = (P(q^2) / P(q))^24 and P(q) = prod (1-q^n)
    = theta(q^3, q).  R is built on Gaussian integers at scale 2^F: q once
    from its mpc, q^2, q^3, q^4 and q^6 as rounded products, P(q) and P(q^2)
    by _theta_core, then their quotient and its 24th power.  Only
    f^24 = 4096 q R and the last step stay in mpc, so that q keeps its
    relative precision where it is far below 2^-F (about 2^-290 at the
    reduced point of (-4079, 1)).

    At a reduced point |q| <= e^(-pi sqrt 3) < 1/200, so |P(q) - 1| <=
    |q| / (1 - |q|) < 0.01, and the same for P(q^2): neither sum can cancel,
    so neither needs _theta_ctx's cancellation test.  Both sums run at
    s = prec + 12 bits, prec the working precision, with _theta_ctx's guard
    and one bit more: their nome q^3 or q^6 is below 2^-23.5, so no side runs
    past n = sqrt(2 (s + 3) / 23.5) + 2 terms; the cut res_s / 8 is below
    _theta_ctx's res_s (1 - |q^3|) / 4; and the inputs, off by at most 2
    units where its derivation allows 1, double its bound.  So each sum is
    within 2^(1-s) (1 + |P|) < 2^-(prec+9) of P, their quotient within
    2^-(prec+7) relatively, and its 24th power, which multiplies a relative
    error by 24 and adds under 50 units of rounding, within 2^-(prec+2):
    below the relative error that mp.expjpi leaves in q.
    """
    q = mp.expjpi(2 * z)
    inner = mp.prec + 12
    side = int(math.sqrt(2 * (inner + 3) / 23.5)) + 2
    guard = 4 * side.bit_length() + 7
    shift = inner + guard
    half = 1 << (shift - 1)

    def times(x, y):
        return ((x[0] * y[0] - x[1] * y[1] + half) >> shift,
                (x[0] * y[1] + x[1] * y[0] + half) >> shift)

    q1 = _fixed(q, shift)
    q2 = times(q1, q1)
    q3 = times(q2, q1)
    q4 = times(q2, q2)
    cut = 1 << (guard - 3)  # res_s / 8, in units
    pr, pi = _theta_core(q3, q1, q2, shift, cut)  # P(q)
    sr, si = _theta_core(times(q3, q3), q2, q4, shift, cut)  # P(q^2)
    norm = pr * pr + pi * pi
    ratio = (((sr * pr + si * pi) << shift) // norm, ((si * pr - sr * pi) << shift) // norm)
    r = times(times(ratio, ratio), ratio)
    for _ in range(3):
        r = times(r, r)
    f24 = 4096 * q * _from_fixed(*r, shift)
    # products, not **: mpmath's high-precision pow is log/exp
    return (f24 + 16) * (f24 + 16) * (f24 + 16) / f24


def _klein_move(r: tuple, gamma, n: int):
    """K2, then K3 (Kubert-Lang, *Modular Units*, ch. 2) on Klein parameters
    r / n, r a pair of integers: r moves to r gamma, then into [0, n)^2 by
    k_(a+b) = (-1)^(b1 b2 + b1 + b2) e^(-pi i (b1 a2 - b2 a1)) k_a, b integral.
    Returns the moved pair a, which is (0, 0) only when r / n is integral,
    since gamma is invertible over Z, and an integer t: e^(pi i t / n^2) is
    that root of unity times the constant prefactor e^(pi i a2 (a1 - n) / n^2)
    of k_a."""
    b1, a1 = divmod(r[0] * gamma.a + r[1] * gamma.c, n)
    b2, a2 = divmod(r[0] * gamma.b + r[1] * gamma.d, n)
    t = n * n * (b1 * b2 + b1 + b2) - n * (b1 * a2 - b2 * a1) + a2 * (a1 - n)
    return (a1, a2), t


def _klein_ctx(forms, point, gamma, n: int, memo) -> mpc:
    """prod (k_(r gamma)(z) P(q)^3)^e over the (e, r) in forms, e = +-1, r / n
    Klein parameters, z the reduced point's root: by K2, prod k_r(gamma z)^e
    when the exponents sum to zero.  After _klein_move, k_a P(q)^3 is the
    prefactor e^(pi i t / n^2) q^(a1 (a1-n) / (2 n^2)) times theta(q, q_a), with
    q_a = e^(2 pi i (a1 z + a2) / n), where a in [0, n)^2, not (0, 0), keeps
    |q| <= |q_a| <= 1 and q_a != 1.  z, q and each theta are shared in memo."""
    z = _share(memo, (point, "root"), point.to_mpc)
    q = _share(memo, (point, "q"), lambda: mp.expjpi(2 * z))
    turns = slope = 0
    value = mpc(1)
    for e, r in forms:
        (a1, a2), t = _klein_move(r, gamma, n)
        turns += e * t
        slope += e * a1 * (a1 - n)
        theta = _share(memo, (point, n, a1, a2), lambda: _theta_ctx(
            q, mp.expjpi(2 * (a1 * z + a2) / n), "klein-form"))
        value = value * theta if e == 1 else value / theta
    return mp.expjpi((turns % (2 * n * n) + slope * z) / (n * n)) * value


# ----------------------------------------------------------------------
# identity checks
# ----------------------------------------------------------------------

def _icosahedral_residual(x: mpc, jv: mpc) -> mpf:
    """Relative backward error |F| / (|x dF/dx| + |j dF/dj|) of the degree-60
    relation F = A^3 + j x^5 C^5 = 0 between the level-5 value x and j, with
    A = x^20 - 228 x^15 + 494 x^10 + 228 x^5 + 1, C = x^10 + 11 x^5 - 1: to
    first order, the least relative change of x and j that makes F vanish.
    It stays small near a root of C, where j is huge and F ill-conditioned."""
    # products, not **: mpmath's high-precision pow is log/exp
    x2 = x * x
    x5 = x2 * x2 * x
    x10 = x5 * x5
    x15 = x10 * x5
    x20 = x15 * x5
    a = x20 - 228 * x15 + 494 * x10 + 228 * x5 + 1
    xa = 20 * x20 - 3420 * x15 + 4940 * x10 + 1140 * x5  # x dA/dx
    c = x10 + 11 * x5 - 1
    c4 = (c * c) * (c * c)
    jb = jv * x5 * c4 * c  # j dF/dj
    xb = 5 * x5 * c4 * (11 * x10 + 66 * x5 - 1)  # x d(x^5 C^5)/dx
    a2 = a * a
    return abs(a2 * a + jb) / (abs(3 * a2 * xa + jv * xb) + abs(jb))


def check_icosahedral(tau, cfg: PrecisionConfig = DEFAULT_PRECISION):
    """The icosahedral relation between r(tau) and j(tau), as its relative
    backward error (_icosahedral_residual).  Returns an mpf."""
    r, j = eval_rr(tau, cfg), eval_j(tau, cfg)
    with mp.workprec(cfg.working_bits):
        return _icosahedral_residual(r, j)


def check_klein_relation(tau, cfg: PrecisionConfig = DEFAULT_PRECISION):
    """Relative difference between r(tau), replayed from its reduced point,
    and the klein-quotient:1/5,0|2/5,0 entry at tau, which moves its Klein
    parameters from the reduced point of 5 tau instead.  Returns an mpf."""
    quotient = catalog_lookup("klein-quotient:1/5,0|2/5,0").evaluate(tau, cfg)
    r = eval_rr(tau, cfg)
    with mp.workprec(cfg.working_bits):
        return abs(r - quotient) / abs(r)


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ModularFunctionSpec:
    """A named function the pipeline can evaluate.

    level: the congruence level its invariance group sits inside.
    has_rational_coefficients: whether its Fourier coefficients are rational,
    which the conjugate pipeline requires.
    evaluator: (tau, memo) -> the value at tau, at the working precision
    that evaluate holds.
    """

    name: str
    level: int
    has_rational_coefficients: bool
    evaluator: Callable = field(compare=False)
    description: str = field(default="", compare=False)

    def evaluate(self, tau, cfg: PrecisionConfig = DEFAULT_PRECISION,
                 memo: dict | None = None) -> mpc:
        """The value at tau, its parts at cfg's working precision, the one
        place a value enters that precision.  memo, a dict the caller keeps
        for one attempt at one precision, shares each series among the calls
        at the same exact reduced point; a fresh one is used when it is None."""
        with mp.workprec(cfg.working_bits):
            return self.evaluator(tau, {} if memo is None else memo)


_BASE_CATALOG = (
    ModularFunctionSpec(
        name="rogers-ramanujan",
        level=5,
        has_rational_coefficients=True,
        evaluator=_rr_ctx,
        description="level-5 continued-fraction value r(tau)",
    ),
    ModularFunctionSpec(
        name="j",
        level=1,
        has_rational_coefficients=True,
        evaluator=_j_ctx,
        description="Klein j-function",
    ),
)

# eval_rr(tau, cfg, memo): r(tau), moved from the reduced point by the
# matrix; eval_j(tau, cfg, memo): Klein j (1728 at i, 0 at the hexagonal point)
eval_rr, eval_j = (entry.evaluate for entry in _BASE_CATALOG)

_KLEIN_PREFIX = "klein-quotient:"


def _parse_klein_quotient(name: str) -> ModularFunctionSpec:
    body = name[len(_KLEIN_PREFIX):]
    try:
        top, bottom = body.split("|")
        p1, p2 = (Fraction(s) for s in top.split(","))
        q1, q2 = (Fraction(s) for s in bottom.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed klein-quotient name {name!r}") from exc
    if (p1.denominator, p2.denominator) == (1, 1) or (q1.denominator, q2.denominator) == (1, 1):
        raise ValueError("Klein parameters must not both be integers")
    level = math.lcm(p1.denominator, p2.denominator, q1.denominator, q2.denominator)
    rational = p2 == 0 and q2 == 0 and level % 2 == 1
    forms = ((1, (int(p1 * level), int(p2 * level))), (-1, (int(q1 * level), int(q2 * level))))
    return ModularFunctionSpec(
        name=name,
        level=level,
        has_rational_coefficients=rational,
        evaluator=lambda tau, memo: _klein_ctx(forms, *_reduce_point(tau, level), level, memo),
        description=(
            f"quotient of Klein forms at ({p1},{p2}) and ({q1},{q2}), "
            f"argument scaled by {level} and reduced to the fundamental "
            f"domain, parameters moved by the transformation law"
        ),
    )


def catalog_entries():
    """The fixed named entries (parametrized Klein quotients not listed)."""
    return list(_BASE_CATALOG)


def catalog_lookup(name: str) -> ModularFunctionSpec:
    for entry in _BASE_CATALOG:
        if entry.name == name:
            return entry
    if name.startswith(_KLEIN_PREFIX):
        return _parse_klein_quotient(name)
    known = ", ".join(e.name for e in _BASE_CATALOG)
    raise ValueError(
        f"unknown function {name!r}; known: {known}, plus "
        f"'{_KLEIN_PREFIX}p,q|r,s' with rational parameters"
    )
