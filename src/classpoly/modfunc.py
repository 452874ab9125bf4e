"""Arbitrary-precision evaluation of the modular functions in the catalog.

Every evaluator runs inside an mpmath working-precision context of
target_bits + guard_bits, truncates its q-expansion only once a certified
tail bound drops below the working resolution, and returns an APComplex
tagged with the certified target precision.

The q^e convention throughout is q^e = exp(2*pi*i*e*tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from mpmath import mp, mpc, mpf

from .errors import NonConvergenceError
from .modgroup import (
    TOKEN_S,
    TOKEN_T,
    TOKEN_T_INV,
    fundamental_domain_reduce,
)


@dataclass(frozen=True)
class PrecisionConfig:
    """Knobs for one evaluation attempt.

    target_bits is what the caller gets to rely on; guard_bits is the extra
    working headroom; max_terms caps every q-expansion loop.
    """

    target_bits: int = 256
    guard_bits: int = 64
    max_terms: int = 500_000
    escalation_factor: int = 2
    max_escalations: int = 3

    def __post_init__(self):
        if self.target_bits < 16:
            raise ValueError("target_bits must be at least 16")
        if self.guard_bits < 32:
            raise ValueError("guard_bits must be at least 32")
        if self.max_terms < 16:
            raise ValueError("max_terms too small")
        if self.escalation_factor < 2:
            raise ValueError("escalation_factor must be at least 2")

    @property
    def working_bits(self) -> int:
        return self.target_bits + self.guard_bits

    def escalated(self) -> "PrecisionConfig":
        """Next attempt: more precision and a matching term budget."""
        return PrecisionConfig(
            target_bits=self.target_bits * self.escalation_factor,
            guard_bits=self.guard_bits,
            max_terms=self.max_terms * self.escalation_factor,
            escalation_factor=self.escalation_factor,
            max_escalations=self.max_escalations,
        )


DEFAULT_PRECISION = PrecisionConfig()


@dataclass(frozen=True)
class APComplex:
    """A complex value carrying the precision it was certified at."""

    re: mpf
    im: mpf
    precision_bits: int

    @classmethod
    def from_mpc(cls, z, precision_bits: int) -> "APComplex":
        if not isinstance(z, mpc):
            z = mpc(z)  # rounds to the ambient precision; callers hold it
        return cls(re=z.real, im=z.imag, precision_bits=precision_bits)

    def to_mpc(self) -> mpc:
        # raw construction: independent of the ambient precision
        return mp.make_mpc((self.re._mpf_, self.im._mpf_))

    def conjugate(self) -> "APComplex":
        return APComplex(self.re, -self.im, self.precision_bits)

    def is_real_within(self, threshold) -> bool:
        return abs(self.im) < threshold

    def _dps(self) -> int:
        return int(self.precision_bits * 0.30103) + 3

    def re_str(self) -> str:
        return mp.nstr(self.re, self._dps())

    def im_str(self) -> str:
        return mp.nstr(self.im, self._dps())

    def __str__(self):
        return f"{self.re_str()} + {self.im_str()}i"


def _as_mpc(tau) -> mpc:
    """Coerce a point to mpc at the current precision; must be in the upper
    half-plane."""
    if hasattr(tau, "to_mpc"):
        z = tau.to_mpc()
    else:
        z = mpc(tau)
    if not z.imag > 0:
        raise ValueError(f"point {z} is not in the upper half-plane")
    return z


def _resolution() -> mpf:
    # smallest magnitude the current context should trust
    return mpf(2) ** (-(mp.prec))


def _check_budget(absq, smallest_exponent, cfg: PrecisionConfig, label: str):
    """Fail fast when the geometric tail cannot reach the resolution within
    the term budget.  absq < 1 is required."""
    if absq >= 1:
        raise ValueError("q must have magnitude below 1")
    # terms needed ~ working_bits * ln 2 / -ln|q|
    needed = (mp.prec + 8) * mp.ln(2) / (-mp.ln(absq))
    if needed / smallest_exponent > cfg.max_terms:
        raise NonConvergenceError(
            f"{label}: ~{int(needed)} factors needed, budget {cfg.max_terms}"
        )


# ----------------------------------------------------------------------
# core q-expansions (callers hold the working-precision context)
# ----------------------------------------------------------------------

def _rr_product_ctx(z: mpc, cfg: PrecisionConfig) -> mpc:
    """q^(1/5) * prod (1-q^(5n-1))(1-q^(5n-4)) / ((1-q^(5n-2))(1-q^(5n-3)))."""
    q = mp.expjpi(2 * z)
    absq = abs(q)
    _check_budget(absq, 5, cfg, "rr-product")
    value = mp.expjpi(2 * z / 5)
    q1 = q
    q2 = q1 * q
    q3 = q2 * q
    q4 = q3 * q
    q5 = q4 * q
    run = mpc(1)  # q^(5(n-1))
    abs_run = mpf(1)
    res = _resolution()
    terms = 0
    while True:
        # remaining log-magnitude <= 4|q|^(5n-4)/(1-|q|), doubled for safety
        tail = 8 * abs_run * abs(q1) / (1 - absq)
        if tail < res:
            break
        value *= (1 - run * q4) * (1 - run * q1) / ((1 - run * q3) * (1 - run * q2))
        run *= q5
        abs_run *= absq ** 5
        terms += 4
        if terms > cfg.max_terms:
            raise NonConvergenceError("rr-product exceeded max_terms")
    return value


def _phi():
    return (1 + mp.sqrt(5)) / 2


def _zeta5():
    return mp.expjpi(mpf(2) / 5)


def _replay_value(word, value: mpc) -> mpc:
    """Given value = r(final point), undo the recorded reduction moves to get
    r at the original point.  Inverting a T^-1 move multiplies by zeta_5,
    inverting a T move divides, and the S move rule is an involution."""
    zeta = _zeta5()
    phi = _phi()
    for token in reversed(word.tokens):
        if token == TOKEN_T_INV:
            value = value * zeta
        elif token == TOKEN_T:
            value = value / zeta
        elif token == TOKEN_S:
            value = (1 - phi * value) / (phi + value)
    return value


_RR_RULES_OK: Optional[bool] = None

_RULE_CHECK_POINTS = [(-45 + 10 * k, 90 + 9 * k) for k in range(10)]  # /100


def verify_transformation_rules(force: bool = False) -> bool:
    """Check the translation and inversion rules for the level-5 continued
    fraction against the raw q-product at fixed sample points.

    The result is cached; argument reduction is only used when this passes.
    """
    global _RR_RULES_OK
    if _RR_RULES_OK is not None and not force:
        return _RR_RULES_OK
    cfg = PrecisionConfig(target_bits=160)
    ok = True
    with mp.workprec(cfg.working_bits):
        zeta = _zeta5()
        phi = _phi()
        tol = mpf(2) ** -120
        for re_part, im_part in _RULE_CHECK_POINTS:
            z = mpc(mpf(re_part) / 100, mpf(im_part) / 100)
            v = _rr_product_ctx(z, cfg)
            if abs(_rr_product_ctx(z + 1, cfg) - zeta * v) > tol:
                ok = False
                break
            w = _rr_product_ctx(-1 / z, cfg)
            if abs(w - (1 - phi * v) / (phi + v)) > tol:
                ok = False
                break
    _RR_RULES_OK = ok
    return ok


_DIRECT_IM_THRESHOLD = 0.5


def _rr_ctx(z: mpc, cfg: PrecisionConfig) -> mpc:
    if z.imag > _DIRECT_IM_THRESHOLD or not verify_transformation_rules():
        return _rr_product_ctx(z, cfg)
    z_star, word = fundamental_domain_reduce(z)
    return _replay_value(word, _rr_product_ctx(z_star, cfg))


def _eta_product_ctx(z: mpc, cfg: PrecisionConfig) -> mpc:
    """prod_(n>=1) (1 - q^n), certified."""
    q = mp.expjpi(2 * z)
    absq = abs(q)
    _check_budget(absq, 1, cfg, "eta-product")
    res = _resolution()
    value = mpc(1)
    qn = q
    abs_qn = absq
    terms = 0
    while 4 * abs_qn / (1 - absq) >= res:
        value *= 1 - qn
        qn *= q
        abs_qn *= absq
        terms += 1
        if terms > cfg.max_terms:
            raise NonConvergenceError("eta-product exceeded max_terms")
    return value


def _eta_ctx(z: mpc, cfg: PrecisionConfig) -> mpc:
    return mp.expjpi(z / 12) * _eta_product_ctx(z, cfg)


def _sigma3(n: int) -> int:
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** 3
            e = n // d
            if e != d:
                total += e ** 3
        d += 1
    return total


def _e4_ctx(z: mpc, cfg: PrecisionConfig) -> mpc:
    """Weight-4 Eisenstein series 1 + 240 sum sigma_3(n) q^n."""
    q = mp.expjpi(2 * z)
    absq = abs(q)
    _check_budget(absq, 1, cfg, "eisenstein-4")
    res = _resolution()
    value = mpc(1)
    qn = q
    abs_qn = absq
    n = 1
    while True:
        # sigma_3(m) <= 1.21 m^3; bound covers every term from n on
        tail = 290 * (n ** 3) * abs_qn / (1 - absq) ** 4
        if tail < res and n > 1:
            break
        value += 240 * _sigma3(n) * qn
        qn *= q
        abs_qn *= absq
        n += 1
        if n > cfg.max_terms:
            raise NonConvergenceError("eisenstein-4 exceeded max_terms")
    return value


def _j_ctx(z: mpc, cfg: PrecisionConfig) -> mpc:
    """Klein j-function via E4^3 / (q prod(1-q^n)^24), after moving z into
    the fundamental domain (exact invariance)."""
    z_star, _ = fundamental_domain_reduce(z)
    q = mp.expjpi(2 * z_star)
    disc = q * _eta_product_ctx(z_star, cfg) ** 24
    return _e4_ctx(z_star, cfg) ** 3 / disc


def _klein_ctx(r1: Fraction, r2: Fraction, z: mpc, cfg: PrecisionConfig) -> mpc:
    """Klein form at (r1, r2), q-product formula.  Requires -1 < r1 < 1 and
    (r1, r2) not both integral."""
    if not (-1 < r1 < 1):
        raise ValueError("first Klein parameter must lie in (-1, 1)")
    if r1.denominator == 1 and r2.denominator == 1:
        raise ValueError("Klein parameters must not both be integers")
    q = mp.expjpi(2 * z)
    absq = abs(q)
    _check_budget(absq, 1, cfg, "klein-form")
    r1_m = mpf(r1.numerator) / r1.denominator
    r2_m = mpf(r2.numerator) / r2.denominator
    qz = mp.expjpi(2 * (r1_m * z + r2_m))
    qz_inv = 1 / qz
    prefactor = mp.expjpi(r2_m * (r1_m - 1)) * mp.expjpi(z * r1_m * (r1_m - 1))
    num = prefactor * (1 - qz)
    den = mpc(1)
    res = _resolution()
    qn = q
    abs_qn = absq
    n = 1
    # bound covers every factor from n on; exponents there are >= n - |r1|
    tail_scale = 8 * absq ** (-abs(r1_m)) / (1 - absq)
    while abs_qn * tail_scale >= res:
        num *= (1 - qn * qz) * (1 - qn * qz_inv)
        den *= (1 - qn) ** 2
        qn *= q
        abs_qn *= absq
        n += 1
        if n > cfg.max_terms:
            raise NonConvergenceError("klein-form exceeded max_terms")
    return num / den


def _klein_quotient_ctx(p: tuple, s: tuple, w: mpc, cfg: PrecisionConfig) -> mpc:
    """k_p(w) / k_s(w) with both q-products run in the fundamental domain.

    With w* = M w, the law k_r(M^-1 w*) = (c'w* + d')^-1 k_(r M^-1)(w*)
    (Kubert-Lang K2) moves each parameter pair, and the automorphy factors
    cancel in the quotient.  K3, k_(a+b) = (-1)^(b1 b2 + b1 + b2)
    e^(-pi i (b1 a2 - b2 a1)) k_a for integral b, then brings each pair into
    [0,1) x [0,1); it never becomes integral, since M is invertible over Z.
    """
    w_star, word = fundamental_domain_reduce(w)
    m_inv = word.matrix().inverse()
    half_turns = Fraction(0)  # the root of unity, as a multiple of pi
    forms = []
    for sign, (r1, r2) in ((1, p), (-1, s)):
        a1 = r1 * m_inv.a + r2 * m_inv.c
        a2 = r1 * m_inv.b + r2 * m_inv.d
        b1, b2 = math.floor(a1), math.floor(a2)
        a1, a2 = a1 - b1, a2 - b2
        half_turns += sign * (b1 * b2 + b1 + b2 - (b1 * a2 - b2 * a1))
        forms.append(_klein_ctx(a1, a2, w_star, cfg))
    half_turns %= 2
    phase = mp.expjpi(mpf(half_turns.numerator) / half_turns.denominator)
    return phase * forms[0] / forms[1]


# ----------------------------------------------------------------------
# public evaluators
# ----------------------------------------------------------------------

def eval_rr_product(tau, cfg: PrecisionConfig = DEFAULT_PRECISION) -> APComplex:
    """Level-5 continued-fraction value by the raw q-product, no argument
    reduction.  Slow (or non-convergent) near the real line."""
    with mp.workprec(cfg.working_bits):
        value = _rr_product_ctx(_as_mpc(tau), cfg)
    return APComplex.from_mpc(value, cfg.target_bits)


def eval_rr(tau, cfg: PrecisionConfig = DEFAULT_PRECISION) -> APComplex:
    """Level-5 continued-fraction value; reduces low points to the
    fundamental domain and replays the moves on the value."""
    with mp.workprec(cfg.working_bits):
        value = _rr_ctx(_as_mpc(tau), cfg)
    return APComplex.from_mpc(value, cfg.target_bits)


def eval_eta(tau, cfg: PrecisionConfig = DEFAULT_PRECISION) -> APComplex:
    """Dedekind eta, q^(1/24) prod (1 - q^n)."""
    with mp.workprec(cfg.working_bits):
        value = _eta_ctx(_as_mpc(tau), cfg)
    return APComplex.from_mpc(value, cfg.target_bits)


def eval_j(tau, cfg: PrecisionConfig = DEFAULT_PRECISION) -> APComplex:
    """Klein j-function (1728 at i, 0 at the hexagonal point)."""
    with mp.workprec(cfg.working_bits):
        value = _j_ctx(_as_mpc(tau), cfg)
    return APComplex.from_mpc(value, cfg.target_bits)


def eval_klein(r1, r2, tau, cfg: PrecisionConfig = DEFAULT_PRECISION) -> APComplex:
    """Klein form k_(r1, r2)(tau) for rational parameters, by the raw
    q-product at tau itself: no argument reduction, so slow (or
    non-convergent) near the real line.  It is the independent reference for
    the reduced klein-quotient evaluator."""
    r1 = Fraction(r1)
    r2 = Fraction(r2)
    with mp.workprec(cfg.working_bits):
        value = _klein_ctx(r1, r2, _as_mpc(tau), cfg)
    return APComplex.from_mpc(value, cfg.target_bits)


# ----------------------------------------------------------------------
# identity checks
# ----------------------------------------------------------------------

def check_icosahedral(tau, cfg: PrecisionConfig = DEFAULT_PRECISION):
    """Residual of the degree-60 relation tying the level-5 value x to j:
    (x^20 - 228 x^15 + 494 x^10 + 228 x^5 + 1)^3 + j x^5 (x^10 + 11 x^5 - 1)^5,
    normalized by the largest of the two terms.  Returns an mpf."""
    with mp.workprec(cfg.working_bits):
        z = _as_mpc(tau)
        x = _rr_ctx(z, cfg)
        jv = _j_ctx(z, cfg)
        x5 = x ** 5
        x10 = x5 * x5
        x15 = x10 * x5
        x20 = x15 * x5
        a = x20 - 228 * x15 + 494 * x10 + 228 * x5 + 1
        b = x5 * (x10 + 11 * x5 - 1) ** 5
        lhs = a ** 3 + jv * b
        scale = max(abs(a) ** 3, abs(jv * b))
        residual = abs(lhs) / scale
    return residual


def check_klein_relation(tau, cfg: PrecisionConfig = DEFAULT_PRECISION):
    """Relative difference between the level-5 value at tau and the quotient
    of Klein forms k_(1/5,0) / k_(2/5,0) taken at 5*tau.  Returns an mpf."""
    with mp.workprec(cfg.working_bits):
        z = _as_mpc(tau)
        r_value = _rr_ctx(z, cfg)
        k1 = _klein_ctx(Fraction(1, 5), Fraction(0), 5 * z, cfg)
        k2 = _klein_ctx(Fraction(2, 5), Fraction(0), 5 * z, cfg)
        residual = abs(r_value - k1 / k2) / abs(r_value)
    return residual


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ModularFunctionSpec:
    """A named function the pipeline can evaluate.

    level: the congruence level its invariance group sits inside.
    has_rational_coefficients: whether its Fourier coefficients are rational,
    which the conjugate pipeline requires.
    """

    name: str
    level: int
    has_rational_coefficients: bool
    evaluator: Callable = field(compare=False)
    t_rule: Optional[Callable] = field(default=None, compare=False)
    s_rule: Optional[Callable] = field(default=None, compare=False)
    description: str = field(default="", compare=False)

    def evaluate(self, tau, cfg: PrecisionConfig = DEFAULT_PRECISION) -> APComplex:
        return self.evaluator(tau, cfg)


def _rr_t_rule(value):
    return _zeta5() * value


def _rr_s_rule(value):
    phi = _phi()
    return (1 - phi * value) / (phi + value)


_BASE_CATALOG = (
    ModularFunctionSpec(
        name="rogers-ramanujan",
        level=5,
        has_rational_coefficients=True,
        evaluator=eval_rr,
        t_rule=_rr_t_rule,
        s_rule=_rr_s_rule,
        description="level-5 continued-fraction value r(tau)",
    ),
    ModularFunctionSpec(
        name="j",
        level=1,
        has_rational_coefficients=True,
        evaluator=eval_j,
        description="Klein j-function",
    ),
)

_KLEIN_PREFIX = "klein-quotient:"


def _parse_klein_quotient(name: str) -> ModularFunctionSpec:
    body = name[len(_KLEIN_PREFIX):]
    try:
        top, bottom = body.split("|")
        p1, p2 = (Fraction(s) for s in top.split(","))
        q1, q2 = (Fraction(s) for s in bottom.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed klein-quotient name {name!r}") from exc
    level = math.lcm(
        p1.denominator, p2.denominator, q1.denominator, q2.denominator
    )
    if level == 1:
        raise ValueError("klein-quotient parameters must not all be integers")
    for r1, r2 in ((p1, p2), (q1, q2)):
        if r1.denominator == 1 and r2.denominator == 1:
            raise ValueError("each Klein parameter pair must be non-integral")
        if not (-1 < r1 < 1):
            raise ValueError("first Klein parameter must lie in (-1, 1)")
    rational = p2 == 0 and q2 == 0 and level % 2 == 1

    def evaluator(tau, cfg: PrecisionConfig = DEFAULT_PRECISION) -> APComplex:
        with mp.workprec(cfg.working_bits):
            w = _as_mpc(tau) * level
            value = _klein_quotient_ctx((p1, p2), (q1, q2), w, cfg)
        return APComplex.from_mpc(value, cfg.target_bits)

    return ModularFunctionSpec(
        name=name,
        level=level,
        has_rational_coefficients=rational,
        evaluator=evaluator,
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
