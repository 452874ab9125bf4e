"""From an order and a level to the exact class polynomial.

Pipeline: enumerate reduced forms, walk the coset representatives, keep the
transformed forms whose leading coefficient is invertible mod the level
(each surviving pair represents one extended class exactly once), build per
class the integer matrix T^u * hat(gamma) that twists the function, and
evaluate the function at its image of the form's mirrored root.  The
product of (x - value) over all classes rounds to an integer polynomial,
whose squarefree part is the minimal polynomial of the value at the order's
own generator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd

from mpmath import mp, mpc, mpf
from mpmath.libmp import to_fixed

from .errors import (
    CrossCheckError,
    PoleError,
    PowerCheckError,
    PrecisionExhaustedError,
    RoundingFailureError,
)
from .modfunc import (
    DEFAULT_PRECISION,
    GUARD_BITS,
    ModularFunctionSpec,
    PrecisionConfig,
    catalog_lookup,
)
from .modgroup import CosetTable, UnimodularMatrix, enumerate_cosets, translation
from .polyalgebra import (
    IntPolynomial,
    eval_poly,
    power_check,
    round_coefficients,
    squarefree_part,
)
from .quadforms import CMOrder, QuadraticForm, reduced_forms


@dataclass(frozen=True)
class CartanOrder:
    """Sizes of the unit-matrix group mod N attached to the order: all of it,
    its scalar +-1 part, and the quotient."""

    matrix_count: int
    torsion_count: int
    quotient: int


@dataclass(frozen=True)
class ConjugateDatum:
    """One extended class: reduced form i at coset k, with the coset rep
    gamma and the transformed form (its leading coefficient passed the
    filter); the exact twist lifted = T^u * hat(gamma) in SL2(Z) and alpha,
    lifted mod the level with its bottom row times the inverse of form.a;
    the base point, the mirrored reduced form (a, -b, c), whose root is
    -conj of the reduced form's root; and, once evaluated, the function
    value at the root of eval_point.transform(lifted.inverse()), the image
    of that point under lifted, with the target bits it was computed for."""

    i: int
    k: int
    gamma: UnimodularMatrix
    form: QuadraticForm
    alpha: tuple  # 2x2 rows mod level, determinant = inverse of form.a
    lifted: UnimodularMatrix
    eval_point: QuadraticForm
    identity_class: bool
    value: mpc | None = None  # at the working precision of precision_bits
    precision_bits: int | None = None


def reject_extra_units(order: CMOrder) -> None:
    """Raise ValueError for discriminants -3 and -4, whose extra units break
    the one-class-per-(form, coset) representation of the grid."""
    if order.disc in (-3, -4):
        raise ValueError(
            "discriminants -3 and -4 are excluded (extra units break the "
            "one-class-per-pair representation)"
        )


@dataclass(frozen=True)
class ClassFieldJob:
    """A complete request: order, level, function, precision."""

    order: CMOrder
    level: int
    function: ModularFunctionSpec
    precision: PrecisionConfig = DEFAULT_PRECISION

    def __post_init__(self):
        reject_extra_units(self.order)
        if self.level < 1:
            raise ValueError("level must be positive")
        if self.level % self.function.level:
            raise ValueError(
                f"function level {self.function.level} must divide job level "
                f"{self.level}"
            )
        if not self.function.has_rational_coefficients:
            raise ValueError(
                f"function {self.function.name!r} lacks rational Fourier "
                "coefficients; the conjugate construction does not apply"
            )

    @classmethod
    def create(cls, discriminant: int, level: int, function_name: str,
               target_bits: int = 256) -> "ClassFieldJob":
        return cls(
            order=CMOrder.from_discriminant(discriminant),
            level=level,
            function=catalog_lookup(function_name),
            precision=PrecisionConfig(target_bits=target_bits),
        )


def walk_grid(forms: list, table: CosetTable, level: int):
    """Every (form, coset) cell of the grid, in order: (i, k, gamma, the
    coefficients (a', b', c') of the form transformed by gamma, whether a' is
    invertible mod the level).  The nine products of each rep are taken once,
    so a cell is three dot products with (a, b, c).  Cells are not validated:
    each form and each rep was validated once, and a determinant-1
    substitution keeps the discriminant and primitivity."""
    weights = [(g, g.a * g.a, g.a * g.c, g.c * g.c,
                2 * g.a * g.b, g.a * g.d + g.b * g.c, 2 * g.c * g.d,
                g.b * g.b, g.b * g.d, g.d * g.d) for g in table.reps]
    for i, form in enumerate(forms):
        a, b, c = form.a, form.b, form.c
        for k, (gamma, aa, ab, ac, ba, bb, bc, ca, cb, cc) in enumerate(weights):
            a1 = a * aa + b * ab + c * ac
            b1 = a * ba + b * bb + c * bc
            c1 = a * ca + b * cb + c * cc
            yield i, k, gamma, (a1, b1, c1), gcd(a1, level) == 1


def _in_pm_gamma1(gamma: UnimodularMatrix, level: int) -> bool:
    (r11, r12), (r21, r22) = gamma.mod(level)
    if r21 != 0:
        return False
    one, minus_one = 1 % level, (level - 1) % level
    return (r11 == one and r22 == one) or (r11 == minus_one and r22 == minus_one)


def build_extended_classes(order: CMOrder, level: int, table: CosetTable | None = None,
                           forms: list | None = None) -> list:
    """One unevaluated ConjugateDatum per grid cell that passes the filter;
    these hit every extended class exactly once.  The twist is built over Z
    with u = -a^-1 (b + b0)/2 mod the level, (a, b) from the cell's form and
    b0 = order.b.  Exactly one class, the principal form at a coset of
    +-Gamma_1(level), is the identity class."""
    if table is None:
        table = enumerate_cosets(level)
    if forms is None:
        forms = reduced_forms(order.disc)
    mirrored = [QuadraticForm(f.a, -f.b, f.c) for f in forms]
    principal = order.principal_form()
    data = []
    for i, k, gamma, (a, b, c), passes in walk_grid(forms, table, level):
        if not passes:
            continue
        if (b + order.b) % 2:
            raise CrossCheckError("form and order middle coefficients differ mod 2")
        a_inv = pow(a, -1, level)
        lifted = translation((-a_inv * ((b + order.b) // 2)) % level) @ gamma.hat()
        top, bottom = lifted.mod(level)
        data.append(ConjugateDatum(
            i=i,
            k=k,
            gamma=gamma,
            form=QuadraticForm(a, b, c),
            alpha=(top, tuple(a_inv * x % level for x in bottom)),
            lifted=lifted,
            eval_point=mirrored[i],
            identity_class=forms[i] == principal and _in_pm_gamma1(gamma, level),
        ))
    identity_hits = sum(d.identity_class for d in data)
    if identity_hits != 1:
        raise CrossCheckError(
            f"expected exactly one identity class, found {identity_hits}"
        )
    return data


def cartan_order(order: CMOrder, level: int) -> CartanOrder:
    """Count matrices [[t - b s, -c s], [s, t]] with invertible determinant
    mod the level; the quotient by +-1 predicts classes per reduced form."""
    count = 0
    for s in range(level):
        for t in range(level):
            det = (t * t - order.b * s * t + order.c * s * s) % level
            if gcd(det, level) == 1:
                count += 1
    torsion = 1 if level <= 2 else 2
    if count % torsion:
        raise CrossCheckError("unit count not divisible by its torsion")
    return CartanOrder(count, torsion, count // torsion)


def _prepare(job: ClassFieldJob, table: CosetTable | None):
    """The class data shared by run() and compute_conjugates(): the coset
    table (built when None), the reduced forms and the unevaluated classes."""
    if table is None:
        table = enumerate_cosets(job.level)
    if table.level != job.level:
        raise ValueError("coset table level does not match the job")
    forms = reduced_forms(job.order.disc)
    return table, forms, build_extended_classes(job.order, job.level, table, forms)


def _evaluate_classes(prepared: list, function: ModularFunctionSpec,
                      cfg: PrecisionConfig) -> list:
    data, memo = [], {}  # each series once per reduced point in this attempt
    for item in prepared:
        argument = item.eval_point.transform(item.lifted.inverse())
        value = function.evaluate(argument, cfg, memo)
        if mp.mag(value) > cfg.target_bits // 2:  # an upper bound: |value| <= 2^mag
            with mp.workprec(cfg.working_bits):
                if abs(value) > mpf(2) ** (cfg.target_bits // 2):
                    raise PoleError(f"value of magnitude above 2^{cfg.target_bits // 2} at "
                                    f"class (i={item.i}, k={item.k}); possible pole")
        data.append(replace(item, value=value, precision_bits=cfg.target_bits))
    return data


def compute_conjugates(job: ClassFieldJob,
                       table: CosetTable | None = None) -> list:
    """Evaluate the function at every extended class, at the job's precision,
    each series once per reduced point.  A series refused by its evaluator
    for cancellation raises NonConvergenceError, with no retry."""
    _, _, prepared = _prepare(job, table)
    return _evaluate_classes(prepared, job.function, job.precision)


def _identity_value(data: list) -> ConjugateDatum:
    for datum in data:
        if datum.identity_class:
            return datum
    raise CrossCheckError("no identity class among the conjugate data")


def assemble_poly(data: list, job: ClassFieldJob):
    """Multiply out prod (x - value); when the value at the order's generator
    is real the conjugate set is closed under complex conjugation already,
    otherwise each value is paired with its conjugate (degree doubles).

    The schoolbook runs on Gaussian integers at scale 2^shift, shift = bits
    + GUARD_BITS, each product shifted back and rounded to nearest.  Returns
    ((re, im, shift), used_reality_shortcut), with re and im the scaled
    integer parts of the coefficients, ascending.
    """
    base = _identity_value(data)
    bits = base.precision_bits
    is_real = abs(base.value.imag) < mpf(2) ** (-(bits // 2))
    shift = bits + GUARD_BITS
    half = 1 << (shift - 1)
    roots = [(to_fixed(d.value.real._mpf_, shift), to_fixed(d.value.imag._mpf_, shift))
             for d in data]
    if not is_real:
        roots += [(a, -b) for a, b in roots]
    re, im = [1 << shift], [0]
    for a, b in roots:  # times (x - root), in place from the constant term up
        below_re = below_im = 0
        for idx, (cr, ci) in enumerate(zip(re, im)):
            re[idx] = below_re - ((a * cr - b * ci + half) >> shift)
            im[idx] = below_im - ((a * ci + b * cr + half) >> shift)
            below_re, below_im = cr, ci
        re.append(below_re)
        im.append(below_im)
    return (re, im, shift), is_real


@dataclass
class RunResult:
    """Everything the pipeline certifies for one job."""

    job: ClassFieldJob
    table: CosetTable
    forms: list  # the reduced forms, row i of the grid
    class_count: int
    cartan: CartanOrder
    data: list
    polynomial: IntPolynomial
    irreducible: IntPolynomial
    exponent: int
    max_rounding_residual: mpf
    value_residual: mpf
    reality_shortcut: bool
    precision_bits_used: int
    escalations: int


def run(job: ClassFieldJob, table: CosetTable | None = None) -> RunResult:
    """Full pipeline with cross-checks, escalating the precision after a
    rounding, value or power certificate fails."""
    table, forms, prepared = _prepare(job, table)
    cartan = cartan_order(job.order, job.level)
    expected = len(forms) * cartan.quotient
    if len(prepared) != expected:
        raise CrossCheckError(
            f"class count {len(prepared)} disagrees with form count x unit "
            f"quotient = {expected}"
        )

    def certify(cfg: PrecisionConfig, escalations: int) -> RunResult:
        data = _evaluate_classes(prepared, job.function, cfg)
        coeffs, shortcut = assemble_poly(data, job)
        threshold = mpf(2) ** (-(cfg.target_bits // 4))
        polynomial, residual = round_coefficients(coeffs, fail_above=threshold)
        irreducible = squarefree_part(polynomial)
        exponent = power_check(polynomial, irreducible)
        base_value = _identity_value(data).value
        with mp.workprec(cfg.working_bits):
            value_residual = abs(eval_poly(irreducible, base_value))
        if value_residual >= threshold:
            raise RoundingFailureError(value_residual, threshold, kind="value")
        return RunResult(
            job=job,
            table=table,
            forms=forms,
            class_count=len(prepared),
            cartan=cartan,
            data=data,
            polynomial=polynomial,
            irreducible=irreducible,
            exponent=exponent,
            max_rounding_residual=residual,
            value_residual=value_residual,
            reality_shortcut=shortcut,
            precision_bits_used=cfg.target_bits,
            escalations=escalations,
        )

    cfg, last = job.precision, None
    for escalations in range(cfg.max_escalations + 1):
        try:
            return certify(cfg, escalations)
        except (RoundingFailureError, PowerCheckError) as exc:
            last, cfg = exc, cfg.escalated()
    raise PrecisionExhaustedError(
        f"no certified polynomial after {job.precision.max_escalations} "
        f"precision escalations (last failure: {last})"
    ) from last
