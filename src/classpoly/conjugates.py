"""From an order and a level to the exact class polynomial.

Pipeline: enumerate reduced forms, walk the coset representatives, keep the
transformed forms whose leading coefficient is invertible mod the level
(each surviving pair represents one extended class exactly once), build per
class a matrix that twists the function, lift it to an integer matrix, and
evaluate the function at the lifted image of the form's mirrored root.  The
product of (x - value) over all classes rounds to an integer polynomial,
whose squarefree part is the minimal polynomial of the value at the order's
own generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from mpmath import mp, mpc, mpf

from .errors import (
    CrossCheckError,
    NonConvergenceError,
    PoleError,
    PowerCheckError,
    PrecisionExhaustedError,
    RoundingFailureError,
)
from .modfunc import (
    APComplex,
    DEFAULT_PRECISION,
    ModularFunctionSpec,
    PrecisionConfig,
)
from .modgroup import CosetTable, UnimodularMatrix, enumerate_cosets, lift_sl2_mod_n
from .polyalgebra import (
    IntPolynomial,
    eval_poly,
    power_check,
    round_coefficients,
    squarefree_part,
)
from .quadforms import CMOrder, ExactCMPoint, QuadraticForm, reduced_forms


@dataclass(frozen=True)
class ExtendedClassRep:
    """One extended class: reduced form index i, coset index k, and the
    transformed form itself (whose leading coefficient passed the filter)."""

    i: int
    k: int
    gamma: UnimodularMatrix
    form: QuadraticForm


@dataclass(frozen=True)
class CartanOrder:
    """Sizes of the unit-matrix group mod N attached to the order: all of it,
    its scalar +-1 part, and the quotient."""

    matrix_count: int
    torsion_count: int
    quotient: int


@dataclass(frozen=True)
class ConjugateDatum:
    """Everything recorded for one class: the matrices, the exact evaluation
    point, and the function value."""

    rep: ExtendedClassRep
    alpha: tuple  # 2x2 rows mod level, determinant = inverse of form.a
    lifted: UnimodularMatrix
    eval_point: ExactCMPoint
    value: APComplex
    identity_class: bool


@dataclass(frozen=True)
class ClassFieldJob:
    """A complete request: order, level, function, precision."""

    order: CMOrder
    level: int
    function: ModularFunctionSpec
    precision: PrecisionConfig = DEFAULT_PRECISION

    def __post_init__(self):
        if self.order.disc in (-3, -4):
            raise ValueError(
                "discriminants -3 and -4 are excluded (extra units break the "
                "one-class-per-pair representation)"
            )
        if self.level < 1:
            raise ValueError("level must be positive")
        if self.level % self.function.level:
            raise ValueError(
                f"function level {self.function.level} must divide job level "
                f"{self.level}"
            )

    @classmethod
    def create(cls, discriminant: int, level: int, function_name: str,
               target_bits: int = 256) -> "ClassFieldJob":
        from .modfunc import catalog_lookup

        return cls(
            order=CMOrder.from_discriminant(discriminant),
            level=level,
            function=catalog_lookup(function_name),
            precision=PrecisionConfig(target_bits=target_bits),
        )


def walk_grid(forms: list, table: CosetTable, level: int):
    """Every (form, coset) cell of the grid, in order: (i, k, gamma, the
    transformed form, whether its leading coefficient is invertible mod the
    level)."""
    for i, q_form in enumerate(forms):
        for k, gamma in enumerate(table.reps):
            transformed = q_form.transform(gamma)
            yield i, k, gamma, transformed, gcd(transformed.a, level) == 1


def build_extended_classes(order: CMOrder, level: int,
                           table: CosetTable | None = None) -> list:
    """The grid cells that pass the filter; these hit every extended class
    exactly once."""
    if table is None:
        table = enumerate_cosets(level)
    return [
        ExtendedClassRep(i=i, k=k, gamma=gamma, form=transformed)
        for i, k, gamma, transformed, passes
        in walk_grid(reduced_forms(order.disc), table, level)
        if passes
    ]


def cartan_order(order: CMOrder, level: int) -> CartanOrder:
    """Count matrices [[t - b s, -c s], [s, t]] with invertible determinant
    mod the level; the quotient by +-1 predicts classes per reduced form."""
    if level == 1:
        return CartanOrder(1, 1, 1)
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


def _conjugate_rows(rep: ExtendedClassRep, order: CMOrder, level: int):
    """Mod-level matrices for one class: the full twisting matrix (whose
    lower-right block carries the inverse of the leading coefficient) and its
    determinant-one companion used for lifting."""
    a_ik, b_ik = rep.form.a, rep.form.b
    if (b_ik + order.b) % 2:
        raise CrossCheckError("form and order middle coefficients differ mod 2")
    half = (b_ik + order.b) // 2
    if level == 1:
        a_inv = 0
        u = 0
    else:
        a_inv = pow(a_ik, -1, level)
        u = (-a_inv * half) % level
    ghat = rep.gamma.hat()
    top = ((ghat.a + u * ghat.c) % level, (ghat.b + u * ghat.d) % level)
    gl_rows = (top, ((a_inv * ghat.c) % level, (a_inv * ghat.d) % level))
    sl_rows = (top, (ghat.c % level, ghat.d % level))
    return gl_rows, sl_rows


def conjugate_matrix(rep: ExtendedClassRep, order: CMOrder, level: int):
    """The mod-level matrix that produces this class's conjugate value."""
    gl_rows, _ = _conjugate_rows(rep, order, level)
    return gl_rows


def _in_pm_gamma1(gamma: UnimodularMatrix, level: int) -> bool:
    (r11, r12), (r21, r22) = gamma.mod(level)
    if r21 != 0:
        return False
    one, minus_one = 1 % level, (level - 1) % level
    return (r11 == one and r22 == one) or (r11 == minus_one and r22 == minus_one)


@dataclass(frozen=True)
class _PreparedClass:
    rep: ExtendedClassRep
    alpha: tuple
    lifted: UnimodularMatrix
    eval_point: ExactCMPoint
    identity_class: bool


def _prepare_classes(order: CMOrder, level: int, table: CosetTable) -> list:
    forms = reduced_forms(order.disc)
    eval_points = [q_form.cm_point().neg_conjugate() for q_form in forms]
    principal = order.principal_form()
    prepared = []
    for rep in build_extended_classes(order, level, table):
        gl_rows, sl_rows = _conjugate_rows(rep, order, level)
        prepared.append(
            _PreparedClass(
                rep=rep,
                alpha=gl_rows,
                lifted=lift_sl2_mod_n(sl_rows, level),
                eval_point=eval_points[rep.i],
                identity_class=(forms[rep.i] == principal
                                and _in_pm_gamma1(rep.gamma, level)),
            )
        )
    identity_hits = sum(item.identity_class for item in prepared)
    if identity_hits != 1:
        raise CrossCheckError(
            f"expected exactly one identity class, found {identity_hits}"
        )
    return prepared


def _require_rational_coefficients(function: ModularFunctionSpec) -> None:
    if not function.has_rational_coefficients:
        raise ValueError(
            f"function {function.name!r} lacks rational Fourier coefficients; "
            "the conjugate construction does not apply"
        )


def _evaluate_classes(prepared: list, function: ModularFunctionSpec,
                      cfg: PrecisionConfig) -> list:
    pole_threshold = mpf(2) ** (cfg.target_bits // 2)
    data = []
    for item in prepared:
        argument = item.eval_point.mobius(item.lifted)
        value = function.evaluate(argument, cfg)
        with mp.workprec(cfg.working_bits):
            if abs(value.to_mpc()) > pole_threshold:
                raise PoleError(
                    f"value of magnitude above 2^{cfg.target_bits // 2} at "
                    f"class (i={item.rep.i}, k={item.rep.k}); possible pole"
                )
        data.append(
            ConjugateDatum(
                rep=item.rep,
                alpha=item.alpha,
                lifted=item.lifted,
                eval_point=item.eval_point,
                value=value,
                identity_class=item.identity_class,
            )
        )
    return data


def _escalate(job: ClassFieldJob, attempt):
    """Call attempt(cfg, escalations) at the job's precision, and again at
    each escalated precision after a failure that more precision can cure."""
    cfg = job.precision
    last = None
    for escalations in range(job.precision.max_escalations + 1):
        try:
            return attempt(cfg, escalations)
        except (NonConvergenceError, RoundingFailureError, PowerCheckError) as exc:
            last = exc
            cfg = cfg.escalated()
    raise PrecisionExhaustedError(
        f"no certified polynomial after {job.precision.max_escalations} "
        f"precision escalations (last failure: {last})"
    ) from last


def compute_conjugates(job: ClassFieldJob,
                       table: CosetTable | None = None) -> list:
    """Evaluate the function once per extended class.  Escalates precision on
    non-convergence, then gives up."""
    _require_rational_coefficients(job.function)
    if table is None:
        table = enumerate_cosets(job.level)
    prepared = _prepare_classes(job.order, job.level, table)
    return _escalate(
        job, lambda cfg, _: _evaluate_classes(prepared, job.function, cfg)
    )


def _identity_value(data: list) -> APComplex:
    for datum in data:
        if datum.identity_class:
            return datum.value
    raise CrossCheckError("no identity class among the conjugate data")


def assemble_poly(data: list, job: ClassFieldJob):
    """Multiply out prod (x - value); when the value at the order's generator
    is real the conjugate set is closed under complex conjugation already,
    otherwise each value is paired with its conjugate (degree doubles).

    Returns (coefficients ascending as APComplex, used_reality_shortcut).
    """
    base_value = _identity_value(data)
    bits = base_value.precision_bits
    reality_threshold = mpf(2) ** (-(bits // 2))
    is_real = base_value.is_real_within(reality_threshold)
    with mp.workprec(bits + job.precision.guard_bits):
        roots = [d.value.to_mpc() for d in data]
        if not is_real:
            roots.extend(mp.conj(r) for r in roots[:])
        coeffs = [mpc(1)]
        for root in roots:
            nxt = [mpc(0)] * (len(coeffs) + 1)
            for idx, c in enumerate(coeffs):
                nxt[idx + 1] += c
                nxt[idx] -= root * c
            coeffs = nxt
        out = [APComplex.from_mpc(c, bits) for c in coeffs]
    return out, is_real


@dataclass
class RunResult:
    """Everything the pipeline certifies for one job."""

    job: ClassFieldJob
    table: CosetTable
    reduced_form_count: int
    coset_count: int
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
    """Full pipeline with cross-checks and precision escalation."""
    _require_rational_coefficients(job.function)
    if table is None:
        table = enumerate_cosets(job.level)
    if table.level != job.level:
        raise ValueError("coset table level does not match the job")
    forms = reduced_forms(job.order.disc)
    prepared = _prepare_classes(job.order, job.level, table)
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
        base_value = _identity_value(data)
        with mp.workprec(cfg.working_bits):
            value_residual = abs(eval_poly(irreducible, base_value))
        if value_residual >= threshold:
            raise RoundingFailureError(value_residual, threshold)
        return RunResult(
            job=job,
            table=table,
            reduced_form_count=len(forms),
            coset_count=table.size(),
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

    return _escalate(job, certify)
