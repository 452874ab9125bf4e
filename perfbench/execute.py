"""Running one benchmark job, untraced or traced.

Untraced, a job calls the public entry point a user calls:
`conjugates.run` for a compute job, `cli.main` for a table job.  Traced, it
replays what that entry point does from outside the package, through the
public function of each module, and times every call.  The replay of
`run()` keeps its escalation loop: the same `PrecisionConfig.escalated()`
steps, the same `2^-(bits//4)` thresholds and the same failure handling, so
it must reach the same polynomial, precision and escalation count.  The
caller compares the two and refuses per-layer numbers that describe a
different program.
"""

from __future__ import annotations

import contextlib
import io
import signal
import time
from collections import defaultdict
from dataclasses import dataclass, replace

from mpmath import mp, mpf

from classpoly import cli
from classpoly.conjugates import (
    ClassFieldJob,
    assemble_poly,
    build_extended_classes,
    cartan_order,
    compute_conjugates,
    run,
)
from classpoly.errors import (
    CrossCheckError,
    NonConvergenceError,
    PoleError,
    PowerCheckError,
    PrecisionExhaustedError,
    RoundingFailureError,
)
from classpoly.modgroup import enumerate_cosets
from classpoly.polyalgebra import (
    eval_poly,
    power_check,
    round_coefficients,
    squarefree_part,
)
from classpoly.quadforms import CMOrder, reduced_forms

from workloads import ComputeJob, digest_ints, digest_text

CLASS_DATA_LAYERS = (
    "quadforms.reduced_forms",
    "modgroup.enumerate_cosets",
    "conjugates.build_extended_classes",
    "conjugates.cartan_order",
)
FAILURE_KINDS = ("rounding", "power", "value", "nonconvergence", "pole")


class Tracer:
    """Per-layer totals of one traced pass: seconds and calls per span
    name, counters, and the seconds covered by top-level spans."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.covered = 0.0
        self._depth = 0

    def call(self, name, fn, *args, **kwargs):
        self._depth += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._depth -= 1
            self.seconds[name] += elapsed
            self.calls[name] += 1
            if not self._depth:
                self.covered += elapsed

    def wrap(self, name, fn):
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)


@dataclass
class Outcome:
    """How one job ended.  `status` is "ok", the class name of the exception
    it raised, "exit N" for a non-zero CLI exit, or "timeout"."""

    status: str
    seconds: float
    result: object = None  # RunResult or _Replayed for compute, text for table
    detail: str = ""
    escalations: int = 0
    passed: bool = False  # set once the output has been checked

    def key(self) -> tuple:
        """What the untraced and the traced run of a job must agree on."""
        if self.status != "ok":
            return (self.status,)
        if isinstance(self.result, str):
            return ("ok", digest_text(self.result))
        r = self.result
        return ("ok", digest_ints(r.polynomial.coeffs), digest_ints(r.irreducible.coeffs),
                r.precision_bits_used, r.escalations)


class JobTimeout(BaseException):
    """Raised by the interval timer when a job passes its cap.  It derives
    from BaseException so that no `except Exception` inside the program under
    test can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout


def execute(job, cap_s: float, tracer: Tracer | None = None) -> Outcome:
    """Run one job under a wall-clock cap; never raises for a job failure."""
    if isinstance(job, ComputeJob):
        body = _run if tracer is None else _replay_run
    else:
        body = _table if tracer is None else _replay_table
    args = (job,) if tracer is None else (job, tracer)
    if cap_s <= 0:
        return Outcome("timeout", 0.0, detail="run deadline reached before the job")
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            status, result = body(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return Outcome(status, time.perf_counter() - start, result,
                       escalations=getattr(result, "escalations", 0))
    except JobTimeout:
        return Outcome("timeout", time.perf_counter() - start, detail=f"cap {cap_s:.0f} s")
    except Exception as exc:  # a failing job is a measurement, not a crash
        return Outcome(type(exc).__name__, time.perf_counter() - start, detail=str(exc)[:200])
    finally:
        signal.signal(signal.SIGALRM, previous)


def _class_field_job(job: ComputeJob) -> ClassFieldJob:
    return ClassFieldJob.create(job.disc, job.level, job.function, job.bits)


def _run(job: ComputeJob):
    return "ok", run(_class_field_job(job))


def _table(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(job.argv())
    return ("ok" if code == 0 else f"exit {code}"), out.getvalue()


def _class_data(tr: Tracer, order: CMOrder, level: int):
    table = tr.call("modgroup.enumerate_cosets", enumerate_cosets, level)
    forms = tr.call("quadforms.reduced_forms", reduced_forms, order.disc)
    classes = tr.call("conjugates.build_extended_classes",
                      build_extended_classes, order, level, table)
    cartan = tr.call("conjugates.cartan_order", cartan_order, order, level)
    return table, forms, classes, cartan


def _replay_table(job, tr: Tracer):
    _class_data(tr, CMOrder.from_discriminant(job.disc), job.level)
    return tr.call("cli.main", _table, job)


@dataclass
class _Replayed:
    polynomial: object
    irreducible: object
    precision_bits_used: int
    escalations: int


def _replay_run(job: ComputeJob, tr: Tracer):
    cjob = _class_field_job(job)
    table, forms, classes, cartan = _class_data(tr, cjob.order, cjob.level)
    if len(classes) != len(forms) * cartan.quotient:
        raise CrossCheckError("class count disagrees with form count x unit quotient")
    function = replace(cjob.function,
                       evaluator=tr.wrap("modfunc.evaluate", cjob.function.evaluator))
    cfg = cjob.precision
    try:
        for attempt in range(cjob.precision.max_escalations + 1):
            tr.counts["conjugates.attempts"] += 1
            values_before = tr.calls["modfunc.evaluate"]
            outcome = _attempt(cjob, replace(cjob, function=function), cfg, table, tr)
            if isinstance(outcome, str):
                tr.counts["conjugates.failed_attempts." + outcome] += 1
                cfg = cfg.escalated()
                continue
            tr.counts["modfunc.useful_values"] += tr.calls["modfunc.evaluate"] - values_before
            polynomial, irreducible = outcome
            bits = max(abs(c).bit_length() for c in polynomial.coeffs)
            tr.counts["polyalgebra.coeff_bits_max"] = max(
                tr.counts["polyalgebra.coeff_bits_max"], bits)
            return "ok", _Replayed(polynomial, irreducible, cfg.target_bits, attempt)
        raise PrecisionExhaustedError("no certified polynomial after the escalations")
    finally:
        tr.counts["conjugates.bits_final"] += cfg.target_bits


def _attempt(cjob: ClassFieldJob, traced_job: ClassFieldJob, cfg, table, tr: Tracer):
    """One precision attempt of `run()`: the certified (polynomial,
    irreducible) pair, or the name of the certificate that failed."""
    one_shot = replace(traced_job, precision=replace(cfg, max_escalations=0))
    try:
        data = tr.call("conjugates.compute_conjugates", compute_conjugates, one_shot, table)
    except PrecisionExhaustedError as exc:
        if not isinstance(exc.__cause__, NonConvergenceError):
            raise
        return "nonconvergence"
    except PoleError:
        tr.counts["conjugates.failed_attempts.pole"] += 1
        raise
    coeffs, _ = tr.call("conjugates.assemble_poly", assemble_poly, data, cjob)
    threshold = mpf(2) ** (-(cfg.target_bits // 4))
    try:
        polynomial, _ = tr.call("polyalgebra.round_coefficients",
                                round_coefficients, coeffs, fail_above=threshold)
    except RoundingFailureError:
        return "rounding"
    irreducible = tr.call("polyalgebra.squarefree_part", squarefree_part, polynomial)
    try:
        tr.call("polyalgebra.power_check", power_check, polynomial, irreducible)
    except PowerCheckError:
        return "power"
    base_value = next(d.value for d in data if d.identity_class)
    with mp.workprec(cfg.working_bits):
        residual = abs(tr.call("polyalgebra.eval_poly", eval_poly, irreducible, base_value))
    if residual >= threshold:
        return "value"
    return polynomial, irreducible
