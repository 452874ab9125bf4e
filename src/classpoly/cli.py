"""Command-line interface.

Subcommands: compute (the full pipeline), validate (identity checks at a
point), table (class data only, no evaluation), catalog (known functions).
Exit codes: 0 success, 2 invalid input, 3 precision exhausted, 4 internal
cross-check failure or a ValueError past the inputs.  Each command builds
its inputs (job, coset table, point, precision) in one function, the only
place where a ValueError means invalid input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .conjugates import (
    ClassFieldJob,
    RunResult,
    cartan_order,
    reject_extra_units,
    run,
    walk_grid,
)
from .errors import (
    CrossCheckError,
    NonConvergenceError,
    PoleError,
    PowerCheckError,
    PrecisionExhaustedError,
    RoundingFailureError,
    nstr,
)
from .modfunc import (
    PrecisionConfig,
    catalog_entries,
    check_icosahedral,
    check_klein_relation,
)
from .modgroup import enumerate_cosets
from .quadforms import FORM_TEXT, CMOrder, reduced_forms


# ----------------------------------------------------------------------
# shared rendering helpers
# ----------------------------------------------------------------------

def _matrix_json(m):
    return [[m.a, m.b], [m.c, m.d]]


def _rows_json(rows):
    return [list(rows[0]), list(rows[1])]


def _digits(x: mpf, bits: int) -> str:
    """A value's part to the decimal digits its target bits carry."""
    return mp.nstr(x, int(bits * 0.30103) + 3)


def _input_json(job: ClassFieldJob):
    order = job.order
    return {
        "discriminant": order.disc,
        "level": job.level,
        "function": job.function.name,
        "precision_bits": job.precision.target_bits,
        "order": {
            "generator_minpoly": [order.c, order.b, 1],
            "fundamental_discriminant": order.fundamental_discriminant,
            "conductor": order.conductor,
        },
    }


def _class_data_json(result: RunResult):
    return {
        "reduced_forms": [list(f.coefficients()) for f in result.forms],
        "coset_count": result.table.size(),
        "tie_break": result.table.tie_break,
        "class_count": result.class_count,
        "unit_group": {
            "matrix_count": result.cartan.matrix_count,
            "torsion_count": result.cartan.torsion_count,
            "quotient": result.cartan.quotient,
        },
    }


def _conjugates_json(result: RunResult):
    out = []
    for d in result.data:
        pt = d.eval_point
        two_a = 2 * pt.a
        out.append(
            {
                "i": d.i,
                "k": d.k,
                "form": list(d.form.coefficients()),
                "alpha_mod_level": _rows_json(d.alpha),
                "lifted": _matrix_json(d.lifted),
                "eval_point": {
                    "rational_part": str(Fraction(-pt.b, two_a)),
                    "radical_coefficient": str(Fraction(1, two_a)),
                    "radicand": pt.discriminant,
                },
                "value": {
                    "re": _digits(d.value.real, d.precision_bits),
                    "im": _digits(d.value.imag, d.precision_bits),
                    "precision_bits": d.precision_bits,
                },
                "identity_class": d.identity_class,
            }
        )
    return out


def _polynomial_json(result: RunResult):
    return {
        "coefficients_ascending": result.polynomial.to_json_list(),
        "degree": result.polynomial.degree,
        "irreducible_coefficients_ascending": result.irreducible.to_json_list(),
        "irreducible_degree": result.irreducible.degree,
        "exponent": result.exponent,
        "pretty": str(result.irreducible),
    }


def _verification_json(result: RunResult):
    return {
        "max_rounding_residual": nstr(result.max_rounding_residual),
        "value_residual": nstr(result.value_residual),
        "reality_shortcut": result.reality_shortcut,
        "precision_bits_used": result.precision_bits_used,
        "escalations": result.escalations,
        "class_count_cross_check": "ok",
    }


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


# ----------------------------------------------------------------------
# compute
# ----------------------------------------------------------------------

def _compute_inputs(args):
    job = ClassFieldJob.create(args.disc, args.level, args.function, args.precision)
    return job, enumerate_cosets(args.level, args.tie_break)


def _cmd_compute(args, job: ClassFieldJob, table) -> int:
    result = run(job, table=table)
    if args.format == "json":
        payload = {
            "input": _input_json(job),
            "class_data": _class_data_json(result),
            "conjugates": _conjugates_json(result) if args.emit_conjugates else None,
            "polynomial": _polynomial_json(result),
            "verification": _verification_json(result),
        }
        if args.emit_table:
            payload["coset_table"] = result.table.to_json_dict()
        _emit_json(payload)
    else:
        _print_compute_text(result, args)
    return 0


def _print_compute_text(result: RunResult, args) -> None:
    job = result.job
    order = job.order
    w = sys.stdout.write
    w(f"discriminant      {order.disc}\n")
    w(f"level             {job.level}\n")
    w(f"function          {job.function.name}\n")
    w(
        f"precision bits    {result.precision_bits_used}"
        f" (escalations: {result.escalations})\n"
    )
    w(
        f"order             conductor {order.conductor}, fundamental "
        f"discriminant {order.fundamental_discriminant}\n"
    )
    w(f"reduced forms ({len(result.forms)}):\n")
    for i, f in enumerate(result.forms):
        w(f"  i={i}: {f}\n")
    w(f"coset reps        {result.table.size()} (tie-break {result.table.tie_break})\n")
    w(
        f"extended classes  {result.class_count} = {len(result.forms)}"
        f" x {result.cartan.quotient}"
        f"   (unit group {result.cartan.matrix_count}"
        f" / {result.cartan.torsion_count})\n"
    )
    w(f"reality shortcut  {'yes' if result.reality_shortcut else 'no'}\n")
    if args.emit_conjugates:
        w("conjugates:\n")
        for d in result.data:
            tag = "  identity" if d.identity_class else ""
            w(
                f"  (i={d.i}, k={d.k}) form {d.form.coefficients()} lift {d.lifted}"
                f" value {_digits(d.value.real, d.precision_bits)}"
                f" + {_digits(d.value.imag, d.precision_bits)}i{tag}\n"
            )
    if args.emit_table:
        w("coset table:\n")
        for k, g in enumerate(result.table.reps):
            w(f"  k={k}: {g}\n")
    w(f"polynomial degree {result.polynomial.degree}, exponent {result.exponent}\n")
    w(f"p(x)   = {result.polynomial}\n")
    w(f"irr(x) = {result.irreducible}\n")
    w(f"max rounding residual   {nstr(result.max_rounding_residual)}\n")
    w(f"|irr(value)|            {nstr(result.value_residual)}\n")


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------

_DIGITS = r"\d(?:_?\d)*"
_DECIMAL = rf"(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:e[+-]?{_DIGITS})?"
# complex()'s layout, i or j for the unit: a real part, an imaginary part or both, maybe in ()
_POINT = (rf"(\()?(?=[^)])(?P<re>[+-]?{_DECIMAL})?(?:(?P<sign>(?(re)[+-]|[+-]?))"
          rf"(?P<im>{_DECIMAL})?(?P<unit>[ij]))?(?(1)\))")


def _parse_point(text: str, cfg: PrecisionConfig) -> mpc:
    """The point, its decimal parts read at the working precision, so that
    neither a double's bits nor its range bounds them."""
    match = re.fullmatch(_POINT, text.strip().replace(" ", ""), re.IGNORECASE)
    if match is None:
        raise ValueError(f"cannot parse point {text!r}: write finite decimal parts, as in 0.3+1.7i")
    with mp.workprec(cfg.working_bits):
        imag = mpf(match["sign"] + (match["im"] or "1")) if match["unit"] else 0
        z = mpc(mpf(match["re"] or 0), imag)
    if z.imag <= 0:
        raise ValueError("point must lie strictly above the real axis")
    return z


def _validate_inputs(args):
    cfg = PrecisionConfig(target_bits=args.precision)
    return _parse_point(args.point, cfg), cfg


def _cmd_validate(args, point: mpc, cfg: PrecisionConfig) -> int:
    icosa = check_icosahedral(point, cfg)
    klein = check_klein_relation(point, cfg)
    threshold = mpf(2) ** (-(args.precision // 2))
    ok = icosa < threshold and klein < threshold
    if args.format == "json":
        _emit_json(
            {
                "input": {"point": args.point, "precision_bits": args.precision},
                "verification": {
                    "icosahedral_residual": nstr(icosa),
                    "klein_quotient_residual": nstr(klein),
                    "threshold": nstr(threshold),
                    "passed": ok,
                },
            }
        )
    else:
        sys.stdout.write(f"icosahedral residual     {nstr(icosa)}\n")
        sys.stdout.write(f"klein quotient residual  {nstr(klein)}\n")
        sys.stdout.write(f"threshold                {nstr(threshold)}\n")
        sys.stdout.write(f"passed                   {'yes' if ok else 'no'}\n")
    if not ok:
        raise CrossCheckError("identity residuals exceeded the threshold")
    return 0


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------

# One grid cell of the JSON document, laid out as json.dumps(indent=2) lays
# it out at its depth; the cells are spliced into the "grid" slot.
_JSON_CELL = (
    "      {\n"
    '        "i": %d,\n'
    '        "k": %d,\n'
    '        "form": [\n'
    "          %d,\n"
    "          %d,\n"
    "          %d\n"
    "        ],\n"
    '        "passes_filter": %s\n'
    "      }"
)


def _json_cell(i, k, f, p) -> str:
    return _JSON_CELL % (i, k, *f, "true" if p else "false")


def _text_cell(i, k, f, p) -> str:
    return (
        f"  (i={i}, k={k}) {FORM_TEXT % f:30s}"
        f" {'pass' if p else 'skip (leading coeff shares a factor)'}\n"
    )


def _table_inputs(args):
    order = CMOrder.from_discriminant(args.disc)
    reject_extra_units(order)
    return order, enumerate_cosets(args.level, args.tie_break)


def _cmd_table(args, order: CMOrder, table) -> int:
    forms = reduced_forms(order.disc)
    cartan = cartan_order(order, args.level)
    cell = _json_cell if args.format == "json" else _text_cell
    rows, passing = [], 0
    for i, k, _, f, p in walk_grid(forms, table, args.level):
        rows.append(cell(i, k, f, p))
        passing += p
    if len(forms) * cartan.quotient != passing:
        raise CrossCheckError(
            f"grid count {passing} disagrees with {len(forms)} x {cartan.quotient}"
        )
    w = sys.stdout.write
    if args.format == "json":
        doc = {
            "input": {"discriminant": args.disc, "level": args.level},
            "class_data": {
                "reduced_forms": [list(f.coefficients()) for f in forms],
                "coset_table": table.to_json_dict(),
                "unit_group": {
                    "matrix_count": cartan.matrix_count,
                    "torsion_count": cartan.torsion_count,
                    "quotient": cartan.quotient,
                },
                "grid": None,
                "class_count": passing,
            },
        }
        head, tail = json.dumps(doc, indent=2).split('"grid": null')
        w(head + '"grid": [\n')
        w(",\n".join(rows))
        w("\n    ]" + tail + "\n")
    else:
        w(f"discriminant {args.disc}, level {args.level}\n")
        w(f"reduced forms ({len(forms)}):\n")
        for i, f in enumerate(forms):
            w(f"  i={i}: {f}\n")
        w(f"coset reps ({table.size()}, tie-break {table.tie_break}):\n")
        for k, g in enumerate(table.reps):
            w(f"  k={k}: {g}\n")
        w(
            f"unit group {cartan.matrix_count} / {cartan.torsion_count}"
            f" = {cartan.quotient}\n"
        )
        w(f"grid ({len(rows)} pairs, {passing} pass the filter):\n")
        w("".join(rows))
    return 0


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

def _cmd_catalog(args) -> int:
    entries = catalog_entries()
    if args.format == "json":
        _emit_json(
            {
                "functions": [
                    {
                        "name": e.name,
                        "level": e.level,
                        "rational_fourier_coefficients": e.has_rational_coefficients,
                        "description": e.description,
                    }
                    for e in entries
                ],
                "families": [
                    {
                        "pattern": "klein-quotient:R1,R2|S1,S2",
                        "description": (
                            "quotient of Klein forms with rational parameters, "
                            "arguments scaled by the parameter denominator lcm"
                        ),
                    }
                ],
            }
        )
    else:
        for e in entries:
            flag = "rational" if e.has_rational_coefficients else "non-rational"
            sys.stdout.write(
                f"{e.name:20s} level {e.level}  {flag} coefficients  {e.description}\n"
            )
        sys.stdout.write(
            "klein-quotient:R1,R2|S1,S2   parametrized family "
            "(rational pairs, neither a pair of integers)\n"
        )
    return 0


# ----------------------------------------------------------------------
# parser and entry point
# ----------------------------------------------------------------------

def _add_tie_break_flag(sub) -> None:
    sub.add_argument(
        "--tie-break",
        choices=("min", "max"),
        default="min",
        help="coset representative normalization (results are identical)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classpoly",
        description=(
            "Exact minimal polynomials of modular function values at "
            "imaginary quadratic points"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compute = subparsers.add_parser(
        "compute", help="run the full pipeline for one discriminant/level/function"
    )
    compute.add_argument("--disc", type=int, required=True, help="negative discriminant")
    compute.add_argument("--level", type=int, required=True)
    compute.add_argument("--function", required=True, help="catalog name")
    compute.add_argument("--precision", type=int, default=256, help="target bits")
    compute.add_argument("--format", choices=("text", "json"), default="text")
    compute.add_argument("--emit-conjugates", action="store_true")
    compute.add_argument("--emit-table", action="store_true")
    _add_tie_break_flag(compute)
    compute.set_defaults(func=_cmd_compute, inputs=_compute_inputs)

    validate = subparsers.add_parser(
        "validate", help="check the defining identities at an arbitrary point"
    )
    validate.add_argument("--point", required=True, help='e.g. "0.3+1.7i"')
    validate.add_argument("--precision", type=int, default=128)
    validate.add_argument("--format", choices=("text", "json"), default="text")
    validate.set_defaults(func=_cmd_validate, inputs=_validate_inputs)

    table = subparsers.add_parser(
        "table", help="class data only: forms, cosets, filter grid"
    )
    table.add_argument("--disc", type=int, required=True)
    table.add_argument("--level", type=int, required=True)
    table.add_argument("--format", choices=("text", "json"), default="text")
    _add_tie_break_flag(table)
    table.set_defaults(func=_cmd_table, inputs=_table_inputs)

    catalog = subparsers.add_parser("catalog", help="list evaluable functions")
    catalog.add_argument("--format", choices=("text", "json"), default="text")
    catalog.set_defaults(func=_cmd_catalog, inputs=lambda args: ())

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        inputs = args.inputs(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        return args.func(args, *inputs)
    except (PrecisionExhaustedError, NonConvergenceError, RoundingFailureError) as exc:
        sys.stderr.write(f"precision exhausted: {exc}\n")
        return 3
    except (CrossCheckError, PowerCheckError, PoleError) as exc:
        sys.stderr.write(f"internal cross-check failed: {exc}\n")
        return 4
    except ValueError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
