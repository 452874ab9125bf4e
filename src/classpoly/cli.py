"""Command-line interface.

Subcommands: compute (the full pipeline), validate (identity checks at a
point), table (class data only, no evaluation), catalog (known functions).
Exit codes: 0 success, 2 invalid input, 3 precision exhausted, 4 internal
cross-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from mpmath import mp, mpc, mpf

from .conjugates import (
    ClassFieldJob,
    RunResult,
    cartan_order,
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
)
from .modfunc import (
    PrecisionConfig,
    catalog_entries,
    catalog_lookup,
    check_icosahedral,
    check_klein_relation,
)
from .modgroup import enumerate_cosets
from .quadforms import CMOrder, reduced_forms


# ----------------------------------------------------------------------
# shared rendering helpers
# ----------------------------------------------------------------------

def _nstr(x, digits: int = 12) -> str:
    return mp.nstr(x, digits)


def _matrix_json(m):
    return [[m.a, m.b], [m.c, m.d]]


def _rows_json(rows):
    return [list(rows[0]), list(rows[1])]


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
    forms = reduced_forms(result.job.order.disc)
    return {
        "reduced_forms": [list(f.coefficients()) for f in forms],
        "coset_count": result.coset_count,
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
        out.append(
            {
                "i": d.rep.i,
                "k": d.rep.k,
                "form": list(d.rep.form.coefficients()),
                "alpha_mod_level": _rows_json(d.alpha),
                "lifted": _matrix_json(d.lifted),
                "eval_point": {
                    "rational_part": str(pt.rational_part),
                    "radical_coefficient": str(pt.radical_coefficient),
                    "radicand": pt.radicand,
                },
                "value": {
                    "re": d.value.re_str(),
                    "im": d.value.im_str(),
                    "precision_bits": d.value.precision_bits,
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
        "max_rounding_residual": _nstr(result.max_rounding_residual),
        "value_residual": _nstr(result.value_residual),
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

def _cmd_compute(args) -> int:
    job = ClassFieldJob(
        order=CMOrder.from_discriminant(args.disc),
        level=args.level,
        function=catalog_lookup(args.function),
        precision=PrecisionConfig(target_bits=args.precision),
    )
    result = run(job, table=enumerate_cosets(args.level, args.tie_break))
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
    forms = reduced_forms(order.disc)
    w(f"reduced forms ({len(forms)}):\n")
    for i, f in enumerate(forms):
        w(f"  i={i}: {f}\n")
    w(f"coset reps        {result.coset_count} (tie-break {result.table.tie_break})\n")
    w(
        f"extended classes  {result.class_count} = {result.reduced_form_count}"
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
                f"  (i={d.rep.i}, k={d.rep.k}) form {d.rep.form.coefficients()}"
                f" lift {d.lifted} value {d.value}{tag}\n"
            )
    if args.emit_table:
        w("coset table:\n")
        for k, g in enumerate(result.table.reps):
            w(f"  k={k}: {g}\n")
    w(f"polynomial degree {result.polynomial.degree}, exponent {result.exponent}\n")
    w(f"p(x)   = {result.polynomial}\n")
    w(f"irr(x) = {result.irreducible}\n")
    w(f"max rounding residual   {_nstr(result.max_rounding_residual)}\n")
    w(f"|irr(value)|            {_nstr(result.value_residual)}\n")


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------

def _parse_point(text: str) -> mpc:
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        z = complex(cleaned)
    except ValueError as exc:
        raise ValueError(f"cannot parse point {text!r}") from exc
    if z.imag <= 0:
        raise ValueError("point must lie strictly above the real axis")
    return mpc(z)


def _cmd_validate(args) -> int:
    point = _parse_point(args.point)
    cfg = PrecisionConfig(target_bits=args.precision)
    icosa = check_icosahedral(point, cfg)
    klein = check_klein_relation(point, cfg)
    threshold = mpf(2) ** (-(args.precision // 2))
    ok = icosa < threshold and klein < threshold
    if args.format == "json":
        _emit_json(
            {
                "input": {"point": args.point, "precision_bits": args.precision},
                "verification": {
                    "icosahedral_residual": _nstr(icosa),
                    "klein_quotient_residual": _nstr(klein),
                    "threshold": _nstr(threshold),
                    "passed": ok,
                },
            }
        )
    else:
        sys.stdout.write(f"icosahedral residual     {_nstr(icosa)}\n")
        sys.stdout.write(f"klein quotient residual  {_nstr(klein)}\n")
        sys.stdout.write(f"threshold                {_nstr(threshold)}\n")
        sys.stdout.write(f"passed                   {'yes' if ok else 'no'}\n")
    if not ok:
        raise CrossCheckError("identity residuals exceeded the threshold")
    return 0


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------

def _cmd_table(args) -> int:
    order = CMOrder.from_discriminant(args.disc)
    if args.disc in (-3, -4):
        raise ValueError("discriminants -3 and -4 are excluded")
    table = enumerate_cosets(args.level, args.tie_break)
    forms = reduced_forms(order.disc)
    cartan = cartan_order(order, args.level)
    grid = list(walk_grid(forms, table, args.level))
    passing = sum(p for *_, p in grid)
    if len(forms) * cartan.quotient != passing:
        raise CrossCheckError(
            f"grid count {passing} disagrees with {len(forms)} x {cartan.quotient}"
        )
    if args.format == "json":
        _emit_json(
            {
                "input": {"discriminant": args.disc, "level": args.level},
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
                        for (i, k, _, f, p) in grid
                    ],
                    "class_count": passing,
                },
            }
        )
    else:
        w = sys.stdout.write
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
        w(f"grid ({len(grid)} pairs, {passing} pass the filter):\n")
        for (i, k, _, f, p) in grid:
            w(
                f"  (i={i}, k={k}) {str(f):30s}"
                f" {'pass' if p else 'skip (leading coeff shares a factor)'}\n"
            )
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
            "(rational parameters, first in (-1,1))\n"
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
    compute.set_defaults(func=_cmd_compute)

    validate = subparsers.add_parser(
        "validate", help="check the defining identities at an arbitrary point"
    )
    validate.add_argument("--point", required=True, help='e.g. "0.3+1.7i"')
    validate.add_argument("--precision", type=int, default=128)
    validate.add_argument("--format", choices=("text", "json"), default="text")
    validate.set_defaults(func=_cmd_validate)

    table = subparsers.add_parser(
        "table", help="class data only: forms, cosets, filter grid"
    )
    table.add_argument("--disc", type=int, required=True)
    table.add_argument("--level", type=int, required=True)
    table.add_argument("--format", choices=("text", "json"), default="text")
    _add_tie_break_flag(table)
    table.set_defaults(func=_cmd_table)

    catalog = subparsers.add_parser("catalog", help="list evaluable functions")
    catalog.add_argument("--format", choices=("text", "json"), default="text")
    catalog.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (PrecisionExhaustedError, NonConvergenceError, RoundingFailureError) as exc:
        sys.stderr.write(f"precision exhausted: {exc}\n")
        return 3
    except (CrossCheckError, PowerCheckError, PoleError) as exc:
        sys.stderr.write(f"internal cross-check failed: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
