"""Command-line front end: construct, classify, exp, verify, table.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage/parse error, 3 invalid Lie algebra (Jacobi failure).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .expengine import closed_form, exp_result_to_json
from .levicivita import NotALieAlgebraError, classify_manifold
from .lie import (
    class_algebra,
    constants_from_json,
    constants_to_json,
    jacobi_defect,
)
from .mat3 import expm_oracle, max_abs, trace, trace_sq
from .structure import (
    CLASS_IDS,
    TWO_PARAMETER_CLASSES,
    ClassParams,
    report_to_json,
)

# Default verification grids: parameters for the families, frame coordinates
# for the exponentials, and a denser signed grid for the classification
# round trip.
PARAM_GRID = (-2.0, -1.0, 0.5, 1.0, 2.0)
COORD_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)
ROUNDTRIP_GRID = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)

SMALL_PARAM_GRID = (-1.0, 1.0)
SMALL_COORD_GRID = (-1.0, 0.0, 1.0)


# --- verification grids -----------------------------------------------------


def run_exp_grid(param_grid=PARAM_GRID, coord_grid=COORD_GRID) -> dict[str, float]:
    """Closed form vs oracle over classes x (alpha, beta) x coordinates.

    Returns the max residual per class.  beta sweeps the grid for every
    class; the one-parameter families simply ignore it.
    """
    worst = {}
    for cid in CLASS_IDS:
        m = 0.0
        for alpha in param_grid:
            for beta in param_grid:
                p = ClassParams(cid, alpha, beta)
                for a in coord_grid:
                    for b in coord_grid:
                        for co in coord_grid:
                            res = closed_form(p, a, b, co)
                            diff = max_abs(res.expA - expm_oracle(res.A, 1e-15))
                            if diff > m:
                                m = diff
        worst[cid] = m
    return worst


def run_roundtrip_grid(grid=ROUNDTRIP_GRID) -> dict[str, float]:
    """Algebra -> connection -> tensor -> class round trip per class.

    Returned value is the max over the grid of parameter recovery error,
    pattern residual, and verdict mismatch (inf when the wrong class comes
    back).
    """
    worst = {}
    for cid in CLASS_IDS:
        betas = grid if cid in TWO_PARAMETER_CLASSES else (0.0,)
        m = 0.0
        for alpha in grid:
            for beta in betas:
                p = ClassParams(cid, alpha, beta)
                report = classify_manifold(class_algebra(p))
                if report.verdict != [cid]:
                    m = float("inf")
                    continue
                err = max(
                    abs(report.alpha - alpha),
                    abs(report.beta - beta),
                    report.residual,
                )
                if err > m:
                    m = err
        worst[cid] = m
    return worst


def table_rows(alpha: float, beta: float, a: float, b: float, c: float) -> list[dict]:
    """Numeric instantiation of the per-class exponential data."""
    rows = []
    for cid in CLASS_IDS:
        p = ClassParams(cid, alpha, beta)
        res = closed_form(p, a, b, c)
        rows.append(
            {
                "class": cid,
                "A": res.A.tolist(),
                "trace": trace(res.A),
                "trace_sq": trace_sq(res.A),
                "t": res.t,
                "u": res.u,
                "branch": res.branch,
            }
        )
    return rows


# --- output helpers ---------------------------------------------------------


def render_json(value, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits for reproducibility."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}'
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return "[" + ", ".join(render_json(v) for v in value) + "]"
        items = [f"{pad}  {render_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value) + 0.0, ".17g")
    if value is None:
        return "null"
    return json.dumps(value)


def format_matrix(m, indent: str = "  ") -> str:
    cells = [[format(float(v) + 0.0, ".10g") for v in row] for row in np.asarray(m)]
    width = max(len(s) for row in cells for s in row)
    return "\n".join(
        indent + "[ " + "  ".join(s.rjust(width) for s in row) + " ]" for row in cells
    )


def _format_brackets(c) -> list[str]:
    names = ("E0", "E1", "E2")
    lines = []
    for i in range(3):
        for j in range(i + 1, 3):
            terms = [
                f"{c[i, j, k]:+g} {names[k]}" for k in range(3) if c[i, j, k] != 0.0
            ]
            rhs = " ".join(terms) if terms else "0"
            lines.append(f"[{names[i]},{names[j]}] = {rhs}")
    return lines


# --- subcommands ------------------------------------------------------------


def cmd_construct(args: argparse.Namespace) -> int:
    p = ClassParams(args.class_id, args.alpha, args.beta)
    c = class_algebra(p)
    defect = jacobi_defect(c)
    if args.format == "json":
        payload = constants_to_json(c)
        payload["jacobi_defect"] = defect
        print(render_json(payload))
    else:
        print(f"class {p.class_id}  alpha={p.alpha:g}  beta={p.beta:g}")
        for line in _format_brackets(c):
            print(line)
        print(f"jacobi defect: {defect:g}")
    return 0


def _read_input(path: str) -> dict:
    text = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("input JSON must be an object")
    return obj


def cmd_classify(args: argparse.Namespace) -> int:
    c = constants_from_json(_read_input(args.input))
    report = classify_manifold(c, args.tol)
    if args.format == "json":
        print(render_json(report_to_json(report)))
    else:
        print("verdict: " + " + ".join(report.verdict))
        print(f"alpha: {report.alpha:.12g}  beta: {report.beta:.12g}")
        print(f"pattern residual: {report.residual:.3e}")
        lee = report.lee
        print(
            "lee forms: theta=({:.6g}, {:.6g}, {:.6g})  theta*=({:.6g}, {:.6g}, {:.6g})"
            "  omega=({:.6g}, {:.6g}, {:.6g})".format(*lee.theta, *lee.theta_star, *lee.omega)
        )
        print("para-Sasakian: " + ("yes" if report.para_sasakian else "no"))
    return 0


def cmd_exp(args: argparse.Namespace) -> int:
    p = ClassParams(args.class_id, args.alpha, args.beta)
    a, b, c = args.coords
    res = closed_form(p, a, b, c)
    residual = max_abs(res.expA - expm_oracle(res.A, 1e-15)) if args.oracle else None
    if args.format == "json":
        payload = exp_result_to_json(res)
        if args.oracle:
            payload["oracle_residual"] = residual
        print(render_json(payload))
    else:
        print(
            f"class {p.class_id}  alpha={p.alpha:g} beta={p.beta:g}"
            f"  coords a={a:g} b={b:g} c={c:g}"
        )
        print(f"branch: {res.branch}")
        print(f"t = {res.t:.17g}")
        print(f"u = {res.u:.17g}")
        print("A =")
        print(format_matrix(res.A))
        print("exp(A) =")
        print(format_matrix(res.expA))
        print(f"det(exp(A)) = {np.linalg.det(res.expA):.12g}")
        if args.oracle:
            print(f"oracle residual = {residual:.3e}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.grid == "small":
        params, coords, rt = SMALL_PARAM_GRID, SMALL_COORD_GRID, SMALL_PARAM_GRID
    else:
        params, coords, rt = PARAM_GRID, COORD_GRID, ROUNDTRIP_GRID
    exp_res = run_exp_grid(params, coords)
    rt_res = run_roundtrip_grid(rt)
    ok = True
    print("closed-form exponential vs series oracle")
    for cid in CLASS_IDS:
        passed = exp_res[cid] <= args.tol
        ok &= passed
        print(f"  {cid:<4} max residual {exp_res[cid]:.3e}  {'pass' if passed else 'FAIL'}")
    print("classification round trip")
    for cid in CLASS_IDS:
        passed = rt_res[cid] <= args.tol
        ok &= passed
        print(f"  {cid:<4} max error    {rt_res[cid]:.3e}  {'pass' if passed else 'FAIL'}")
    n_exp = len(CLASS_IDS) * len(params) ** 2 * len(coords) ** 3
    print(
        f"overall: {'PASS' if ok else 'FAIL'} "
        f"({n_exp} exponential instances, tol {args.tol:g}, grid {args.grid})"
    )
    return 0 if ok else 1


def cmd_table(args: argparse.Namespace) -> int:
    a, b, c = args.coords
    rows = table_rows(args.alpha, args.beta, a, b, c)
    if args.format == "json":
        print(render_json(rows))
    else:
        print(
            f"alpha={args.alpha:g} beta={args.beta:g}  a={a:g} b={b:g} c={c:g}"
        )
        for row in rows:
            print(
                f"{row['class']:<4} trA={row['trace']:<10.6g} trA2={row['trace_sq']:<10.6g}"
                f" t={row['t']:<12.8g} u={row['u']:<12.8g} branch={row['branch']}"
            )
            print(format_matrix(row["A"], indent="     "))
    return 0


# --- argument parsing -------------------------------------------------------


def _class_id(token: str) -> str:
    cid = token.upper()
    if cid not in CLASS_IDS + ("F0",):
        raise argparse.ArgumentTypeError(
            f"unknown class {token!r} (expected one of f0 f1 f4 f5 f8 f9 f10 f11)"
        )
    return cid


def _coords(token: str) -> tuple[float, float, float]:
    parts = token.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("coords must be three comma-separated reals")
    try:
        a, b, c = (float(s) for s in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return (a, b, c)


def _tol(token: str) -> float:
    tol = float(token)
    if tol <= 0.0:
        raise argparse.ArgumentTypeError("tol must be positive")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paralie",
        description=(
            "Construct the seven 3D Lie algebra families carrying an almost "
            "paracontact almost paracomplex Riemannian structure, evaluate "
            "their closed-form group exponentials, and classify arbitrary "
            "structure constants."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("construct", help="structure constants of a class algebra")
    sp.add_argument("--class", dest="class_id", type=_class_id, required=True)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("classify", help="classify structure constants from JSON")
    sp.add_argument("input", nargs="?", default="-", help="path or - for stdin")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--tol", type=_tol, default=1e-12, help="verdict threshold")

    sp = sub.add_parser("exp", help="closed-form exponential of a class element")
    sp.add_argument("--class", dest="class_id", type=_class_id, required=True)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--coords", type=_coords, default=(0.0, 0.0, 0.0))
    sp.add_argument("--oracle", action="store_true", help="also report oracle residual")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("verify", help="run the verification grids")
    sp.add_argument("--grid", choices=("small", "full"), default="full")
    sp.add_argument("--tol", type=_tol, default=1e-12, help="pass threshold per class")

    sp = sub.add_parser("table", help="numeric per-class exponential table")
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--coords", type=_coords, default=(1.0, 1.0, 1.0))
    sp.add_argument("--format", choices=("text", "json"), default="text")

    return parser


_DISPATCH = {
    "construct": cmd_construct,
    "classify": cmd_classify,
    "exp": cmd_exp,
    "verify": cmd_verify,
    "table": cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except NotALieAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
