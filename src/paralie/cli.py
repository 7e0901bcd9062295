"""Command-line front end: construct, classify, exp, verify, table.

The JSON wire format lives here alone: one reader for classify's input and
one writer for every command's output.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage/parse error, 3 invalid Lie algebra (Jacobi failure).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .expengine import closed_form
from .levicivita import NotALieAlgebraError, classify_manifold
from .lie import class_algebra, jacobi_defect, structure_constants
from .mat3 import _positive_tol, expm_oracle, max_abs, trace, trace_sq
from .structure import CLASS_IDS, TWO_PARAMETER_CLASSES, ClassParams

# verify's grids by name: parameters for the families, frame coordinates for
# the exponentials, and a denser signed grid for the classification round trip
GRIDS = {
    "small": ((-1.0, 1.0), (-1.0, 0.0, 1.0), (-1.0, 1.0)),
    "full": ((-2.0, -1.0, 0.5, 1.0, 2.0), (-2.0, -1.0, 0.0, 1.0, 2.0),
             (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)),
}


# --- verification grids -----------------------------------------------------


def _grid_pairs(cid: str, grid) -> list[tuple[float, float]]:
    """The (alpha, beta) pairs class cid visits on a parameter grid.

    alpha sweeps the grid; beta sweeps it only for the two-parameter
    classes, and is 0 for the one-parameter families, which never read it.
    """
    betas = grid if cid in TWO_PARAMETER_CLASSES else (0.0,)
    return [(alpha, beta) for alpha in grid for beta in betas]


def run_exp_grid(param_grid, coord_grid) -> dict[str, float]:
    """Closed form vs oracle over classes x _grid_pairs x coordinates.

    Returns the max residual per class.  beta sweeps the grid only for F1
    and F11: a one-parameter family's A, and so its residual, is the same
    at every beta.
    """
    worst = {}
    for cid in CLASS_IDS:
        m = 0.0
        for alpha, beta in _grid_pairs(cid, param_grid):
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


def run_roundtrip_grid(grid) -> dict[str, float]:
    """Algebra -> connection -> tensor -> class round trip per class.

    Returned value is the max over _grid_pairs of parameter recovery error
    and verdict mismatch (inf when the wrong class comes back).
    """
    worst = {}
    for cid in CLASS_IDS:
        m = 0.0
        for alpha, beta in _grid_pairs(cid, grid):
            p = ClassParams(cid, alpha, beta)
            report = classify_manifold(class_algebra(p))
            if report.verdict != [cid]:
                m = float("inf")
                continue
            err = max(abs(report.alpha - alpha), abs(report.beta - beta))
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
                "A": res.A,
                "trace": trace(res.A),
                "trace_sq": trace_sq(res.A),
                "t": res.t,
                "u": res.u,
                "branch": res.branch,
            }
        )
    return rows


# --- JSON input and output --------------------------------------------------


def _read_constants(path: str) -> np.ndarray:
    """Constants from a JSON object {"C": ...} or {"class", "alpha", "beta"}."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    try:
        obj = json.loads(text)
    except RecursionError:  # json's parser recurses once per level of nesting
        raise ValueError("input JSON is nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("input JSON must be an object")
    if "C" in obj:
        return structure_constants(obj["C"])
    if "class" in obj:
        cid = str(obj["class"]).upper()
        return class_algebra(ClassParams(cid, obj.get("alpha", 0.0), obj.get("beta", 0.0)))
    raise ValueError('constants JSON must carry key "C" or key "class"')


def render_json(value) -> str:
    """JSON with every float as the shortest text that reads back to it.

    numpy arrays are written as nested lists, with negative zeros cleared.
    """
    return json.dumps(value, indent=2, allow_nan=False, default=lambda a: (a + 0.0).tolist())


# --- text output ------------------------------------------------------------


def format_matrix(m, indent: str = "  ") -> str:
    cells = [[format(float(v) + 0.0, ".10g") for v in row] for row in np.asarray(m)]
    width = max(len(s) for row in cells for s in row)
    return "\n".join(
        indent + "[ " + "  ".join(s.rjust(width) for s in row) + " ]" for row in cells
    )


def _format_brackets(c) -> list[str]:
    lines = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        terms = [f"{c[i, j, k]:+g} E{k}" for k in range(3) if c[i, j, k] != 0.0]
        lines.append(f"[E{i},E{j}] = {' '.join(terms) if terms else '0'}")
    return lines


# --- subcommands ------------------------------------------------------------


def cmd_construct(args: argparse.Namespace) -> int:
    p = ClassParams(args.class_id, args.alpha, args.beta)
    c = class_algebra(p)
    defect = jacobi_defect(c)  # checks C: past double range, a ValueError
    if args.format == "json":
        print(render_json({"C": c, "jacobi_defect": defect}))
    else:
        print(f"class {p.class_id}  alpha={p.alpha:g}  beta={p.beta:g}")
        for line in _format_brackets(c):
            print(line)
        print(f"jacobi defect: {defect:g}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    tol = _positive_tol(args.tol)  # first, so a bad tol is exit 2 on every input
    report = classify_manifold(_read_constants(args.input), tol)
    if args.format == "json":
        print(render_json({
            "verdict": report.verdict,
            "alpha": report.alpha,
            "beta": report.beta,
            "lee": vars(report.lee),
            "para_sasakian": report.para_sasakian,
            "classes": {
                cid: {"alpha": a, "beta": b}
                for cid, (a, b) in report.params.items()
                if cid in report.verdict
            },
        }))
    else:
        print("verdict: " + " + ".join(report.verdict))
        print(f"alpha: {report.alpha:.12g}  beta: {report.beta:.12g}")
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
        payload = dict(vars(res))
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
        # det exp(A) = e^{tr A} exactly, where the rounded exp(A) may have
        # lost it; past double range it is inf
        try:
            det = math.exp(trace(res.A))
        except OverflowError:
            det = math.inf
        print(f"det(exp(A)) = {det:.12g}")
        if args.oracle:
            print(f"oracle residual = {residual:.3e}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    tol = _positive_tol(args.tol)
    params, coords, rt = GRIDS[args.grid]
    exp_res = run_exp_grid(params, coords)
    rt_res = run_roundtrip_grid(rt)
    ok = True
    sections = (("closed-form exponential vs series oracle", "max residual", exp_res),
                ("classification round trip", "max error   ", rt_res))
    for title, label, worst in sections:
        print(title)
        for cid in CLASS_IDS:
            passed = worst[cid] <= tol
            ok &= passed
            print(f"  {cid:<4} {label} {worst[cid]:.3e}  {'pass' if passed else 'FAIL'}")
    n_exp = sum(len(_grid_pairs(cid, params)) for cid in CLASS_IDS) * len(coords) ** 3
    print(
        f"overall: {'PASS' if ok else 'FAIL'} "
        f"({n_exp} exponential instances, tol {tol:g}, grid {args.grid})"
    )
    return 0 if ok else 1


def cmd_table(args: argparse.Namespace) -> int:
    a, b, c = args.coords
    rows = table_rows(args.alpha, args.beta, a, b, c)
    if args.format == "json":
        # F1, F5 and F11 never form A^2, so tr A^2 can overflow where exp(A)
        # does not; strict JSON has no inf, so it is written as null
        for row in rows:
            if not math.isfinite(row["trace_sq"]):
                row["trace_sq"] = None
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


def _coords(token: str) -> tuple[float, float, float]:
    parts = token.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("coords must be three comma-separated reals")
    try:
        a, b, c = (float(s) for s in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return (a, b, c)


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
    sp.set_defaults(run=cmd_construct)
    sp.add_argument("--class", dest="class_id", type=str.upper, required=True)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("classify", help="classify structure constants from JSON")
    sp.set_defaults(run=cmd_classify)
    sp.add_argument("input", nargs="?", default="-", help="path or - for stdin")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--tol", type=float, default=1e-12, help="verdict threshold")

    sp = sub.add_parser("exp", help="closed-form exponential of a class element")
    sp.set_defaults(run=cmd_exp)
    sp.add_argument("--class", dest="class_id", type=str.upper, required=True)
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--beta", type=float, default=0.0)
    sp.add_argument("--coords", type=_coords, default=(0.0, 0.0, 0.0))
    sp.add_argument("--oracle", action="store_true", help="also report oracle residual")
    sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("verify", help="run the verification grids")
    sp.set_defaults(run=cmd_verify)
    sp.add_argument("--grid", choices=GRIDS, default="full")
    sp.add_argument("--tol", type=float, default=1e-12, help="pass threshold per class")

    sp = sub.add_parser("table", help="numeric per-class exponential table")
    sp.set_defaults(run=cmd_table)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--coords", type=_coords, default=(1.0, 1.0, 1.0))
    sp.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.run(args)
    except NotALieAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
