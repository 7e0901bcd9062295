"""Closed-form group exponentials e^A = E + t*A + u*A^2 for the seven families.

Every family matrix satisfies a low-degree annihilating identity that
collapses the exponential series:

  * F1, F11:  A^2 = (tr A) A        ->  t = (e^k - 1)/k with k = tr A, u = 0
  * F5:       A^2 = (tr A / 2) A    ->  same t with k = tr A / 2, u = 0
  * F4, F8, F9, F10:  A^3 = z A with z = tr(A^2)/2
                ->  t = sinh(sqrt(z))/sqrt(z), u = (cosh(sqrt(z)) - 1)/z

t and u are entire in k resp. z, so each family is evaluated by one formula
at every input.  With r = sqrt(|z|), h = r/2 and f = sinh for z > 0, sin for
z < 0 (the trigonometric regime of F8 and F10), t = f(r)/r and
u = (f(h)/h)^2 / 2, the half-angle form of (cosh r - 1)/z that does not
cancel.  The one special case is the removable singularity at an exact zero:
t = 1 at k = 0, and (t, u) = (1, 1/2) at z = 0.

Past double range the call raises ValueError, with no numpy warning and no
chained exception.  The quadratic classes never form A^2, so for them only
tr A and exp(A) = E + t*A itself can overflow.  The cubic classes form A^2
only once tr A^2 has come out finite.  In F8 that bounds it: tr A^2 =
2(A01*A10 + A02*A20 + A12*A21), three products of one sign, so a finite
tr A^2 means a finite A and no entry of A^2 above |tr A^2|.  numpy's one
product therefore sets no overflow or invalid flag and runs with numpy's
error handling as the caller set it.  F4, F9 and F10 square A on Python
floats, which never warn.

Each call is nine numbers, so it runs on Python floats, in one straight-line
function per class, its kernel.  The seven kernels are generated at import
from the class's bracket terms (lie._TERMS, the list class_algebra writes)
and compiled from one source string, _EXP_SOURCE, by _codegen, as
levicivita's classification is.  A kernel

  * reads the coordinates with lie._coordinates;
  * forms A's structurally nonzero entries as named floats: each nonzero
    C_ij^k subtracts x_i * C_ij^k from A[j][k], in i order, the products
    and sums lie.adjoint_rep forms on class_algebra's constants;
  * forms tr A, or tr A^2 in mat3._trace_sq's order, on those names, with
    the products of a structural zero left out, and goes on only where it
    is finite;
  * takes t and u from math.expm1, or, in the cubic classes, from lines
    written once by the generator: f(r)/r and (f(h)/h)^2 / 2 as above;
  * forms exp(A) only on the plan, tests those entries for finiteness once,
    and writes A's nine entries and then exp(A)'s into one new (2, 3, 3)
    array with one struct pack_into: native doubles, copied bit for bit.
    F8, which squares A in numpy, writes A first and exp(A) after it.

No entry of A is -0.0 (0.0 - y is +0.0 where y is a zero), so a sum that
leaves out a structural +0.0 has the bits of the sum with it.  A product
x * 0.0 left out of tr A^2 is a signed zero, which moves at most the sign
of a zero z that t, u and the label read as zero, or NaN where x is not
finite, and then exp(A) is not finite on x's entry either.

The generator runs A^2 and tr A^2 on A's entry names, with structural
zeros left out, and reads the rest off that text.  The plan is every entry
where A or A^2 is not a structural zero (three to six of the nine outside
F8), and each is formed as E[n] + t*A[n] + u*A^2[n], left to right, with
no term where A[n] or A^2[n] is a structural zero; F1, F5 and F11 form no
A^2, which would overflow long before E + t*A.  In F4, F9 and F10 every
entry of A^2 is one product, formed on the floats inside that entry's
expression: a single product rounds the same whether or not BLAS fuses it
with an add of zero.  The terms left out add exact zeros: E[n] + t*0.0 is
E[n] where t is finite, and E[n] + t*A[n], never -0.0 as E[n] is +0.0 or
1.0, is unchanged by u*(+0.0) where u is finite and not negative.  So the
bits are those of E + t*A + u*A^2 on all nine.  Off the plan exp(A) is E's
literal.  Where an entry of A^2 sums two products (F8's diagonal), A^2
stays in numpy, on all nine entries: BLAS may fuse that sum in a way Python
floats cannot repeat.  It is m.dot(m), with m one view of the array's
first half, which the result returns as A: the dgemm that np.dot(A, A) and
A @ A run, without np.dot's dispatch or the matmul ufunc's overhead.  The
exact-zero label reads the entries of A that tr A^2 reads: zero_matrix
where those are all of A's (F8), trA2_zero otherwise.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ._codegen import _ZERO, _Src, define
from .lie import _TERMS, _coordinates, _values
from .mat3 import _trace_sq
from .structure import CLASS_IDS, ClassParams

# k = factor * tr(A) for the quadratic-identity classes; the remaining
# classes (F4, F8, F9, F10) take the cubic route
_TRACE_FACTOR = {"F1": 1.0, "F5": 0.5, "F11": 1.0}

_E = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)  # the identity's entries in row order

# A's nine entries, then exp(A)'s, written as native doubles into one array
_pack_into = struct.Struct("18d").pack_into
_pack9_into = struct.Struct("9d").pack_into


@dataclass(eq=False)
class ExpResult:
    """One evaluated exponential: ingredients, diagnostic label, and the element.

    A and expA are the two halves of one (2, 3, 3) array, each a writable
    C-ordered (3, 3) view that shares no memory with the other.
    """

    A: np.ndarray
    t: float
    u: float
    branch: str  # generic, or the exact zero hit: trace_zero | trA2_zero | zero_matrix
    expA: np.ndarray


def _kernel_source(cid: str) -> str:
    """The kernel _exp_<cid>(p, a, b, c) as Python source (module docstring)."""
    factor = _TRACE_FACTOR.get(cid)
    terms = _TERMS[cid]
    w = _values(SimpleNamespace(alpha=_Src("al"), beta=_Src("bt")))
    nonzero = sorted({n for _, n, _ in terms})
    a = [_Src(f"a{n}") if n in nonzero else _ZERO for n in range(9)]
    # A^2[3i + k] = sum over j of A[i][j] * A[j][k]; the quadratic classes form none
    sq = [_ZERO] * 9 if factor is not None else [
        a[n - n % 3] * a[n % 3] + a[n - n % 3 + 1] * a[n % 3 + 3] + a[n - n % 3 + 2] * a[n % 3 + 6]
        for n in range(9)]
    plan = [n for n in range(9) if a[n] != _ZERO or sq[n] != _ZERO]
    dot = any(" + " in s for s in sq)  # an entry of A^2 sums two products
    entry_a = [f"    a{n} = 0.0" + "".join(f" - x{i} * {w[m]}" for i, k, m in terms if k == n)
               for n in nonzero]
    read = [f"    {x} = p.{name}" for x, name in (("al", "alpha"), ("bt", "beta"))
            if any(x in w[m] for _, _, m in terms)]
    body = [f"def _exp_{cid}(p, a, b, c):", "    x0, x1, x2 = _coordinates(a, b, c)",
            *read, *entry_a]
    if factor is not None:
        body += [f"    k = {factor * (a[0] + a[4] + a[8])}",
                 "    if math.isfinite(k):",
                 "        try:",
                 "            t = math.expm1(k) / k if k else 1.0",
                 "        except OverflowError:  # exp(A) past double range",
                 "            t = math.nan",
                 "        u = 0.0"]
        branch = '"generic" if k else "trace_zero"'
    else:
        z = 0.5 * _trace_sq(a)
        body += [f"    z = {z}",
                 "    if math.isfinite(z):",
                 "        try:  # sinh(sqrt(z))/sqrt(z), (cosh(sqrt(z)) - 1)/z, through z <= 0",
                 "            if z == 0.0:",
                 "                t, u = 1.0, 0.5",
                 "            else:",
                 "                r = math.sqrt(abs(z))",
                 "                h = 0.5 * r",
                 "                f = math.sinh if z > 0.0 else math.sin",
                 "                fh = f(h) / h",
                 "                t, u = f(r) / r, 0.5 * fh * fh",
                 "        except OverflowError:  # exp(A) past double range",
                 "            t = u = math.nan"]
        # z underflows before A does, so an exact zero is read on the entries
        # of A that z reads (the names a0..a8 are one digit each); where those
        # are all of A's, the zero is A itself
        read_zero = [a[n] for n in nonzero if a[n] in z]
        label = "zero_matrix" if len(read_zero) == len(nonzero) else "trA2_zero"
        branch = f'"generic" if {" or ".join(["z", *read_zero])} else "{label}"'
    if dot:  # numpy's A^2, on all nine, of A written into buf's first half m
        body += ["        buf = np.empty((2, 3, 3))",
                 "        m = buf[0]",
                 f"        _pack9_into(buf, 0, {', '.join(a)})",
                 f"        {', '.join(f's{n}' for n in range(9))} = m.dot(m).ravel().tolist()"]
        sq = [s if s == _ZERO else _Src(f"s{n}") for n, s in enumerate(sq)]
    e = list(map(repr, _E))
    for n in plan:
        expr = [e[n]]
        if a[n] != _ZERO:
            expr.append(f"t * {a[n]}")
        if sq[n] != _ZERO:
            expr.append(f"u * {sq[n]}")
        body.append(f"        e{n} = {' + '.join(expr)}")
        e[n] = f"e{n}"
    body.append(f"        if {' + '.join(f'0.0 * e{n}' for n in plan)} == 0.0:  # all finite")
    if dot:  # exp(A) into buf[1], 72 bytes in
        body.append(f"            _pack9_into(buf, 72, {', '.join(e)})")
    else:  # A and exp(A), the two halves of one array
        body += ["            buf = np.empty((2, 3, 3))",
                 f"            _pack_into(buf, 0, {', '.join(a + e)})"]
    body.append(f"            return ExpResult({'m' if dot else 'buf[0]'}, t, u, {branch}, buf[1])")
    body.append('    raise ValueError("exponential overflows double precision at these parameters")')
    return "\n".join(body) + "\n"


def _exp_source() -> str:
    """All seven kernels and the table _KERNELS that closed_form reads."""
    table = ", ".join(f'"{cid}": _exp_{cid}' for cid in CLASS_IDS)
    return "".join(_kernel_source(cid) + "\n\n" for cid in CLASS_IDS) + f"_KERNELS = {{{table}}}\n"


# Overflow ends in the one raise at the end of a kernel, outside the
# except, so the ValueError carries no OverflowError as context.
_EXP_SOURCE = _exp_source()
define(_EXP_SOURCE, "<paralie.expengine._EXP_SOURCE>", globals())  # defines _KERNELS


def closed_form(p: ClassParams, a: float, b: float, c: float) -> ExpResult:
    """Group element exp(a*E0 + b*E1 + c*E2) in the family labelled by p.

    Input must be one of the seven non-trivial classes; for F0 the
    exponential is the identity and needs no formula.  A p that is not a
    ClassParams, coordinates that float() refuses or that are not finite,
    and an exponential past double range raise ValueError.
    """
    if not isinstance(p, ClassParams):
        raise ValueError(f"p must be a ClassParams, not {type(p).__name__}")
    kernel = _KERNELS.get(p.class_id)
    if kernel is None:
        raise ValueError(f"closed_form is defined for {CLASS_IDS}, not {p.class_id!r}")
    return kernel(p, a, b, c)


def para_sasakian_group(a: float, b: float, c: float) -> ExpResult:
    """Exponential in the para-Sasakian family (F4 at alpha = -1).

    A = [[0, -c, -b], [0, 0, a], [0, a, 0]]; for a != 0 the coefficients are
    t = sinh|a|/|a| and u = (cosh|a| - 1)/a^2, else e^A = E + A.
    """
    return closed_form(ClassParams("F4", alpha=-1.0), a, b, c)
