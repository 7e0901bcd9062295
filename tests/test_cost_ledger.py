"""Opcodes per public call: a cost that does not depend on the host.

A call is counted with sys.settrace and frame.f_trace_opcodes: every
bytecode instruction it runs in Python, in the package and in what it
calls (a dataclass __init__, say), but none of the work done in C (numpy's
ufuncs and BLAS, struct).  The counts are exact for one Python minor
version, so LEDGER holds them per version, and on any other version the
cases are skipped.  A change that makes a call run more bytecode fails
here and has to raise the recorded count on purpose; a change that lowers
one lowers the recorded count with it.
"""

import sys

import numpy as np
import pytest

from paralie.expengine import closed_form
from paralie.levicivita import classify_manifold, connection_coeffs, f_tensor
from paralie.lie import class_algebra, jacobi_defect, structure_constants
from paralie.structure import CLASS_IDS, ClassParams

F11 = class_algebra(ClassParams("F11", 0.3, -1.7))  # README's classify example
NOT_LIE = np.zeros((3, 3, 3))  # [E0,E1] = E1 and [E1,E2] = E0: Jacobi defect 1
NOT_LIE[0, 1, 1], NOT_LIE[1, 0, 1], NOT_LIE[1, 2, 0], NOT_LIE[2, 1, 0] = 1.0, -1.0, 1.0, -1.0

# name: (function, arguments)
CALLS = {
    "classify_manifold F11": (classify_manifold, (F11,)),
    "classify_manifold not Lie": (classify_manifold, (NOT_LIE,)),
    "connection_coeffs F11": (connection_coeffs, (F11,)),
    "f_tensor F11": (f_tensor, (F11,)),
    "jacobi_defect F11": (jacobi_defect, (F11,)),
    "structure_constants F11": (structure_constants, (F11,)),
    "class_algebra F0": (class_algebra, (ClassParams("F0"),)),
    **{f"class_algebra {cid}": (class_algebra, (ClassParams(cid, 1.5, -0.5),)) for cid in CLASS_IDS},
    **{f"closed_form {cid}": (closed_form, (ClassParams(cid, 1.5, -0.5), 0.5, 1.0, -2.0))
       for cid in CLASS_IDS},
}

# opcodes per call, by Python (major, minor)
LEDGER = {
    (3, 11): {
        "classify_manifold F11": 702,
        "classify_manifold not Lie": 371,
        "connection_coeffs F11": 377,
        "f_tensor F11": 684,
        "jacobi_defect F11": 336,
        "structure_constants F11": 209,
        "class_algebra F0": 59,
        "class_algebra F1": 123,
        "class_algebra F4": 123,
        "class_algebra F5": 123,
        "class_algebra F8": 155,
        "class_algebra F9": 123,
        "class_algebra F10": 123,
        "class_algebra F11": 123,
        "closed_form F1": 252,
        "closed_form F4": 332,
        "closed_form F5": 251,
        "closed_form F8": 439,
        "closed_form F9": 320,
        "closed_form F10": 331,
        "closed_form F11": 238,
    },
}


def opcodes(fn, *args) -> int:
    """Bytecode instructions fn(*args) runs, a ValueError's raise included;
    the trace function in place before is put back."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "opcode"
        return local

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn(*args)
    except ValueError:
        pass
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.skipif(sys.version_info[:2] not in LEDGER, reason=(
    f"opcode counts are recorded for Python {', '.join('%d.%d' % v for v in LEDGER)}"
    f" only, not {sys.version_info[0]}.{sys.version_info[1]}"))
@pytest.mark.parametrize("name", CALLS)
def test_a_call_runs_no_more_bytecode_than_recorded(name):
    fn, args = CALLS[name]
    opcodes(fn, *args)  # a first call may fill caches
    got = opcodes(fn, *args)
    assert got == opcodes(fn, *args)  # the count repeats
    assert got <= LEDGER[sys.version_info[:2]][name], f"{name}: {got} opcodes"


def test_the_count_sees_one_more_statement_and_restores_the_trace_function():
    def one(x):
        return x

    def two(x):
        x = x + 0.0
        return x

    def tracer(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        counts = opcodes(one, 1.0), opcodes(two, 1.0)
        assert sys.gettrace() is tracer
    finally:
        sys.settrace(previous)
    assert 0 < counts[0] < counts[1]
