"""The generated kernels as text.

Every source is committed as a golden file in tests/golden, so a change to
a generator shows up as a diff of the kernels it writes; README says how to
regenerate them.  _codegen.define registers each source with linecache, so
tracebacks and inspect.getsource show a kernel's own lines.
"""

import ast
import inspect
import math
import pathlib
import traceback

import numpy as np
import pytest

from paralie import expengine, levicivita
from paralie.expengine import closed_form
from paralie.levicivita import classify_manifold, connection_coeffs
from paralie.lie import class_algebra
from paralie.structure import ClassParams
from reference import kernel

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("module, name, generate", [
    (expengine, "_EXP_SOURCE", expengine._exp_source),
    (levicivita, "_CLASSIFY_SOURCE", levicivita._classify_source),
    (levicivita, "_CONNECTION_SOURCE", None),  # one fixed call of levicivita._kernel
])
def test_generated_source_is_the_golden_text(module, name, generate):
    golden = (GOLDEN / f"{module.__name__.split('.')[-1]}.{name}.txt").read_text(encoding="utf-8")
    assert generate is None or generate() == golden
    assert getattr(module, name) == golden


def test_a_kernel_line_shows_in_a_traceback():
    cases = (
        (lambda: closed_form(ClassParams("F8", 1.0), 1e155, 0.0, 0.0),
         "<paralie.expengine._EXP_SOURCE>", "_exp_F8",
         'raise ValueError("exponential overflows double precision at these parameters")'),
        (lambda: classify_manifold(np.zeros((3, 3, 3)), math.nan),
         "<paralie.levicivita._CLASSIFY_SOURCE>", "classify_manifold", "tol = _positive_tol(tol)"),
        (lambda: connection_coeffs(class_algebra(ClassParams("F4", 2.0**1023))),
         "<paralie.levicivita._CONNECTION_SOURCE>", "connection_coeffs",
         'raise ValueError("structure constants overflow double precision (max |C| >= 2**1023)")'),
    )
    for call, filename, function, line in cases:
        with pytest.raises(ValueError) as info:
            call()
        text = "".join(traceback.format_exception(info.type, info.value, info.tb))
        assert f'File "{filename}", line ' in text, text
        assert f", in {function}\n    {line}\n" in text, text


def test_inspect_reads_each_kernel_from_its_source():
    for cid, fn in expengine._KERNELS.items():
        segment = ast.get_source_segment(expengine._EXP_SOURCE, kernel(expengine._EXP_SOURCE, cid))
        assert inspect.getsource(fn) == segment + "\n", cid
    for fn, source in ((classify_manifold, levicivita._CLASSIFY_SOURCE),
                       (connection_coeffs, levicivita._CONNECTION_SOURCE)):
        assert inspect.getsource(fn) == source
