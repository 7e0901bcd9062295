"""The one writer and compiler of the generated kernels: expengine's
exponentials and levicivita's classification run their arithmetic on _Src
to write their source, and define compiles it where tracebacks, pdb and
inspect.getsource can show its lines."""

import linecache


class _Src(str):
    """Python source of a float, written by running the arithmetic that forms
    it on names.  _ZERO is a structural zero, which a sum, a product or a
    zero coefficient leaves out; every other sum and product is parenthesized."""

    def __add__(self, other):
        return other if self == _ZERO else self if other == _ZERO else _Src(f"({self} + {other})")

    def __mul__(self, other):
        return _ZERO if _ZERO in (self, other) else _Src(f"({self} * {other})")

    def __rmul__(self, other):  # a float coefficient
        return _ZERO if other == 0.0 else self if other == 1.0 else _Src(f"({other!r} * {self})")

    def __neg__(self):
        return _Src(f"-{self}")


_ZERO = _Src("0.0")


def define(source: str, name: str, namespace: dict) -> None:
    """Run source in namespace, compiled under the file name name, and give
    linecache its text under that name."""
    linecache.cache[name] = (len(source), None, source.splitlines(True), name)
    exec(compile(source, name, "exec"), namespace)
