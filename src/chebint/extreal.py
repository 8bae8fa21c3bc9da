"""Extended nonnegative reals [0, inf] with the 0*inf = inf*0 = 0 product."""

from __future__ import annotations

import numpy as np

INF = float("inf")
INF_CAP = 1e6  # where a grid over [0, inf] stops
_INF_BITS = 0x7FF0000000000000  # the int64 view of +inf: larger views are NaNs
# below this many output elements the operand checks of xmul's direct product
# cost more than the np.where they save
_DIRECT_MIN = 1 << 12
_FLOAT64 = np.dtype(float)  # numpy's native float64 dtype, one object


def as_value(x):
    """x as a float if it is a scalar or a 0-d array, else as a float64 array:
    the entry points convert each value once, and the code past them sees only these two."""
    if type(x) is np.ndarray and x.ndim and x.dtype is _FLOAT64 or type(x) is float:
        return x
    x = np.asarray(x, dtype=float)
    return x if x.ndim else float(x)


def xmul(a, b):
    """Product on [0, inf] patched so that 0*inf = inf*0 = 0.

    Takes float64 arrays or floats, at least one of them an array
    (broadcasting like ``*``).  When both operands are finite with the sign
    bit clear, no 0*inf arises and every zero product is +0, so the plain
    product is returned, bit for bit what the patched one gives.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = a * b
    if out.size >= _DIRECT_MIN and _finite_unsigned(a) and _finite_unsigned(b):
        return out
    return np.where((a == 0.0) | (b == 0.0), 0.0, out)


def _finite_unsigned(x):
    """Every value of float array x is finite with its sign bit clear."""
    bits = x.view(np.int64)
    return bits.min() >= 0 and bits.max() < _INF_BITS
