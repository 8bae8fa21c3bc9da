"""Extended nonnegative reals [0, inf] with the 0*inf = inf*0 = 0 product."""

from __future__ import annotations

import numpy as np

INF = float("inf")
INF_CAP = 1e6  # where a grid over [0, inf] stops
_INF_BITS = 0x7FF0000000000000  # the int64 view of +inf: larger views are NaNs
# below this many output elements the operand checks of xmul's direct product
# cost more than the np.where they save
_DIRECT_MIN = 1 << 12


def xmul(a, b):
    """Product on [0, inf] patched so that 0*inf = inf*0 = 0.

    Accepts scalars or numpy arrays (broadcasting like ``*``).  When both
    operands are finite with the sign bit clear, no 0*inf arises and every
    zero product is +0, so the plain product is returned, bit for bit what
    the patched one gives.
    """
    if both_scalar(a, b):
        if a == 0.0 or b == 0.0:
            return 0.0
        return a * b
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        out = a * b
    if out.size >= _DIRECT_MIN and _finite_unsigned(a) and _finite_unsigned(b):
        return out
    return np.where((a == 0.0) | (b == 0.0), 0.0, out)


# An ndarray is never a scalar, and np.isscalar costs about 1 us a call, so
# these two ask it only when no argument is an ndarray.
def is_scalar(x):
    """np.isscalar(x)."""
    return type(x) is not np.ndarray and np.isscalar(x)


def both_scalar(a, b):
    """np.isscalar(a) and np.isscalar(b)."""
    return (type(a) is not np.ndarray and type(b) is not np.ndarray
            and np.isscalar(a) and np.isscalar(b))


def _finite_unsigned(x):
    """Every value of float array x is finite with its sign bit clear."""
    bits = x.view(np.int64)
    return bits.min() >= 0 and bits.max() < _INF_BITS


def as_scalar(x):
    """Collapse a 0-d numpy value to a plain float; pass arrays through."""
    if type(x) is np.ndarray:
        return float(x) if x.ndim == 0 else x
    if np.isscalar(x):
        return float(x)
    arr = np.asarray(x)
    if arr.ndim == 0:
        return float(arr)
    return arr
