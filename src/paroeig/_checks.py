"""Argument checks shared by every public entry point, one policy read
from numpy's dtype kinds: counts and indices are integers, real numbers
and data are integers or floats. A bool is neither, and complex, string
and object data are refused, never cast; whole-valued floats pass only
as mesh ids, as np.loadtxt reads them. Each helper raises the calling
module's error class. Unless asked to, none copies a float64 array or
scans one, so the solver path calls them every sweep.
"""

import numpy as np

_REAL_KINDS = "iuf"


def _array(value, name, error):
    try:
        return np.asarray(value)
    except ValueError:                  # ragged nested sequences
        raise error(f"{name} must be a rectangular array") from None


def count(value, name, error, minimum=0):
    """value as a Python int >= minimum, from a Python or numpy integer."""
    arr = _array(value, name, error)
    if arr.ndim or arr.dtype.kind not in "iu" or arr < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(arr)


def real(value, name, error):
    """value as a Python float, from a Python or numpy real number."""
    arr = _array(value, name, error)
    if arr.ndim or arr.dtype.kind not in _REAL_KINDS:
        raise error(f"{name} must be a real number, got {value!r}")
    return float(arr)


def real_array(value, name, error, copy=False, finite=False):
    """value as a float64 array, a new one if copy; its dtype must be
    integer or float, and with finite set no entry is NaN or inf."""
    arr = _array(value, name, error)
    if arr.dtype.kind not in _REAL_KINDS:
        raise error(f"{name} must be real numbers, got {arr.dtype} values")
    arr = arr.astype(np.float64, copy=copy)
    if finite and not np.isfinite(arr).all():
        raise error(f"{name} must be finite")
    return arr


def integer_array(values, name, error):
    """An iterable of indices, read once, as an int64 array; its dtype
    must be integer unless it is empty (numpy reads [] as float64)."""
    try:
        arr = np.asarray(values if isinstance(values, np.ndarray)
                         else list(values))
    except (TypeError, ValueError):     # not iterable, or ragged
        raise error(f"{name} must be integers, got {values!r}") from None
    if arr.size and arr.dtype.kind not in "iu":
        raise error(f"{name} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def whole_numbers(values, name, error):
    """values as a new int64 array; each must be a whole number in
    int64's range (Python ints beyond it make an object array)."""
    a = _array(values, name, error)
    with np.errstate(invalid="ignore"):  # NaN and inf fail the compare
        ids = a.astype(np.int64) if a.dtype.kind in _REAL_KINDS else None
    if ids is None or not np.array_equal(ids, a):
        raise error(f"{name} must be whole numbers and must fit in int64")
    return ids
