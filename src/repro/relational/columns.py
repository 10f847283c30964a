"""Exactly-typed NumPy columns.

NumPy compares and adds in fixed-width dtypes; Python compares ``int``
with ``float`` exactly and grows integers without bound.  These helpers
pick, for a column of Python values, a dtype in which NumPy's answer
*equals* Python's — or ``object``, in which NumPy applies Python's own
operators element by element: exact by construction, only slower.  The
two vectorised kernels (:mod:`repro.relational.sampling` on the planning
side, :mod:`repro.joins.progressive` on the reduce side) run ``object``
columns through the same code as typed ones.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

#: Integer columns (and integer predicate offsets) up to this magnitude
#: are held as int64: the sum of two such values cannot wrap.
INT_SAFE = (1 << 62) - 1

#: Integers up to this magnitude convert to float64 without rounding.
FLOAT_EXACT = 1 << 53


def typed_column(values: Sequence[object]) -> np.ndarray:
    """``values`` as int64 (all ``int`` within :data:`INT_SAFE`), float64
    (all ``float``), or ``object`` — str, ``None``, bool, mixed int/float
    and huge ints never get a silent float64 cast."""
    kinds = set(map(type, values))
    if kinds == {int} and max(map(abs, values)) <= INT_SAFE:
        return np.array(values, dtype=np.int64)
    if kinds == {float}:
        return np.array(values, dtype=np.float64)
    column = np.empty(len(values), dtype=object)
    for position, value in enumerate(values):
        column[position] = value
    return column


def add_offset(column: np.ndarray, offset: object) -> np.ndarray:
    """``column + offset``, added as Python adds (no-op for a zero offset)."""
    if not offset:
        return column
    if column.dtype != object and not (
        type(offset) is float or (type(offset) is int and abs(offset) <= INT_SAFE)
    ):
        column = column.astype(object)  # int64 + offset could wrap
    return column + offset


def comparable(left: np.ndarray, right: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The two columns in dtypes whose NumPy comparison equals Python's.

    Equal dtypes compare natively.  int64 against float64 is cast to
    float64 only when every integer survives the cast unrounded (Python
    compares int with float exactly); everything else is compared as
    Python objects.
    """
    if left.dtype == right.dtype:
        return left, right
    if left.dtype != object and right.dtype != object:
        ints = left if left.dtype == np.int64 else right
        if not ints.size or max(-int(ints.min()), int(ints.max())) <= FLOAT_EXACT:
            return left.astype(np.float64), right.astype(np.float64)
    return left.astype(object), right.astype(object)
