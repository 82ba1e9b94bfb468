"""Low-level Cayley-table kernels.

All structure axioms reduce to pointwise identities between gathered
copies of the operation tables.  The checks below scan in blocks of
rows so that the O(n^3) laws stay vectorized without materializing an
(n, n, n) cube; witnesses are always the lexicographically least
violating tuple, which keeps error messages reproducible.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.int16

# Block budget: at most ~4M table entries live per intermediate array.
_BLOCK_ELEMS = 1 << 22


def as_table(obj) -> np.ndarray:
    """Coerce to a read-only square int16 array without range checks."""
    try:
        arr = np.asarray(obj)
    except ValueError:
        raise ValueError("expected a square n x n table, got ragged rows") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"expected a square n x n table with n >= 1, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("table entries must be integers")
    out = np.ascontiguousarray(arr, dtype=DTYPE)
    if out is arr:
        out = arr.copy()
    out.setflags(write=False)
    return out


def relabel(carrier, table) -> np.ndarray:
    """Replace each entry of ``table`` by its position in ``carrier``.

    ``carrier`` is ascending and contains every entry of ``table``.
    """
    carrier = np.asarray(carrier, dtype=np.int64)
    lookup = np.full(int(carrier[-1]) + 1, -1, dtype=np.int64)
    lookup[carrier] = np.arange(carrier.size)
    return lookup[table]


def entries_in_range(table: np.ndarray, n: int) -> bool:
    return bool(((table >= 0) & (table < n)).all())


def latin_witness(table: np.ndarray):
    """First row or column that is not a permutation of 0..n-1.

    Returns None, or ("row"|"col", index, offending value).
    """
    n = table.shape[0]
    want = np.arange(n, dtype=DTYPE)
    for axis, name in ((1, "row"), (0, "col")):
        sorted_ = np.sort(table, axis=axis)
        bad = sorted_ != (want[None, :] if axis == 1 else want[:, None])
        if bad.any():
            if axis == 1:
                lines = bad.any(axis=1)
                i = int(np.argmax(lines))
                line = table[i]
            else:
                lines = bad.any(axis=0)
                i = int(np.argmax(lines))
                line = table[:, i]
            counts = np.bincount(np.clip(line, 0, None).astype(np.int64), minlength=n)
            if (line < 0).any() or (line >= n).any():
                v = int(line[(line < 0) | (line >= n)][0])
            else:
                v = int(np.argmax(counts > 1))
            return (name, i, v)
    return None


def _blocks(n: int) -> int:
    return max(1, _BLOCK_ELEMS // max(n * n, 1))


def assoc_witness(op: np.ndarray):
    """First (a, b, c) with (a op b) op c != a op (b op c), else None."""
    n = op.shape[0]
    step = _blocks(n)
    for a0 in range(0, n, step):
        rows = op[a0:a0 + step]          # (B, n)
        lhs = op[rows]                   # [i,b,c] = op[op[a,b], c]
        rhs = rows[:, op]                # [i,b,c] = op[a, op[b,c]]
        bad = lhs != rhs
        if bad.any():
            i, b, c = np.argwhere(bad)[0]
            return (a0 + int(i), int(b), int(c))
    return None


def right_dist_witness(add: np.ndarray, mul: np.ndarray):
    """First (a, b, c) with (a+b)*c != a*c + b*c, else None."""
    n = add.shape[0]
    step = _blocks(n)
    for a0 in range(0, n, step):
        arows = add[a0:a0 + step]        # (B, n)
        mrows = mul[a0:a0 + step]        # (B, n), entry [i,c] = a*c
        lhs = mul[arows]                 # [i,b,c] = mul[a+b, c]
        rhs = add[mrows[:, None, :], mul[None, :, :]]   # [i,b,c] = (a*c) + (b*c)
        bad = lhs != rhs
        if bad.any():
            i, b, c = np.argwhere(bad)[0]
            return (a0 + int(i), int(b), int(c))
    return None


def left_dist_witness(add: np.ndarray, mul: np.ndarray):
    """First (a, b, c) with a*(b+c) != a*b + a*c, else None."""
    n = add.shape[0]
    step = _blocks(n)
    for a0 in range(0, n, step):
        mrows = mul[a0:a0 + step]        # (B, n)
        lhs = mrows[:, add]              # [i,b,c] = mul[a, b+c]
        rhs = add[mrows[:, :, None], mrows[:, None, :]]  # [i,b,c] = a*b + a*c
        bad = lhs != rhs
        if bad.any():
            i, b, c = np.argwhere(bad)[0]
            return (a0 + int(i), int(b), int(c))
    return None


def comm_witness(op: np.ndarray):
    """First (a, b) with a op b != b op a, else None."""
    bad = op != op.T
    if bad.any():
        a, b = np.argwhere(bad)[0]
        return (int(a), int(b))
    return None


def identity_witness(op: np.ndarray, e: int):
    """First element a with e op a != a or a op e != a, else None."""
    n = op.shape[0]
    want = np.arange(n, dtype=DTYPE)
    bad = (op[e] != want) | (op[:, e] != want)
    if bad.any():
        return int(np.argmax(bad))
    return None


def mixed_radix_weights(radices) -> np.ndarray:
    """Row-major weights: first digit is the most significant."""
    w = np.ones(len(radices), dtype=np.int64)
    for i in range(len(radices) - 2, -1, -1):
        w[i] = w[i + 1] * radices[i + 1]
    return w


def decode_all(count: int, radices) -> np.ndarray:
    """Digit matrix of shape (count, len(radices)), row-major digits."""
    w = mixed_radix_weights(radices)
    idx = np.arange(count, dtype=np.int64)
    digits = (idx[:, None] // w[None, :]) % np.asarray(radices, dtype=np.int64)[None, :]
    return digits.astype(DTYPE)


def encode(digits: np.ndarray, radices) -> np.ndarray:
    w = mixed_radix_weights(radices)
    return digits.astype(np.int64) @ w
