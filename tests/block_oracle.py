"""A reference reading of one block of table rows, written independently
of the library's byte-level decoder so that the two can certify each
other.

A block is the bytes of rows ``[v,...,v]`` as they follow a matrix's
opening ``[``: each row followed by ``,``, or the last by the ``]`` that
closes the matrix, after which nothing is read.  The reference hands
the rows to ``json.loads`` and checks what it returns, where the
library reads the positions of the non-digit bytes.
"""

import json

import numpy as np

ALLOWED = b"0123456789,[]-"


def decode_rows(block: bytes, width: int):
    """(values, used, closed) as ``io._decode_rows`` gives them, or None.

    The rows read are the block up to its first ``]]``, which closes the
    matrix, or, with no ``]]``, the whole block, which must then end in
    ``,``.  None unless those bytes are all in ``0-9,[]-``, hold no
    ``-0``, and ``json.loads`` reads them, with the matrix's ``[`` put
    back, as a nonempty list of rows of ``width`` integers.  Entries
    outside 0..width-1 are -1; the values are int16 up to width 10,000
    (four digits), else int32.
    """
    close = block.find(b"]]")
    if close >= 0:
        used, text = close + 2, block[:close + 2]
    elif block.endswith(b","):
        used, text = len(block), block[:-1] + b"]"
    else:
        return None
    if text.translate(None, ALLOWED) or b"-0" in text:
        return None
    try:
        rows = json.loads(b"[" + text)
    except (ValueError, RecursionError):   # a digit count past Python's limit is a ValueError
        return None
    if not rows or not all(
            isinstance(row, list) and len(row) == width
            and all(isinstance(v, int) for v in row) for row in rows):
        return None
    values = [[v if 0 <= v < width else -1 for v in row] for row in rows]
    return np.array(values, dtype=np.int16 if width <= 10_000 else np.int32), used, close >= 0
