"""Run-time size bounds for constructors and enumerations.

Every exhaustive procedure in the library is gated by one of these caps
so that a bad spec string cannot wedge the process.  CLI flags win over
environment variables, which win over the defaults.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, replace

from .errors import BoundExceeded
from .tables import MAX_ORDER


@dataclass(frozen=True)
class Bounds:
    max_n: int = 4096            # largest carrier any constructor or file will build
    max_subloop_n: int = 24      # loop size cap for full subloop enumeration
    max_enum_n: int = 4096       # carrier cap for lattices, locality, radicals, families
    max_families: int = 4096     # enumerated-family cap before LimitReached

    def __post_init__(self):
        for cap, value in vars(self).items():
            if value < 0:
                raise ValueError(f"{cap} {value} is negative: a cap is at least 0")
        if self.max_n > MAX_ORDER:
            raise ValueError(f"max_n {self.max_n} is past {MAX_ORDER}, "
                             "the most elements an int16 table can index")

    def check(self, cap: str, size: int, what: str) -> None:
        """Refuse ``what`` of ``size`` elements when it exceeds the field ``cap``.

        The one place a size is compared with a cap, so every refusal
        reads the same and names its cap.
        """
        limit = getattr(self, cap)
        if size > limit:
            # a size past 20 digits is worded, not printed: Python refuses
            # to format an int of more than 4300 digits
            count = size if size <= 10 ** 20 else "more than 10^20"
            raise BoundExceeded(f"{what} has {count} elements, cap is {limit} ({cap})")


# Environment knobs: the three names used by the CLI flags, then the
# enumeration cap.  No other LOOPNR_* variable is read.
_ENV_FIELDS = {
    "LOOPNR_MAX_N": "max_n",
    "LOOPNR_MAX_SUBLOOPS": "max_subloop_n",
    "LOOPNR_MAX_FAMILIES": "max_families",
    "LOOPNR_MAX_ENUM_N": "max_enum_n",
}


def bounds_from_env(base: Bounds | None = None, env=None) -> Bounds:
    """Overlay LOOPNR_* environment variables on ``base``."""
    out = base if base is not None else Bounds()
    mapping = os.environ if env is None else env
    updates = {}
    for var, field_name in _ENV_FIELDS.items():
        raw = mapping.get(var)
        if raw is None:
            continue
        try:
            updates[field_name] = int_token(raw)
        except ValueError as exc:
            raise ValueError(f"{var} must be an integer, {exc}") from None
    return replace(out, **updates) if updates else out


def int_token(tok: str) -> int:
    """Each integer of a spec, text or map file, ``LOOPNR_*`` value or cap
    flag: ASCII ``-?[0-9]+``, as in JSON (``int`` also takes ``1_0``, ``+2``,
    spaces, non-ASCII digits).  Else ValueError ``got '<tok>'``."""
    digits = tok[1:] if tok[:1] == "-" else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"got {tok!r}")
    return int(tok)


def int_flag(tok: str) -> int:
    """An integer flag's value, read by ``int_token``: an argparse ``type``,
    so argparse names the flag in its refusal."""
    try:
        return int_token(tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {tok!r}") from None


def int_tokens(text: str) -> list:
    """``int_token`` of each whitespace-separated token of ``text``; ``int``
    takes just ``-?[0-9]+`` on ASCII text without "_" or "+", and is faster."""
    if text.isascii() and "_" not in text and "+" not in text:
        try:
            return [int(tok) for tok in text.split()]
        except ValueError:
            pass
    return [int_token(tok) for tok in text.split()]


DEFAULT_BOUNDS = Bounds()
