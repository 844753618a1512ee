"""Argument types shared by the command-line entry points."""

from __future__ import annotations

import argparse
import math
from typing import Callable, TypeVar

Number = TypeVar("Number", int, float)


def positive(kind: Callable[[str], Number], name: str, *,
             zero: bool = False) -> Callable[[str], Number]:
    """An argparse ``type``: a finite number above 0, or at least 0 if
    ``zero``.  ``float`` accepts ``nan`` and ``inf``; this refuses them."""
    def parse(text: str) -> Number:
        value = kind(text)
        if not math.isfinite(value) or value < 0 or (value == 0 and not zero):
            raise argparse.ArgumentTypeError(
                f"{name} must be finite and {'>= 0' if zero else 'positive'}")
        return value
    return parse
