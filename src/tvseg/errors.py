"""Error types and the input rules that every module applies alike."""

import numpy as np


class NumericalError(RuntimeError):
    """Raised when a computation produces or receives non-finite values."""


def check_int(where: str, value) -> None:
    """Accept a JSON integer only: a float or true/false raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} must be an integer, got {value!r}")


def check_finite(name: str, value, positive: bool = False) -> None:
    """Accept a finite number >= 0, or > 0 if ``positive``; else raise ValueError."""
    sign = "positive" if positive else "non-negative"
    if not np.isfinite(value) or value < 0 or (positive and value == 0):
        raise ValueError(f"{name} must be finite and {sign}")
