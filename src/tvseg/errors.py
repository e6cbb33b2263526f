"""Error types and the input rules that every module applies alike."""

from dataclasses import fields

import numpy as np


class NumericalError(RuntimeError):
    """Raised when a computation produces or receives non-finite values."""


class WorkerLostError(RuntimeError):
    """Raised when a worker process of the experiment dies before its job ends."""


def check_int(where: str, value) -> None:
    """Accept a JSON integer only: a float or true/false raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} must be an integer, got {value!r}")


def check_int_fields(cls, values: dict, section: str | None = None) -> None:
    """``check_int`` on each of ``values`` that fills an ``int`` field of the
    dataclass ``cls``, and on each entry of a ``tuple[int, ...]`` field.
    Messages name the field, as ``<section> config field <name>`` when a
    section is given."""
    for f in fields(cls):
        if f.name not in values:
            continue
        value = values[f.name]
        where = f.name if section is None else f"{section} config field {f.name}"
        if f.type is int:
            check_int(where, value)
        elif f.type == tuple[int, ...]:
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{where} must be a list of integers, got {value!r}")
            for item in value:
                check_int(f"each entry of {where}", item)


def check_finite(name: str, value, positive: bool = False) -> None:
    """Accept a finite number >= 0, or > 0 if ``positive``; else raise ValueError."""
    sign = "positive" if positive else "non-negative"
    if not np.isfinite(value) or value < 0 or (positive and value == 0):
        raise ValueError(f"{name} must be finite and {sign}")
