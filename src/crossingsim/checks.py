"""What counts as a number: every parameter class and count argument of
the package checks its numbers here, in library use and config documents
alike.

* a bool is not a number;
* an integer is any ``numbers.Integral`` and comes back as ``int``;
* a real is any ``numbers.Real``, must be finite, and comes back as
  ``float``;
* anything else (a str, None), or a number too large for a float, raises
  ``ValueError`` whose message starts with the name of the value.

The readers of ``model.json`` and ``report.json`` check their values here
too, with :func:`present` for a key and :func:`reals` for a nested list.
"""

from __future__ import annotations

import math
import numbers

__all__ = ["integer", "real", "fields", "present", "reals"]


def _finite(value: object, kind: type) -> float | None:
    """``value`` as a finite float; None for a bool, a non-``kind`` or a non-finite value."""
    if isinstance(value, bool) or not isinstance(value, kind):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


def integer(name: str, value: object, low: int | None = None) -> int:
    """``value`` as an ``int``, which must be at least ``low`` when given."""
    if _finite(value, numbers.Integral) is not None and (low is None or value >= low):
        return int(value)
    bound = "" if low is None else f" >= {low}"
    raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def real(name: str, value: object, low: float | None = None, strict: bool = False) -> float:
    """``value`` as a finite ``float``, above ``low`` (or at it unless ``strict``)."""
    number = _finite(value, numbers.Real)
    if number is not None and (low is None or (number > low if strict else number >= low)):
        return number
    bound = "" if low is None else f" {'>' if strict else '>='} {low}"
    raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")


def fields(obj: object, check, *names: str, **bounds: object) -> None:
    """Each named field of the frozen dataclass ``obj`` checked by ``check``
    (:func:`integer` or :func:`real`) with ``bounds``, and stored as it returns."""
    for name in names:
        object.__setattr__(obj, name, check(name, getattr(obj, name), **bounds))


def present(name: str, doc: dict, key: str) -> object:
    """``doc[key]``, which must be there; ``name`` names it in the error."""
    if key in doc:
        return doc[key]
    raise ValueError(f"{name} is missing")


def reals(name: str, value: object, shape: tuple[int, ...]) -> list:
    """Nested lists of finite reals in exactly ``shape``, as lists of floats.

    An entry or a list that does not fit is named by its path, such as
    ``means[1]`` for the second list of ``means``.
    """
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ValueError(f"{name} must be a list of {shape[0]} entries, got {value!r}")
    if len(shape) > 1:
        return [reals(f"{name}[{i}]", entry, shape[1:]) for i, entry in enumerate(value)]
    floats = [_finite(entry, numbers.Real) for entry in value]
    for i, number in enumerate(floats):
        if number is None:
            real(f"{name}[{i}]", value[i])  # raises, naming the entry by its path
    return floats
