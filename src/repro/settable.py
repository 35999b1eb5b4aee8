"""Boundary rules for settable numbers, below every package that checks one.

A dataclass declares each numeric field's kind in its annotation
(``slots: Count = 20``) and its ``__post_init__`` calls :func:`check`.
``typing.get_type_hints`` drops the kind unless asked for extras, so the
spec reader (:func:`repro.persist.spec_schema`) still decodes by type.
"""

import functools
import math
import operator
import typing
from typing import Annotated


def is_count(value) -> bool:
    """An integer of any kind and >= 1: a width, quota, capacity or token bound."""
    try:
        return operator.index(value) >= 1
    except TypeError:
        return False


def is_amount(value) -> bool:
    """An integer of any kind and >= 0: a number of tokens held or wanted."""
    try:
        return operator.index(value) >= 0
    except TypeError:
        return False


def is_positive_finite(value) -> bool:
    """A real number > 0 and < inf: a duration in seconds or a scale factor."""
    try:
        return 0 < value < math.inf
    except TypeError:
        return False


def is_non_negative_finite(value) -> bool:
    """A real number >= 0 and < inf: a time, a gap or a weight that 0 turns off."""
    try:
        return 0 <= value < math.inf
    except TypeError:
        return False


def is_fraction(value) -> bool:
    """A real number in [0, 1]: a probability or a share of capacity."""
    try:
        return 0 <= value <= 1
    except TypeError:
        return False


#: The kinds: the type the spec reader decodes, then (rule, its words).
Count = Annotated[int, (is_count, "an integer >= 1")]
Amount = Annotated[int, (is_amount, "an integer >= 0")]
Positive = Annotated[float, (is_positive_finite, "positive and finite")]
NonNegative = Annotated[float, (is_non_negative_finite, ">= 0 and finite")]
Fraction = Annotated[float, (is_fraction, "in [0, 1]")]


@functools.cache
def _kinds(cls) -> tuple:
    """(field, rule, words, admits None) for each field of ``cls`` with a kind."""
    kinds = []
    for name, hint in typing.get_type_hints(cls, include_extras=True).items():
        optional = type(None) in typing.get_args(hint)
        if optional:  # Optional[kind]: the kind is the first argument
            hint = typing.get_args(hint)[0]
        if typing.get_origin(hint) is Annotated:
            kinds.append((name, *hint.__metadata__[0], optional))
    return tuple(kinds)


def refuse(obj, name: str, words: str, error) -> typing.NoReturn:
    """Raise ``error``: ``obj``'s field ``name`` must be ``words``."""
    raise error(f"{type(obj).__name__}.{name} must be {words}, got {getattr(obj, name)!r}")


def check(obj, error) -> None:
    """:func:`refuse` the first field of the dataclass ``obj`` outside its
    kind (``None`` passes an ``Optional`` one); kinds resolve once per class."""
    for name, rule, words, optional in _kinds(type(obj)):
        value = getattr(obj, name)
        if not rule(value) and not (optional and value is None):
            refuse(obj, name, words, error)
