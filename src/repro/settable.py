"""Boundary rules for settable numbers, below every package that checks one."""

import math
import operator


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
