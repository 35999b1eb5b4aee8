"""Boundary rules for settable numbers, below every package that checks one."""

import operator


def is_count(value) -> bool:
    """An integer of any kind and >= 1: a width, quota, capacity or token bound."""
    try:
        return operator.index(value) >= 1
    except TypeError:
        return False
