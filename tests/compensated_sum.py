"""Builtin sum as CPython 3.12 and later compute it, on any interpreter.

From 3.12 on, sum() adds a run of floats with Neumaier's compensated
algorithm, so its last digits differ from an in-order sum's: the library
must not depend on which one an interpreter has.  Patch builtins.sum
with cpython312_sum to run the library under a 3.11 interpreter as a 3.12
one would add up its floats.  This module imports nothing from the
library, so a sitecustomize can install it before anything else loads.

The steps follow builtin_sum_impl in CPython's Python/bltinmodule.c: an
int start adds exact ints and bools while the total fits a C long; a float
total then adds exact floats with compensation and ints that fit a C long
without; the compensation is added once at the end, unless it is 0 or not
finite; anything else ends the fast paths, and the rest is added with +.
"""

import math

LONG_MIN, LONG_MAX = -(2**63), 2**63 - 1


def _fits_long(value):
    return LONG_MIN <= value <= LONG_MAX


def cpython312_sum(iterable, /, start=0):
    items = iter(iterable)
    result = start
    if type(result) is int and _fits_long(result):
        for item in items:
            result = result + item
            if not (type(item) in (int, bool) and _fits_long(item) and _fits_long(result)):
                break
    if type(result) is float:
        total, c = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    c += (total - t) + item
                else:
                    c += (item - t) + total
                total = t
            elif isinstance(item, int) and _fits_long(item):
                total += float(item)
            else:
                if c and math.isfinite(c):
                    total += c
                result = total + item
                break
        else:
            if c and math.isfinite(c):
                total += c
            return total
    for item in items:
        result = result + item
    return result
