"""The package's one rule for adding Python floats, and the test helper
that stands in for a CPython 3.12 builtin sum.

add_up adds in order from 0.0 on every interpreter.  cpython312_sum
(tests/compensated_sum.py) reproduces builtin sum as CPython 3.12 and
later compute it, Neumaier-compensated, so that a 3.11 interpreter can
check that no output depends on which sum the interpreter has.  It is
checked here against a real 3.12 or later interpreter when one can be
started: this one, or a python3.13 or python3.12 on PATH.
"""

import json
import random
import shutil
import subprocess
import sys

import pytest

from twqp.retrieval import add_up

from compensated_sum import cpython312_sum

SPECIALS = [float("inf"), float("-inf"), float("nan"), -0.0, 0.0, 1e308, -1e308, 5e-324]
INTS = [0, 1, -1, True, 2**53 + 1, -(2**60), 2**63 - 1, 2**63, 2**64]


def random_lists(seed, count):
    """Lists of 0 to 12 numbers, most of them floats of mixed sign and
    magnitude (so that compensation matters), some ints and some specials."""
    rng = random.Random(seed)
    lists = []
    for _ in range(count):
        values = []
        for _ in range(rng.randint(0, 12)):
            r = rng.random()
            if r < 0.03:
                values.append(rng.choice(SPECIALS))
            elif r < 0.1:
                values.append(rng.choice(INTS + [rng.randint(-10**6, 10**6)]))
            elif r < 0.4:
                values.append(rng.choice([-1.0, 1.0]) * 10.0 ** rng.randint(-3, 17))
            else:
                values.append(rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20))
        lists.append(values)
    return lists


def _encode(value):
    return ["f", value.hex()] if type(value) is float else ["i", int(value), type(value) is bool]


def _decode(cell):
    return float.fromhex(cell[1]) if cell[0] == "f" else (bool(cell[1]) if cell[2] else cell[1])


def _result(value):
    return value.hex() if type(value) is float else repr(value)


# Run by the other interpreter: sums each encoded list with its builtin sum.
CHILD = """
import json, sys
def decode(cell):
    return float.fromhex(cell[1]) if cell[0] == "f" else (bool(cell[1]) if cell[2] else cell[1])
def result(value):
    return value.hex() if type(value) is float else repr(value)
print(json.dumps([result(sum(map(decode, cells))) for cells in json.load(sys.stdin)]))
"""


def _compensating_python():
    """A command that starts an interpreter whose builtin sum compensates,
    or None."""
    if sys.version_info >= (3, 12):
        return [sys.executable]
    for name in ("python3.13", "python3.12"):
        exe = shutil.which(name)
        check = [exe, "-c", "import sys; sys.exit(sys.version_info < (3, 12))"] if exe else None
        if check and subprocess.run(check, capture_output=True).returncode == 0:
            return [exe]
    return None


def test_the_helper_equals_a_compensating_builtin_sum():
    command = _compensating_python()
    if command is None:
        pytest.skip("no CPython 3.12 or later to compare with")
    lists = random_lists(7, 20000)
    cells = json.dumps([[_encode(v) for v in values] for values in lists])
    child = subprocess.run(
        command + ["-c", CHILD], input=cells, capture_output=True, text=True, check=True
    )
    expected = json.loads(child.stdout)
    got = [_result(cpython312_sum(map(_decode, c))) for c in json.loads(cells)]
    mismatches = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
    assert len(got) == len(expected) and mismatches == []


def test_the_helper_compensates_where_an_in_order_sum_does_not():
    assert cpython312_sum([0.1] * 10) == 1.0
    assert cpython312_sum([1e16, 1.0, -1e16]) == 1.0
    assert add_up([0.1] * 10) == 0.9999999999999999
    assert add_up([1e16, 1.0, -1e16]) == 0.0


def test_the_helper_keeps_sum_s_other_paths():
    assert cpython312_sum([]) == 0 and type(cpython312_sum([])) is int
    assert cpython312_sum([2**64, 1, 0.5]) == 2**64 + 1.5
    assert cpython312_sum([[1], [2]], []) == [1, 2]
    assert cpython312_sum([-0.0]) == 0.0
    assert str(cpython312_sum([-0.0], -0.0)) == "-0.0"
    assert cpython312_sum([float("inf"), 1.0]) == float("inf")


def test_add_up_adds_in_order_from_zero():
    rng = random.Random(3)
    for _ in range(500):
        values = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20) for _ in range(rng.randint(0, 9))]
        acc = 0.0
        for v in values:
            acc += v
        assert add_up(values).hex() == acc.hex()
        assert add_up(iter(values)).hex() == acc.hex()
    assert type(add_up([])) is float and str(add_up([-0.0])) == "0.0"
