"""Every module-level import in the library is used in its module, and no
library module imports a private name from a sibling.

Deleting a function can leave behind the imports only it needed.  No
linter is required: this walks each module's syntax tree with ast.  The
package's __init__ is skipped by the unused-import check, since its
imports are its exports.  An underscore name is private to its module: a
sibling that needs it should get a public name or the value it stands for.
The predictor module binds no retrieval function, so every weighting
retrieval goes through the one name that a count patches.  The re-ranking
module binds no name from the weighting module: a re-rank takes plain
term -> weight maps, whichever weighter or model made them.

No library module calls a reduction that may add in another order than
one row at a time: np.dot and its kin, the @ operator and np.sum may sum
pairwise or blocked, and floating-point addition is not associative.
Every float sum whose bits matter adds one row or value at a time:
retrieval.weighted_sum, relevance.rm3_table's per-document update, and
the sequential np.cumsum of evaluation.average_precisions; or it is
population_std's np.add.reduce (which matches np.std).  Counts use
np.count_nonzero.  Two .sum() calls are allowed, by their text: the
index's integer token total and the synthetic generator's normaliser,
which fixes make_synthetic's output.  Nor does any library module call
builtin sum: from CPython 3.12 on it compensates, so its last digits
depend on the interpreter; a sum of Python floats goes through
retrieval.add_up, which adds in order on every interpreter.

Nor does any library module call numpy's log or exp functions: their SIMD
loops differ from the C library's in the last ulp on some inputs, and
every log and exp must be math.log's or math.exp's float (the kernel takes
its logs with scipy.special.xlogy, which calls the C library's log).

No library name lives only for the tests: every top-level function and
class of a library module, and each of its classes' non-dunder methods,
is named in a library module other than __init__, in a demo, or in the
benchmark harness, whose string constants count too, since its tracer
reaches its targets by name.  A name only tests call is a wrapper to
delete; the tests then call what it wrapped.
"""

import ast
from pathlib import Path

import pytest

import twqp.qpp
import twqp.rerank
import twqp.weighting

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "twqp"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _imports(body):
    """(bound name, line) of each import in body and in the if/try blocks
    under it, such as `if TYPE_CHECKING:`; __future__ imports bind nothing."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            blocks = [node.body, node.orelse, getattr(node, "finalbody", [])]
            blocks += [h.body for h in getattr(node, "handlers", [])]
            for block in blocks:
                yield from _imports(block)


def _annotations(tree):
    """Every annotation node: of arguments, returns and annotated names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    """Names the module reads, including those inside string annotations."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used_names(ast.parse(node.value, mode="eval"))
    return names


def unused_imports(source):
    """'name (line n)' for each module-level import never read."""
    tree = ast.parse(source)
    used = _used_names(tree)
    return [f"{name} (line {line})" for name, line in _imports(tree.body) if name not in used]


def private_imports(source):
    """'name from module (line n)' for each underscore name imported from a
    sibling module with a relative import, at any depth of the module."""
    return [
        f"{alias.name} from {'.' * node.level}{node.module or ''} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]


REORDERING = {"dot", "matmul", "einsum", "inner", "tensordot", "vdot", "sum"}
ALLOWED_SUMS = {("index.py", "self.lengths.sum()"), ("synthetic.py", "zipf.sum()")}


def reordering_reductions(source, module):
    """'what (line n)' for each reduction in source that may reorder or
    compensate its additions, other than the allowed .sum() calls of module
    (a file name) and np.add.reduce inside population_std."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "population_std"
        for node in ast.walk(fn)
    }
    numpy_names = ("np", "numpy")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in numpy_names and node.attr in REORDERING:
                found.append((node.lineno, f"np.{node.attr}"))
        elif isinstance(node, ast.Attribute) and node.attr == "reduce":
            if getattr(node.value, "attr", None) == "add" and id(node) not in allowed:
                found.append((node.lineno, "add.reduce"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum":
            found.append((node.lineno, "sum("))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if getattr(node.func.value, "id", None) in numpy_names:
                continue  # np.<name>(...) is judged by its attribute above
            method = node.func.attr
            if method == "dot" or (
                method == "sum" and (module, ast.unparse(node)) not in ALLOWED_SUMS
            ):
                found.append((node.lineno, f".{method}("))
    return [f"{what} (line {line})" for line, what in sorted(found)]


NOT_LIBM = {"log", "log2", "log10", "log1p", "exp", "exp2", "expm1"}


def numpy_logs_and_exps(source):
    """'np.name (line n)' for each numpy log or exp function in source, in
    source order."""
    found = sorted(
        (node.lineno, node.col_offset, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and getattr(node.value, "id", None) in ("np", "numpy")
        and node.attr in NOT_LIBM
    )
    return [f"np.{name} (line {line})" for line, _, name in found]


def definitions(source):
    """Each top-level function and class of source, and each non-dunder
    method of its classes as 'Class.method'."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}"


def names_in(source, strings=False):
    """Every name source reads, imports or takes as an attribute; with
    strings, also each dot-separated part of its string constants."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(node.value.split("."))
    return found


def names_no_caller_reaches(library, users, harness):
    """'module.name' for each definition of the library modules (file name
    -> source) that no library module, user source or harness source
    names; the harness's string constants count."""
    named = set().union(*(names_in(source) for source in [*library.values(), *users]))
    named = named.union(*(names_in(source, strings=True) for source in harness))
    return [
        f"{Path(module).stem}.{name}"
        for module, source in library.items()
        for name in definitions(source)
        if name.split(".")[-1] not in named
    ]


def test_the_check_finds_a_name_only_tests_call():
    library = (
        "def used():\n    pass\n"
        "def traced():\n    return used()\n"
        "class K:\n    def __eq__(self, other): ...\n    def m(self): ...\n"
        "    @property\n    def n(self): ...\n"
        "def unused():\n    return 'K.m unused: a library string names nothing'\n"
    )
    users = ["from lib import K\nK().n\n"]
    harness = ['SPANS = (("lib.traced", "lib", "traced"),)\n']
    assert names_no_caller_reaches({"lib.py": library}, users, harness) == [
        "lib.K.m", "lib.unused"
    ]


def test_no_library_name_lives_only_for_tests():
    library = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    users = [p.read_text(encoding="utf-8") for p in DEMOS]
    harness = [p.read_text(encoding="utf-8") for p in PERFBENCH]
    assert DEMOS and PERFBENCH
    assert names_no_caller_reaches(library, users, harness) == []


def test_the_check_finds_an_unused_import():
    source = (
        "import math\nimport os.path\nfrom typing import TYPE_CHECKING, Sequence, TextIO\n"
        "if TYPE_CHECKING:\n    from .config import Config, Index\n"
        "def f(x: 'Config') -> Sequence[int]:\n    return math.floor(x)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "TextIO (line 3)", "Index (line 5)"]


def test_the_check_finds_a_private_import():
    source = (
        "from ._x import y\nfrom .a import _b, c\nfrom numpy import _core\n"
        "def f():\n    from . import _d\n    from .e.f import _g as g\n"
    )
    assert private_imports(source) == [
        "_b from .a (line 2)", "_d from . (line 5)", "_g from .e.f (line 6)"
    ]


def test_the_check_finds_a_reordering_reduction():
    source = (
        "import numpy as np\n"
        "a = np.dot(x, y) + np.einsum('i,i', x, y)\n"
        "b = x @ y\nb @= y\n"
        "c = x.dot(y) + x.sum() + np.sum(x)\n"
        "d = zipf.sum() + np.count_nonzero(x) + sum(x)\n"
        "e = np.add.reduce(x)\n"
        "def population_std(x):\n    return np.add.reduce(x)\n"
    )
    assert reordering_reductions(source, "synthetic.py") == [
        "np.dot (line 2)", "np.einsum (line 2)", "@ (line 3)", "@ (line 4)",
        ".dot( (line 5)", ".sum( (line 5)", "np.sum (line 5)", "sum( (line 6)",
        "add.reduce (line 7)",
    ]
    assert ".sum( (line 6)" in reordering_reductions(source, "index.py")


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.stem)
def test_no_reduction_that_may_reorder_its_sum(path):
    assert reordering_reductions(path.read_text(encoding="utf-8"), path.name) == []


def test_the_check_finds_a_numpy_log_or_exp():
    source = (
        "import math\nimport numpy as np\nfrom scipy.special import xlogy\n"
        "a = np.log(x) + np.log2(x) + numpy.log10(x)\n"
        "b = np.log1p(x) * np.exp(x) - np.exp2(x) / np.expm1(x)\n"
        "c = math.log(v) + math.exp(v) + xlogy(1.0, x) + np.logaddexp(x, y)\n"
        "f = np.log\n"
    )
    assert numpy_logs_and_exps(source) == [
        "np.log (line 4)", "np.log2 (line 4)", "np.log10 (line 4)",
        "np.log1p (line 5)", "np.exp (line 5)", "np.exp2 (line 5)", "np.expm1 (line 5)",
        "np.log (line 7)",
    ]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.stem)
def test_no_numpy_log_or_exp(path):
    assert numpy_logs_and_exps(path.read_text(encoding="utf-8")) == []


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.stem)
def test_no_private_name_imported_from_a_sibling(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_predictors_bind_no_retrieval():
    assert "retrieve_topk" not in vars(twqp.qpp), (
        "twqp.qpp binds retrieve_topk: every weighting retrieval must go through "
        "twqp.weighting.retrieve_topk, the one name the retrieval-budget tests patch, "
        "or the retrievals made under the other name go uncounted"
    )


def test_rerank_binds_no_weighting_name():
    taken = sorted(
        name
        for name, value in vars(twqp.rerank).items()
        if value is twqp.weighting or getattr(value, "__module__", None) == "twqp.weighting"
    )
    assert taken == [], (
        f"twqp.rerank binds {taken} from twqp.weighting: a re-rank takes plain "
        "term -> weight maps and needs nothing of the weighting layer"
    )
