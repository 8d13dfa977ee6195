"""Package hygiene: exported names resolve, no module imports a name it
never uses, every policy search goes through one batch front, the input
rules live in ``model`` and cover every scalar entry point, the Monte
Carlo calls no BLAS product, and the property tests draw no literals from
the library."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest
from hypothesis.internal.conjecture import providers

import sensefuse

PACKAGE_DIR = Path(sensefuse.__file__).parent
MODULES = sorted(info.name for info in pkgutil.iter_modules([str(PACKAGE_DIR)]))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(f"sensefuse.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"sensefuse.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                assert getattr(sensefuse, alias.asname or alias.name) is getattr(
                    module, alias.name)


def _unused_imports(source: str) -> list[str]:
    """Imported names never read.  ``import a.b`` counts as used when some
    attribute chain starts with ``a.b``."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            chain.append(node.id)
            chain.reverse()
            used.update(".".join(chain[:i]) for i in range(1, len(chain) + 1))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    source = (PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8")
    assert _unused_imports(source) == []


def test_validate_is_called_only_in_model():
    # models check themselves when they are made, so no other module
    # re-checks one it is given
    callers = set()
    for name in MODULES:
        tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == "validate":
                    callers.add(name)
    assert callers == {"model"}


def test_every_search_goes_through_one_front():
    # optimize._search_by_size alone stacks link terms and builds results,
    # and each per-instance search is a batch of one
    tree = ast.parse((PACKAGE_DIR / "optimize.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    callers = {name for name, func in functions.items() for node in ast.walk(func)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id in ("_refreshed_result", "_link_terms_of")}
    assert callers == {"_search_by_size"}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "link_terms" not in imported
    for name, batch in (("global_search", "global_search_batch"),
                        ("pure_greedy", "group_greedy_batch"),
                        ("group_greedy", "group_greedy_batch"),
                        ("sorted_greedy", "sorted_greedy_batch")):
        body = functions[name].body
        [stmt] = body[1:] if ast.get_docstring(functions[name]) else body
        assert re.fullmatch(rf"return {batch}\(\[model\](, [^()]*)?\)\[0\]",
                            ast.unparse(stmt)), name


def _last_axis_sums(tree) -> set[str]:
    """Names of the innermost functions holding a ``sum`` or ``reduce`` call
    with a literal -1 among its arguments (``x.sum(axis=-1)``,
    ``np.sum(x, -1)``, ``np.add.reduce(x, axis=-1)``)."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("sum", "reduce")
                and any(ast.unparse(arg) == "-1"
                        for arg in [*node.args, *(kw.value for kw in node.keywords)])):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_analytic_and_simulate_reduce_no_last_axis():
    # the Monte Carlo blocks and the closed forms hold the nodes on the
    # first axis and sum them with sum(axis=0); a reduction over the last
    # axis would be a per-row loop or a sum in another order
    found = {f"{name}.{where}" for name in ("analytic", "simulate")
             for where in _last_axis_sums(
                 ast.parse((PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8")))}
    assert found == set()


_BLAS_PRODUCTS = {"dot", "vdot", "matmul", "einsum", "inner", "tensordot"}


def test_the_monte_carlo_calls_no_blas_product():
    # a BLAS product rounds in the order of the host's kernel; the trial
    # fusion x.w is a sum over the node rows instead
    tree = ast.parse((PACKAGE_DIR / "simulate.py").read_text(encoding="utf-8"))
    found = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
             or isinstance(node, ast.Call) and (getattr(node.func, "attr", None)
                                                or getattr(node.func, "id", None)) in _BLAS_PRODUCTS]
    assert found == []


# parameter names of the counts, SNRs, powers and fading means a scalar
# entry point takes
_SCALAR_PARAMETER = re.compile(r"n_nodes|gamma_\w+|sigma_\w+|nu|n_trials|n_blocks")


def test_every_scalar_entry_point_is_in_the_guard_table():
    from test_input_guards import GUARDED

    table = {fn: set(names) for fn, _, names in GUARDED}
    unguarded = []
    for name in ("analytic", "simulate"):
        module = importlib.import_module(f"sensefuse.{name}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn):
                params = {p for p in inspect.signature(fn).parameters
                          if _SCALAR_PARAMETER.fullmatch(p)}
                missing = sorted(params - table.get(fn, set()))
                unguarded += [f"{name}.{attr}({p})" for p in missing]
    assert unguarded == []


def _fails_below_a_literal(test, negated=False) -> bool:
    """Whether an ``if`` test holds for a value below a number literal:
    ``x < 1``, ``x <= 0``, ``not x > 0``, ``not 1 <= x``."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _fails_below_a_literal(test.operand, not negated)
    if isinstance(test, ast.BoolOp):
        return any(_fails_below_a_literal(value, negated) for value in test.values)
    if not isinstance(test, ast.Compare):
        return False
    operands = [test.left, *test.comparators]
    flipped = {ast.Lt: ast.Gt, ast.LtE: ast.GtE, ast.Gt: ast.Lt, ast.GtE: ast.LtE}
    for left, op, right in zip(operands, test.ops, operands[1:]):
        if _is_number(left) == _is_number(right):
            continue  # no literal bound, or two literals
        # as ``value op literal``
        op = type(op) if _is_number(right) else flipped.get(type(op))
        if op in ((ast.Gt, ast.GtE) if negated else (ast.Lt, ast.LtE)):
            return True
    return False


def _is_number(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def _raises_validation_error(body) -> bool:
    return any(isinstance(stmt, ast.Raise) and isinstance(stmt.exc, ast.Call)
               and getattr(stmt.exc.func, "id", None) == "ValidationError" for stmt in body)


def test_counts_and_snrs_are_checked_only_by_the_model_guards():
    # model._require_count and model._require_all_positive_finite hold the
    # count and positive-finite rules; no other module writes them again
    by_hand = set()
    for name in MODULES:
        if name == "model":
            continue
        tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if (isinstance(node, ast.If) and _raises_validation_error(node.body)
                            and _fails_below_a_literal(node.test)):
                        by_hand.add(f"{name}.{func.name}")
    # E_n(x) is defined at x = inf, which the positive-finite rule rejects,
    # and its order must be a Python integer
    assert by_hand == {"analytic.exp_integral_en"}


def test_property_examples_do_not_draw_library_literals():
    # tests/conftest.py switches off hypothesis's harvest of literals from
    # imported modules, so the tier-1 examples stay put when a literal in
    # sensefuse changes
    get_constants = getattr(providers, "_get_local_constants", None)
    assert get_constants is None or len(get_constants()) == 0
