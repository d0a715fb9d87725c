"""No public function or method of the package has an option that no
caller sets: each optional parameter is set by some call in the package,
the benchmark or the acceptance tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kvsim"
CALLERS = (sorted(PACKAGE.glob("*.py"))
           + sorted((ROOT / "kvbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])


def _public(name):
    return not name.startswith("_") or name == "__init__"


def _options(path):
    """(name called, parameter, positional index or None) of each optional
    parameter of the module's public functions and of the public methods
    of its public classes; a constructor is called by its class's name,
    and a method's index does not count ``self``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [(node.name, node, 0) for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and _public(cls.name):
            functions += [
                (cls.name if node.name == "__init__" else node.name, node, 1)
                for node in cls.body if isinstance(node, ast.FunctionDef)
                and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in node.decorator_list)]
    for called, node, skip in functions:
        if not _public(node.name):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for k, arg in enumerate(positional[first:], first):
            yield called, arg.arg, k - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield called, arg.arg, None


def _calls():
    """Every call in ``CALLERS``: the name called (a function's or an
    attribute's), the keywords it passes, the number of positional
    arguments before any ``*args``, and whether it passes ``*args`` and
    ``**kwargs``."""
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            starred = [isinstance(a, ast.Starred) for a in node.args]
            yield (name, {k.arg for k in node.keywords},
                   starred.index(True) if any(starred) else len(node.args),
                   any(starred), any(k.arg is None for k in node.keywords))


def _sets(call, parameter, index):
    _, keywords, n_positional, star_args, star_kwargs = call
    return (parameter in keywords or star_kwargs
            or index is not None and (n_positional > index or star_args))


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_every_option_is_set_by_a_caller(path):
    """Each optional parameter is set, by keyword, by position or through
    ``*args``/``**kwargs``, by some call of its name in ``CALLERS``."""
    calls = list(_calls())
    unset = [f"{called}({parameter})"
             for called, parameter, index in _options(path)
             if not any(call[0] == called and _sets(call, parameter, index)
                        for call in calls)]
    assert not unset, f"{path.name} has options no caller sets: {unset}"
