"""Budget of settable values in the package source.

Keyword knobs that no caller sets were retired into module constants; these
tests keep them from coming back unnoticed.  A new default that is really
needed raises the budget in the same change, where a reviewer sees it.
"""

import ast
import pathlib

import torusflow

# defaulted parameters over every def: positional defaults plus keyword-only
# defaults other than None
DEFAULTED_PARAMETER_BUDGET = 29


def _defs():
    root = pathlib.Path(torusflow.__file__).parent
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.name}:{node.name}", node.args


def test_defaulted_parameters_within_budget():
    counts = {name: len(args.defaults)
              + sum(d is not None for d in args.kw_defaults)
              for name, args in _defs()}
    total = sum(counts.values())
    assert total <= DEFAULTED_PARAMETER_BUDGET, sorted(
        (n, c) for n, c in counts.items() if c)


def test_no_keyword_catch_alls():
    assert [name for name, args in _defs() if args.kwarg is not None] == []
