"""Budgets of settable values and of lines in the package source.

Keyword knobs that no caller sets were retired into module constants; these
tests keep them from coming back unnoticed.  A new default that is really
needed raises the budget in the same change, where a reviewer sees it, and
so does a change that makes the source longer.
"""

import ast
import pathlib

import torusflow

# defaulted parameters over every def: positional defaults plus keyword-only
# defaults other than None
DEFAULTED_PARAMETER_BUDGET = 25
# lines of src/torusflow/*.py, counted as `cat src/torusflow/*.py | wc -l` counts
SOURCE_LINE_BUDGET = 3899


def _sources():
    return sorted(pathlib.Path(torusflow.__file__).parent.glob("*.py"))


def _defs():
    for path in _sources():
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


def test_source_lines_within_budget():
    # wc -l counts newline bytes, so a file without a final newline loses a line
    lines = {path.name: path.read_bytes().count(b"\n") for path in _sources()}
    assert sum(lines.values()) <= SOURCE_LINE_BUDGET, lines
