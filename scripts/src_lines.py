"""Print each module's line count and its lines outside docstrings.

A docstring is the first statement of a module, class or function when
that statement is a string expression; its lines, from the opening quote
to the closing one, are the docstring lines.  Usage::

    python scripts/src_lines.py [DIR]

prints ``lines  code  path`` for every ``.py`` file under DIR (default:
``src``), then the totals.  ``code`` counts the lines outside docstrings.
"""
import argparse
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.AST) -> int:
    """The number of lines taken by the docstrings of ``tree``."""
    total = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                total += first.end_lineno - first.lineno + 1
    return total


def count(path: pathlib.Path):
    """(lines, lines outside docstrings) of one source file."""
    text = path.read_text()
    lines = len(text.splitlines())
    return lines, lines - docstring_lines(ast.parse(text))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default=str(ROOT / "src"))
    args = parser.parse_args(argv)
    base = pathlib.Path(args.dir)
    total = [0, 0]
    for path in sorted(base.rglob("*.py")):
        lines, code = count(path)
        total[0] += lines
        total[1] += code
        print(f"{lines:6d} {code:6d}  {path.relative_to(base)}")
    print(f"{total[0]:6d} {total[1]:6d}  total")


if __name__ == "__main__":
    main()
