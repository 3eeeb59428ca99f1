"""Count the code lines of each module of a package.

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/surrloss.  A code line is a physical line that
holds a token of code: blank lines, comment lines and the lines of
docstrings (the string that opens a module, class or function body) are
not counted, and a statement that spans several lines counts each line it
spans.  The report gives one line per module, then the total.  It uses the
standard library only (`ast` and `tokenize`).
"""

import argparse
import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree):
    """The line numbers of every docstring in the parsed module `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python `source` text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count(package):
    """{module file name: code lines} of every .py file directly in `package`."""
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                counts[name] = code_lines(f.read())
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default=os.path.join("src", "surrloss"))
    args = parser.parse_args(argv)
    counts = count(args.package)
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
