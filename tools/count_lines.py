"""Count the code lines of the Python files under each directory given.

A code line holds at least one token other than a comment or a line end
(tokenize), and is not part of the docstring of a module, class or
function (ast). So blank lines, comment-only lines and docstrings do not
count; a string or bracket spanning lines counts each line it spans.
Prints one line per directory, then the total:

    python tools/count_lines.py src tests
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = {line for token in tokens if token.type not in _NOT_CODE
             for line in range(token.start[0], token.end[0] + 1)}
    for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            lines -= set(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def main(directories: list[str]) -> int:
    total = 0
    for directory in directories:
        count = sum(code_lines(path) for path in sorted(Path(directory).rglob("*.py")))
        print(f"{directory}: {count}")
        total += count
    print(f"total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["src", "tests"]))
