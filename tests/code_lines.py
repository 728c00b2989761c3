"""Count the code lines of Python modules.

A line counts if it holds a token other than a comment, a newline, an
indentation change or a string that stands alone as a statement (a
docstring); a multi-line token holds every line it spans.  So blank lines,
comment lines and docstrings do not count, and a line of code with a
trailing comment counts once.

Run it on files or directories, which are read for ``*.py`` recursively:

    python3 tests/code_lines.py src/ktrees

It prints one line per module, ``<code lines>  <path>``, then the total.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code: layout, comments and the stream's own markers.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            # A logical line of strings alone is a docstring and counts nothing.
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif token.type not in _LAYOUT:
            statement.append(token)
    return len(lines)


def main(paths: list[str]) -> int:
    files = sorted(
        file
        for path in map(Path, paths)
        for file in (path.rglob("*.py") if path.is_dir() else [path])
    )
    total = 0
    for file in files:
        count = code_lines(file.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {file}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
