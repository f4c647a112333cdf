"""Count the lines of the pixelsim package.

    python3 tools/loc.py

Run it from anywhere in a source checkout.  It reads every ``.py`` file
under ``src/pixelsim`` and prints two numbers as one JSON object:

* ``lines``: every line of those files;
* ``code_lines``: the lines that hold code, found with ``tokenize``.  A
  line holding only blanks, a comment, or part of a docstring does not
  count.  A docstring is any statement that is a string and nothing else.
"""

from __future__ import annotations

import json
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pixelsim"
# Tokens that carry no code of their own.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> set[int]:
    """The numbers of the lines of ``path`` that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type in LAYOUT:
                continue
            if token.type != tokenize.NEWLINE:
                statement.append(token)
                continue
            if [t.type for t in statement] != [tokenize.STRING]:  # else a docstring
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return lines


def main() -> None:
    files = sorted(PACKAGE.rglob("*.py"))
    print(json.dumps({
        "lines": sum(len(path.read_bytes().splitlines()) for path in files),
        "code_lines": sum(len(code_lines(path)) for path in files),
    }))


if __name__ == "__main__":
    main()
