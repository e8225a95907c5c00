"""Count the code lines of the ``deuce`` package.

A code line is a physical line that holds at least one token other than a
comment, a docstring or a line break, so blank lines, comment lines and
docstrings do not count and a statement split over several lines counts
each line it spans.  Prints one line per module and the total, plus the
physical line count.  Standard library only; it prints and never fails a
build.  Run it from the repository root; it counts ``src/deuce`` there.

    python3 tools/src_lines.py
"""

from __future__ import annotations

import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Number of lines of ``path`` that carry code (see the module docstring)."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = set()
    statement_start = True
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.ENCODING or tok.type in _SKIP:
            statement_start = statement_start or tok.type in (
                tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
            continue
        # a string that is a whole statement is a docstring
        if (tok.type == tokenize.STRING and statement_start
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            statement_start = False
            continue
        statement_start = False
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    root = Path("src/deuce")
    total = physical = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        physical += len(path.read_text().splitlines())
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  code lines in {root} ({physical} physical)")


if __name__ == "__main__":
    main()
