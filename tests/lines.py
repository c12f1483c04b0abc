"""Line counts of the modules under ``src/urbanprop/``: raw lines, and code
lines, which leave out blank lines, comment lines and docstring lines, so
that deleting comments does not read as a simpler program.

    python3 tests/lines.py [CHECKOUT]
    python3 tests/lines.py CHECKOUT_BEFORE CHECKOUT_AFTER

With one checkout (default: this one) it prints each module's raw and code
lines and their totals; with two, both counts on each side and the
differences, after minus before.  Like ``identity.py``, pytest does not
collect this file.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path("src") / "urbanprop"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def counts(source):
    """``(raw, code)`` lines of one module's source text."""
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            code.difference_update(range(body[0].lineno, body[0].end_lineno + 1))
    return len(source.splitlines()), len(code)


def checkout_counts(root):
    """``{module name: (raw, code)}`` of a checkout's package."""
    return {p.name: counts(p.read_text(encoding="utf-8"))
            for p in sorted((Path(root) / PACKAGE).glob("*.py"))}


def main(argv=None):
    roots = (sys.argv[1:] if argv is None else argv) or ["."]
    if len(roots) > 2:
        sys.exit(__doc__)
    tables = [checkout_counts(r) for r in roots]
    for i, root in enumerate(roots):
        print(f"{i}: {root}")
    print(f"{'module':14}" + "".join(f"{f'raw {i}':>9}{f'code {i}':>9}"
                                     for i in range(len(roots)))
          + ("     raw diff    code diff" if len(roots) == 2 else ""))
    for name in sorted(set().union(*tables)) + ["total"]:
        cells = [tuple(map(sum, zip(*t.values()))) if name == "total"
                 else t.get(name, (0, 0)) for t in tables]
        diff = ("".join(f"{cells[1][k] - cells[0][k]:+13d}" for k in (0, 1))
                if len(roots) == 2 else "")
        print(f"{name:14}" + "".join(f"{x:9d}" for c in cells for x in c) + diff)


if __name__ == "__main__":
    main()
