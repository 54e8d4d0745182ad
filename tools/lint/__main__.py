"""CLI: ``python -m tools.lint [ROOT ...]`` (default: ``src/repro``).

Runs every rule, per-file and whole-program, and exits 1 on any finding.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from tools.lint.engine import run


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint",
        description="AST-based determinism & protocol-safety lint for src/repro",
    )
    parser.add_argument(
        "roots",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    args = parser.parse_args(argv)
    code, report = run(args.roots)
    print(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
