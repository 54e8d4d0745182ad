"""repro-lint: AST-based determinism & protocol-safety analysis.

Usage::

    PYTHONPATH=src python -m tools.lint

One mode: the per-file rules (:mod:`tools.lint.rules`) and the
whole-program passes (:mod:`tools.lint.flow`) always run, and any
finding fails.  See docs/devtools.md for the rule catalogue and the
measurement each rule was kept on.
"""

from tools.lint.engine import lint_source, run
from tools.lint.rules import ALL_RULES, Finding

__all__ = ["ALL_RULES", "Finding", "lint_source", "run"]
