"""repro.analysis — AST-based invariant linter (``repro-lint``).

Static checks for the invariants the reproduction's correctness claims
rest on, none of which a generic linter knows about:

* **determinism** — all randomness through seeded, threaded
  :class:`numpy.random.Generator` objects; no stdlib ``random``, no
  legacy ``np.random.*`` global state, no wall-clock reads
  (``REPRO101``–``REPRO103``);
* **privacy provenance** — every Laplace/Gaussian/exponential noise
  draw originates in :mod:`repro.privacy`, keeping Theorem 4's epsilon
  accounting sound (``REPRO201``);
* **numerical safety** — no exact float ``==``, no mutable default
  arguments, no bare ``except`` (``REPRO301``–``REPRO303``);
* **API hygiene** — ``__all__`` consistent with module definitions
  (``REPRO501``).

Run as ``repro-lint src`` or ``python -m repro.analysis src``; see
``docs/static_analysis.md`` for the pragma and baseline workflow.
"""

from .baseline import DEFAULT_BASELINE_NAME, load_baseline, partition_findings, write_baseline
from .cli import main
from .engine import LintError, lint_file, lint_paths, parse_pragmas, select_rules
from .findings import Finding
from .reporters import render_json, render_text
from .rules import FileContext, Rule, all_rules, register, resolve_rule

__all__ = [
    "DEFAULT_BASELINE_NAME",
    "FileContext",
    "Finding",
    "LintError",
    "Rule",
    "all_rules",
    "lint_file",
    "lint_paths",
    "load_baseline",
    "main",
    "parse_pragmas",
    "partition_findings",
    "register",
    "render_json",
    "render_text",
    "resolve_rule",
    "select_rules",
    "write_baseline",
]
