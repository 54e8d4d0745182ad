"""Developer tooling (behaviour guard, reports, lint) — not shipped
with the :mod:`repro` package.  Run with ``PYTHONPATH=src`` from the repo
root, e.g. ``python -m tools.perf_report --guard``."""
