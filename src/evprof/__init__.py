"""Trace-driven evasion profiler.

Detects and mitigates anti-dynamic-analysis techniques over replayed
process-execution traces, and aggregates per-sample reports into
corpus-level statistics.
"""

__version__ = "0.1.0"
