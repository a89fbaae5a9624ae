"""Continuous evaluation engine for agentic-system traces.

Five scored dimensions over one flat record stream: cascade uncertainty,
tool reliability, output-distribution health, explanation validity, and
cross-surface consistency. Each produces a normalized score against a
configurable threshold; the report's gate verdict drives a CI exit code.
"""

from .consistency import HashEmbeddingProvider
from .evaluator import evaluate_stream
from .explanation import ProbeContext
from .model import EvalConfig, EvaluationError

__version__ = "0.1.0"

__all__ = [
    "EvalConfig",
    "EvaluationError",
    "HashEmbeddingProvider",
    "ProbeContext",
    "evaluate_stream",
]
