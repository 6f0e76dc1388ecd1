"""Exception types shared across the pipeline.

All exceptions raised for bad inputs, bad configuration, or broken phase
artifacts derive from TaxoforgeError so the CLI can map them to exit code 1.
Content-level validation failures (a framework that fails its own checks) are
not exceptions; they are carried in the validation report and map to exit 2.
"""

from __future__ import annotations


class TaxoforgeError(Exception):
    """Base class for all input/config/artifact errors."""


class CorpusError(TaxoforgeError):
    """Raised for unreadable or malformed dataset files."""


class RuleSetError(TaxoforgeError):
    """Raised for normalization rule files that violate their invariants."""


class LexiconError(TaxoforgeError):
    """Raised for malformed semantic-field lexicon files."""


class KnowledgeBaseError(TaxoforgeError):
    """Raised for malformed or inconsistent knowledge-base files."""


class ArtifactError(TaxoforgeError):
    """Raised for missing, unreadable, or stale phase artifacts."""


class ConfigError(TaxoforgeError):
    """Raised for invalid pipeline configuration."""


def is_unit_number(value: object) -> bool:
    """Whether ``value`` is an int or float in [0, 1]; a boolean is not."""
    return type(value) in (int, float) and 0.0 <= value <= 1.0
