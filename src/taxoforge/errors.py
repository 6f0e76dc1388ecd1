"""Exception types shared across the pipeline.

All exceptions raised for bad inputs, bad configuration, or broken phase
artifacts derive from TaxoforgeError so the CLI can map them to exit code 1.
A rule raises the base class, naming its leaf by ``at``; a boundary that
reads a file raises the file's class, its message naming the file and path.
Content-level validation failures (a framework that fails its own checks) are
not exceptions; they are carried in the validation report and map to exit 2.
"""

from __future__ import annotations


class TaxoforgeError(Exception):
    """Base class for all input/config/artifact errors. ``at`` is the only
    location a refusal carries: the keys and indices of the leaf it refuses,
    outermost first; ``codec.located`` alone writes it as a path."""

    def __init__(self, message: str, *at: str | int) -> None:
        super().__init__(message)
        self.at = at


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
