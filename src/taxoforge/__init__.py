"""taxoforge: hierarchical quality-factor framework builder for public spaces.

Transforms per-typology factor datasets into a validated three-tier
assessment framework: factor integration with occurrence tracking, pairwise
similarity analysis, distribution-based classification, knowledge-guided
clustering, tiered placement of cross-cutting factors, applicability
indicators, and framework export with flow-diagram data.
"""

__version__ = "0.2.0"
