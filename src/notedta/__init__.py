"""Diagnostic test accuracy of free-text clinical notes.

Classifies pathology-request notes into a 46-category taxonomy with
statement/query polarity, compares them against serological gold
standards, and computes the full accuracy panel (Sn, Sp, PPV, NPV,
LR+, LR-) with confidence intervals.

Each public name is imported from the submodule that defines it, e.g.
``from notedta.classifier import classify_note``; ``import notedta``
imports no submodule.
"""

__version__ = "0.1.0"
