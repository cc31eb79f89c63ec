"""Experiment harness: the paper's figures as one table, and the soaks.

:mod:`repro.harness.figures` holds one :class:`FigureSpec` per figure of
the paper's evaluation (and per study beyond it): its runner, its quick
and full parameters, and the named claims its rows must satisfy.  The
soak modules (``chaos``, ``scale``, ``overload``, ``gossip``,
``stripes``, ``scrub``) are seeded, gated runs over
:mod:`repro.harness.soak`.  ``python -m repro.harness`` runs either.
"""

from repro.harness.figures import FIGURES, Claim, FigureSpec, format_table

__all__ = ["Claim", "FIGURES", "FigureSpec", "format_table"]
