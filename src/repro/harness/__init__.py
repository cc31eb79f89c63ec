"""Experiment harness: the paper's figures and the soaks as one table.

Every entry of :data:`EXPERIMENTS` is one
:class:`~repro.harness.experiment.Experiment`: a figure of the paper's
evaluation or a study beyond it (:mod:`repro.harness.figures`), or a
seeded soak over the kernel in :mod:`repro.harness.soak`.
``python -m repro.harness <name>`` runs any of them.
"""

from repro.harness import chaos, figures, gossip, overload, scale, scrub
from repro.harness import stripes
from repro.harness.experiment import Claim, Experiment
from repro.harness.figures import format_table

#: every figure and study in the paper's order, then every soak
EXPERIMENTS = (
    figures.FIG4, figures.FIG8, figures.FIG9, figures.FIG10,
    figures.FIG11_12, figures.FIG13, figures.ABLATIONS, figures.MODEL,
    figures.RECOVERY, figures.CODECS, figures.SCALEOUT, figures.ETC,
    chaos.SPEC, scale.SPEC, overload.SPEC, gossip.SPEC, stripes.SPEC,
    scrub.SPEC,
)

__all__ = ["Claim", "EXPERIMENTS", "Experiment", "format_table"]
