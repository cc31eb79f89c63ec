"""Continuous integrity scrubbing and probabilistic availability audits.

Configured through :meth:`repro.core.features.Features.with_scrubbing`;
:class:`~repro.core.features.ScrubConfig` holds every knob's default and
check, and ``Scrubber(cluster, config)`` is built from it.  The default
feature set never imports this package (pay-as-you-go).
"""

from repro.scrub.audit import (
    AuditReport,
    achieved_epsilon,
    required_samples,
)
from repro.scrub.scrubber import Scrubber

__all__ = [
    "AuditReport",
    "Scrubber",
    "achieved_epsilon",
    "required_samples",
]
