"""Small-object erasure coding via stripe packing (MemEC-style).

Configured through :meth:`repro.core.features.Features.
with_small_object_stripes`; :class:`~repro.core.features.StripesConfig`
holds every knob's default and check, and ``StripedScheme(config)`` is
built from it.  See :mod:`repro.stripes.buffer` for the packing data
structures, :mod:`repro.stripes.scheme` for the request paths, and
:mod:`repro.stripes.compact` for the log-structured GC.
"""

from repro.stripes.buffer import (
    ObjectLocation,
    StripeRecord,
    journal_key,
    stripe_name,
)
from repro.stripes.compact import StripeCompactor
from repro.stripes.scheme import StripedScheme

__all__ = [
    "ObjectLocation",
    "StripeCompactor",
    "StripeRecord",
    "StripedScheme",
    "journal_key",
    "stripe_name",
]
