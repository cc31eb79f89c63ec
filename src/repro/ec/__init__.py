"""Erasure coding: GF(2^8) arithmetic and the codecs studied in the paper.

The paper's Section III-B benchmarks three codes from Jerasure v2.0 and
selects Reed-Solomon with a Vandermonde matrix (``RS_Van``) as the best
performer for key-value pair sizes of 1 KB - 1 MB:

- ``RS_Van``  -> :class:`repro.ec.reed_solomon.ReedSolomonVandermonde`
- ``CRS``     -> :class:`repro.ec.cauchy.CauchyReedSolomon`
- ``R6-Lib``  -> :class:`repro.ec.liberation.LiberationRaid6`

Plus the paper's named future-work code:

- ``LRC``     -> :class:`repro.ec.lrc.LocalReconstructionCode`
  (Azure-style locally repairable code with cheap single-chunk repair)
- ``LT``      -> :class:`repro.ec.fountain.FountainLT`
  (systematic Luby Transform fountain code: XOR-only, linear-time
  peeling decode, verified-guarantee tolerance)

All three operate on real bytes and are verified by property tests: any K
of the K+M chunks reconstruct the original data.  Simulated *time* for
encode/decode comes from :mod:`repro.ec.cost_model`, calibrated to the
paper's Figure 4 measurements on 2.53 GHz Westmere CPUs.
"""

from repro.ec.base import ChunkSet, ErasureCodec, ErasureCodingError
from repro.ec.cauchy import CauchyReedSolomon
from repro.ec.cost_model import CodingCostModel
from repro.ec.fountain import FountainLT
from repro.ec.liberation import LiberationRaid6
from repro.ec.lrc import LocalReconstructionCode
from repro.ec.reed_solomon import ReedSolomonVandermonde
from repro.ec.registry import available_codecs, make_codec

__all__ = [
    "CauchyReedSolomon",
    "ChunkSet",
    "CodingCostModel",
    "ErasureCodec",
    "ErasureCodingError",
    "FountainLT",
    "LiberationRaid6",
    "LocalReconstructionCode",
    "ReedSolomonVandermonde",
    "available_codecs",
    "make_codec",
]
