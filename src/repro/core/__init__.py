"""The paper's primary contribution: fused fault-tolerant GEMM.

- :class:`FTGemm` — serial FT-DGEMM with the ABFT checksum operations fused
  into the scaling, packing and macro-kernel passes (Section 2.2);
- :class:`ParallelFTGemm` — the cache-friendly threaded scheme of Figure 1
  (Section 2.3);
- :class:`FTGemmConfig` / :class:`FTGemmResult` — configuration and result
  types shared by both drivers;
- :class:`Verifier` / :class:`ChecksumLedger` — the verification engine;
- :func:`dmr_scale` — DMR protection of the memory-bound scaling prologue.
"""

from repro.core.config import FTGemmConfig
from repro.core.results import FTGemmResult, VerificationReport
from repro.core.ftgemm import FTGemm
from repro.core.parallel import ParallelFTGemm
from repro.core.verification import ChecksumLedger, Verifier, ledger_from_state
from repro.core.supervisor import EscalationSupervisor, RecoveryReport, RecoveryRound
from repro.core.dmr import dmr_scale

__all__ = [
    "FTGemmConfig",
    "FTGemmResult",
    "VerificationReport",
    "FTGemm",
    "ParallelFTGemm",
    "ChecksumLedger",
    "Verifier",
    "ledger_from_state",
    "EscalationSupervisor",
    "RecoveryReport",
    "RecoveryRound",
    "dmr_scale",
]
