"""The verification engine: residuals → locate → correct → recompute → re-verify.

This is the control logic behind Figure 1's final line — "verify
{C^r_ref, C^r} and {C^c_ref, C^c}; correct error if necessary" — made
explicit as a loop with bounded retries:

1. compare reference vs predicted checksums under the round-off tolerances;
2. ``clean`` → done (the overwhelmingly common path: one cheap O(M+N) pass);
3. one-sided patterns → the checksum itself is suspect: re-derive both
   sides from first principles once, then re-verify (C is never modified on
   checksum-only evidence);
4. two-sided patterns → correct unambiguous (row, col) pairs in place;
   whatever remains ambiguous is recomputed wholesale from A/B (and the
   preserved C₀ when ``beta != 0``);
5. re-verify; give up after ``max_recompute_attempts`` recompute rounds —
   strict mode raises, otherwise the result is flagged unverified.

Corrections update the *reference* checksums incrementally (the corrected
delta is known), so a round after pure corrections costs O(M+N), not O(MN).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.abft.correct import correct_from_residuals
from repro.abft.locate import COLS_ONLY, ROWS_ONLY, locate
from repro.core.config import FTGemmConfig
from repro.core.results import VerificationReport
from repro.faults.sites import KERNEL_SITES
from repro.simcpu.counters import Counters
from repro.util.errors import UncorrectableError


@dataclass
class ChecksumLedger:
    """All checksum state a driver accumulates during the fused passes.

    ``row_*`` vectors have length N (indexed by column), ``col_*`` length M.
    ``env_row``/``env_col`` are the fused round-off envelopes
    (``(eᵀ|αA|)·|B|`` and ``|αA|·(|B|e)`` accumulated block by block);
    ``c0_abs_row``/``c0_abs_col`` are ``eᵀ|C₀|`` / ``|C₀|e`` recorded before
    scaling (None when ``beta == 0``).
    """

    row_pred: np.ndarray
    col_pred: np.ndarray
    row_ref: np.ndarray
    col_ref: np.ndarray
    env_row: np.ndarray
    env_col: np.ndarray
    c0_abs_row: np.ndarray | None = None
    c0_abs_col: np.ndarray | None = None
    #: weighted-scheme extension: w-weighted predictions and references
    #: (row side weighted by row index, col side by column index)
    row_pred_w: np.ndarray | None = None
    col_pred_w: np.ndarray | None = None
    row_ref_w: np.ndarray | None = None
    col_ref_w: np.ndarray | None = None

    @staticmethod
    def zeros(m: int, n: int, *, weighted: bool = False) -> "ChecksumLedger":
        ledger = ChecksumLedger(
            row_pred=np.zeros(n),
            col_pred=np.zeros(m),
            row_ref=np.zeros(n),
            col_ref=np.zeros(m),
            env_row=np.zeros(n),
            env_col=np.zeros(m),
        )
        if weighted:
            ledger.row_pred_w = np.zeros(n)
            ledger.col_pred_w = np.zeros(m)
            ledger.row_ref_w = np.zeros(n)
            ledger.col_ref_w = np.zeros(m)
        return ledger

    @property
    def weighted(self) -> bool:
        return self.row_pred_w is not None

    def add(self, other: "ChecksumLedger") -> None:
        """Reduce another (per-thread) ledger into this one in place."""
        self.row_pred += other.row_pred
        self.col_pred += other.col_pred
        self.row_ref += other.row_ref
        self.col_ref += other.col_ref
        self.env_row += other.env_row
        self.env_col += other.env_col
        if self.weighted != other.weighted:
            raise ValueError("cannot reduce weighted and unweighted ledgers")
        if self.weighted:
            self.row_pred_w += other.row_pred_w
            self.col_pred_w += other.col_pred_w
            self.row_ref_w += other.row_ref_w
            self.col_ref_w += other.col_ref_w
        for name in ("c0_abs_row", "c0_abs_col"):
            mine = getattr(self, name)
            theirs = getattr(other, name)
            if theirs is not None:
                if mine is None:
                    setattr(self, name, theirs.copy())
                else:
                    mine += theirs


class Verifier:
    """Runs the verify/correct/recompute loop for one GEMM call.

    ``injector`` (optional) lets persistent faults behave persistently: a
    recomputed line flows through the same stuck hardware, so the verifier
    hands freshly recomputed data back to the injector for sticky
    re-application. Plain recompute therefore cannot converge past a live
    sticky fault — that is the escalation supervisor's job.
    """

    def __init__(
        self,
        a: np.ndarray,
        b: np.ndarray,
        *,
        alpha: float,
        beta: float,
        c0: np.ndarray | None,
        config: FTGemmConfig,
        counters: Counters,
        injector=None,
        tracer=None,
    ):
        self.a = a
        self.b = b
        self.alpha = alpha
        self.beta = beta
        self.c0 = c0
        self.config = config
        self.counters = counters
        self.injector = injector
        #: a live Tracer or None (callers pass their already-gated ``_tr``);
        #: each verification round becomes one retroactive "verify_round"
        #: span, the outcome one "verdict" instant event
        self.tracer = tracer

    def _push(self, reports: list[VerificationReport],
              report: VerificationReport, t0: float) -> None:
        """Append a round report and close its trace span (if tracing)."""
        reports.append(report)
        tr = self.tracer
        if tr is not None:
            tr.complete(
                "verify_round", cat="verify", t0_us=t0,
                args={
                    "round": report.round_index,
                    "pattern": report.pattern_kind,
                    "rederived": report.checksum_rederived,
                    "corrected": len(report.corrected),
                    "recomputed": (len(report.recomputed_rows)
                                   + len(report.recomputed_cols)),
                },
            )

    def _poison(self, array: np.ndarray, sites: tuple[str, ...]) -> int:
        """Sticky re-application hook; 0 when no live persistent faults."""
        reapply = getattr(self.injector, "reapply_sticky", None)
        if reapply is None:
            return 0
        return reapply(array, sites=sites)

    # ------------------------------------------------------------ tolerances
    def tolerances(self, ledger: ChecksumLedger) -> tuple[np.ndarray, np.ndarray]:
        """Assemble the per-entry thresholds from the fused envelopes."""
        from repro.abft.tolerance import EPS

        tol = self.config.tolerance
        m, k = self.a.shape
        n = self.b.shape[1]
        g_row = (k + m + 2) * EPS
        g_col = (k + n + 2) * EPS
        tol_rows = tol.safety * g_row * ledger.env_row + tol.floor
        tol_cols = tol.safety * g_col * ledger.env_col + tol.floor
        if self.beta != 0.0 and ledger.c0_abs_row is not None:
            tol_rows = tol_rows + tol.safety * (m + 2) * EPS * abs(self.beta) * ledger.c0_abs_row
            tol_cols = tol_cols + tol.safety * (n + 2) * EPS * abs(self.beta) * ledger.c0_abs_col
        return tol_rows, tol_cols

    # -------------------------------------------------------------- the loop
    def finalize(self, c: np.ndarray, ledger: ChecksumLedger) -> tuple[list[VerificationReport], bool]:
        """Run verification rounds until clean or out of budget.

        Mutates ``c`` (corrections, recomputes) and the ledger's reference
        side. Returns ``(reports, verified)``; raises
        :class:`UncorrectableError` in strict mode on exhaustion.
        """
        tol_rows, tol_cols = self.tolerances(ledger)
        reports: list[VerificationReport] = []
        rederived = False
        recompute_rounds = 0
        last_signature: tuple | None = None
        max_rounds = self.config.max_recompute_attempts + 4
        tr = self.tracer
        while len(reports) < max_rounds:
            t0 = tr.now_us() if tr is not None else 0.0
            self.counters.verifications += 1
            pattern = locate(
                ledger.row_ref - ledger.row_pred,
                ledger.col_ref - ledger.col_pred,
                tol_rows,
                tol_cols,
            )
            if pattern.kind == "clean":
                self._push(reports, VerificationReport(len(reports), "clean"),
                           t0)
                if tr is not None:
                    tr.event("verdict", cat="verify",
                             args={"verified": True, "rounds": len(reports)})
                return reports, True

            self.counters.errors_detected += max(pattern.n_rows, pattern.n_cols)

            # a pattern that survived a repair round unchanged cannot be a C
            # corruption (those get corrected or recomputed away) — it is
            # corrupted *predicted* checksums wearing a C-error disguise
            # (e.g. strikes on both row_pred and col_pred intersect like a
            # single bad element). Re-derive the predictions once.
            signature = (pattern.kind, tuple(pattern.rows), tuple(pattern.cols))
            if signature == last_signature and not rederived:
                self._rederive(c, ledger)
                rederived = True
                self._refresh_refs(c, ledger)
                self._push(
                    reports,
                    VerificationReport(
                        len(reports),
                        pattern.kind,
                        flagged_rows=tuple(int(i) for i in pattern.rows),
                        flagged_cols=tuple(int(j) for j in pattern.cols),
                        checksum_rederived=True,
                    ),
                    t0,
                )
                continue
            last_signature = signature

            if pattern.kind in (ROWS_ONLY, COLS_ONLY):
                if rederived:
                    # fresh checksums still one-sided: canceling error pair
                    # along a line — recompute the flagged lines outright
                    if not self._recompute_lines(
                        c, list(pattern.rows), list(pattern.cols)
                    ):
                        return self._fail(reports)
                    recompute_rounds += 1
                    self._push(
                        reports,
                        VerificationReport(
                            len(reports),
                            pattern.kind,
                            flagged_rows=tuple(int(i) for i in pattern.rows),
                            flagged_cols=tuple(int(j) for j in pattern.cols),
                            recomputed_rows=tuple(int(i) for i in pattern.rows),
                            recomputed_cols=tuple(int(j) for j in pattern.cols),
                        ),
                        t0,
                    )
                else:
                    self._rederive(c, ledger)
                    rederived = True
                    self._push(
                        reports,
                        VerificationReport(
                            len(reports),
                            pattern.kind,
                            flagged_rows=tuple(int(i) for i in pattern.rows),
                            flagged_cols=tuple(int(j) for j in pattern.cols),
                            checksum_rederived=True,
                        ),
                        t0,
                    )
                self._refresh_refs(c, ledger)
                continue

            if ledger.weighted and pattern.kind == "multi":
                updated_rounds = self._weighted_round(
                    c, ledger, pattern, reports, recompute_rounds, t0
                )
                if updated_rounds is None:
                    return self._fail(reports)
                recompute_rounds = updated_rounds
                continue

            outcome = correct_from_residuals(c, pattern, tol_rows, tol_cols)
            self.counters.errors_corrected += outcome.n_corrected
            for i, j, delta in outcome.corrected:
                ledger.row_ref[j] -= delta
                ledger.col_ref[i] -= delta
            if not outcome.fully_resolved:
                if (
                    not self.config.recompute_fallback
                    or recompute_rounds >= self.config.max_recompute_attempts
                    or not self._recompute_lines(
                        c, outcome.recompute_rows, outcome.recompute_cols
                    )
                ):
                    self._push(reports,
                               self._report_from(len(reports), pattern, outcome),
                               t0)
                    return self._fail(reports)
                recompute_rounds += 1
                self._refresh_refs(c, ledger)
            self._push(reports, self._report_from(len(reports), pattern, outcome),
                       t0)
        return self._fail(reports)

    # --------------------------------------------------------------- helpers
    def _weighted_round(
        self,
        c: np.ndarray,
        ledger: ChecksumLedger,
        pattern,
        reports: list[VerificationReport],
        recompute_rounds: int,
        t0: float = 0.0,
    ) -> int | None:
        """Weighted-scheme multi-error round: per-row ratio localization.

        Every flagged row carrying a single error is corrected from its
        (plain, weighted) residual pair — no recompute even when deltas
        collide across rows. Rows the ratio test rejects are recomputed.
        Returns the updated recompute-round count, or None on budget
        exhaustion (caller fails). A mis-attribution (a two-error row whose
        ratio happens to land on an integer) is caught by the next plain
        verification round and resolved as a checksum-consistent recompute.
        """
        from repro.abft.weighted import resolve_weighted

        m, n = c.shape
        w_m = np.arange(1.0, m + 1.0)
        w_n = np.arange(1.0, n + 1.0)
        resolution = resolve_weighted(
            pattern.rows,
            pattern.col_flag_deltas,
            (ledger.col_ref_w - ledger.col_pred_w)[pattern.rows],
            n_cols=n,
        )
        self.counters.errors_corrected += len(resolution.corrections)
        self.counters.checksum_flops += 4 * pattern.n_rows
        # deltas near the float ceiling can overflow the weighted updates;
        # that only degrades the weighted side's usefulness for *later*
        # rounds (they fall back to recompute), never correctness
        with np.errstate(over="ignore", invalid="ignore"):
            for i, j, delta in resolution.corrections:
                c[i, j] -= delta
                ledger.row_ref[j] -= delta
                ledger.col_ref[i] -= delta
                ledger.row_ref_w[j] -= w_m[i] * delta
                ledger.col_ref_w[i] -= w_n[j] * delta
        self._push(
            reports,
            VerificationReport(
                len(reports),
                pattern.kind,
                flagged_rows=tuple(int(i) for i in pattern.rows),
                flagged_cols=tuple(int(j) for j in pattern.cols),
                corrected=tuple(resolution.corrections),
                recomputed_rows=tuple(resolution.recompute_rows),
            ),
            t0,
        )
        if resolution.recompute_rows:
            if (
                not self.config.recompute_fallback
                or recompute_rounds >= self.config.max_recompute_attempts
                or not self._recompute_lines(c, resolution.recompute_rows, [])
            ):
                return None
            recompute_rounds += 1
            self._refresh_refs(c, ledger)
        return recompute_rounds

    def _report_from(self, idx: int, pattern, outcome) -> VerificationReport:
        return VerificationReport(
            idx,
            pattern.kind,
            flagged_rows=tuple(int(i) for i in pattern.rows),
            flagged_cols=tuple(int(j) for j in pattern.cols),
            corrected=tuple(outcome.corrected),
            recomputed_rows=tuple(outcome.recompute_rows),
            recomputed_cols=tuple(outcome.recompute_cols),
        )

    def _fail(self, reports: list[VerificationReport]) -> tuple[list[VerificationReport], bool]:
        if self.tracer is not None:
            self.tracer.event("verdict", cat="verify",
                              args={"verified": False, "rounds": len(reports)})
        if self.config.strict:
            raise UncorrectableError(
                "checksum verification failed beyond the correction/recompute "
                f"budget ({self.config.max_recompute_attempts} recompute rounds)",
                detected=self.counters.errors_detected,
                corrected=self.counters.errors_corrected,
            )
        return reports, False

    def _rederive(self, c: np.ndarray, ledger: ChecksumLedger) -> None:
        """Recompute the *predicted* checksums from first principles.

        Used when the evidence says a checksum vector, not C, is corrupt.
        O(MK + KN) — far cheaper than recomputing any part of C.
        """
        a_row = self.alpha * self.a.sum(axis=0)
        b_col = self.b.sum(axis=1)
        ledger.row_pred = a_row @ self.b
        ledger.col_pred = self.alpha * (self.a @ b_col)
        if ledger.weighted:
            m, n = c.shape
            w_m = np.arange(1.0, m + 1.0)
            w_n = np.arange(1.0, n + 1.0)
            ledger.row_pred_w = self.alpha * ((w_m @ self.a) @ self.b)
            ledger.col_pred_w = self.alpha * (self.a @ (self.b @ w_n))
        if self.beta != 0.0:
            if self.c0 is None:
                # without the preserved C0 the beta leg of the prediction is
                # unrecoverable; fall back to the (possibly corrupt) stored one
                return
            ledger.row_pred += self.beta * self.c0.sum(axis=0)
            ledger.col_pred += self.beta * self.c0.sum(axis=1)
            if ledger.weighted:
                ledger.row_pred_w += self.beta * (w_m @ self.c0)
                ledger.col_pred_w += self.beta * (self.c0 @ w_n)
        self.counters.checksum_flops += (
            2 * self.a.size + 2 * self.b.size + c.shape[0] + c.shape[1]
        )
        self.counters.ft_extra_bytes += self.a.nbytes + self.b.nbytes
        # a sticky fault in the checksum unit corrupts the re-derivation too
        self._poison(ledger.row_pred, sites=("checksum",))
        self._poison(ledger.col_pred, sites=("checksum",))

    def _refresh_refs(self, c: np.ndarray, ledger: ChecksumLedger) -> None:
        """Recompute reference checksums from C after it was modified."""
        ledger.row_ref = c.sum(axis=0)
        ledger.col_ref = c.sum(axis=1)
        self.counters.checksum_flops += 2 * c.size
        if ledger.weighted:
            m, n = c.shape
            ledger.row_ref_w = np.arange(1.0, m + 1.0) @ c
            ledger.col_ref_w = c @ np.arange(1.0, n + 1.0)
            self.counters.checksum_flops += 4 * c.size
        self.counters.ft_extra_bytes += c.nbytes

    def _recompute_lines(self, c: np.ndarray, rows: list[int], cols: list[int]) -> bool:
        """Rebuild whole rows/columns of C from A, B (and C0). Returns False
        when ``beta != 0`` but no original C was preserved."""
        if self.beta != 0.0 and self.c0 is None:
            return False
        if rows:
            idx = np.asarray(rows, dtype=np.intp)
            fresh = self.alpha * (self.a[idx, :] @ self.b)
            if self.beta != 0.0:
                fresh += self.beta * self.c0[idx, :]
            # the recompute flows through the same packed-buffer path a
            # kernel-site sticky fault lives in
            self._poison(fresh, sites=KERNEL_SITES)
            c[idx, :] = fresh
        if cols:
            jdx = np.asarray(cols, dtype=np.intp)
            fresh = self.alpha * (self.a @ self.b[:, jdx])
            if self.beta != 0.0:
                fresh += self.beta * self.c0[:, jdx]
            self._poison(fresh, sites=KERNEL_SITES)
            c[:, jdx] = fresh
        self.counters.blocks_recomputed += len(rows) + len(cols)
        k = self.a.shape[1]
        self.counters.checksum_flops += 2 * k * (
            len(rows) * c.shape[1] + len(cols) * c.shape[0]
        )
        return True


def ledger_from_state(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    *,
    alpha: float,
    beta: float,
    c0: np.ndarray | None,
    weighted: bool = False,
    counters: Counters | None = None,
) -> ChecksumLedger:
    """Build a complete :class:`ChecksumLedger` from scratch.

    Used by the recovery paths, where the fused per-block ledger cannot be
    trusted: after a fail-stop (a dead thread's partial contributions and
    stale shared reductions pollute every vector) or after the supervisor
    recomputed suspect regions. Predictions and envelopes come from A, B
    (and the preserved C₀), references from the current C. O(MK + KN + MN)
    extra passes — recovery-path cost, never on the clean path.
    """
    m, k = a.shape
    n = b.shape[1]
    ledger = ChecksumLedger.zeros(m, n, weighted=weighted)
    abs_a = np.abs(a)
    abs_b = np.abs(b)
    a_row = alpha * a.sum(axis=0)
    abs_a_row = abs(alpha) * abs_a.sum(axis=0)
    ledger.row_pred = a_row @ b
    ledger.col_pred = alpha * (a @ b.sum(axis=1))
    ledger.env_row = abs_a_row @ abs_b
    ledger.env_col = abs(alpha) * (abs_a @ abs_b.sum(axis=1))
    if weighted:
        w_m = np.arange(1.0, m + 1.0)
        w_n = np.arange(1.0, n + 1.0)
        ledger.row_pred_w = alpha * ((w_m @ a) @ b)
        ledger.col_pred_w = alpha * (a @ (b @ w_n))
    if beta != 0.0 and c0 is not None:
        abs_c0 = np.abs(c0)
        ledger.row_pred += beta * c0.sum(axis=0)
        ledger.col_pred += beta * c0.sum(axis=1)
        ledger.c0_abs_row = abs_c0.sum(axis=0)
        ledger.c0_abs_col = abs_c0.sum(axis=1)
        if weighted:
            ledger.row_pred_w += beta * (w_m @ c0)
            ledger.col_pred_w += beta * (c0 @ w_n)
    ledger.row_ref = c.sum(axis=0)
    ledger.col_ref = c.sum(axis=1)
    if weighted:
        ledger.row_ref_w = w_m @ c
        ledger.col_ref_w = c @ w_n
    if counters is not None:
        counters.checksum_flops += 4 * a.size + 4 * b.size + 2 * c.size
        counters.ft_extra_bytes += a.nbytes + b.nbytes + c.nbytes
    return ledger


def copy_ledger_into(src: ChecksumLedger, dst: ChecksumLedger) -> None:
    """Overwrite ``dst``'s vectors with ``src``'s (callers hold references
    to the ledger object, so recovery replaces its contents in place)."""
    for name in (
        "row_pred", "col_pred", "row_ref", "col_ref", "env_row", "env_col",
        "c0_abs_row", "c0_abs_col",
        "row_pred_w", "col_pred_w", "row_ref_w", "col_ref_w",
    ):
        setattr(dst, name, getattr(src, name))
