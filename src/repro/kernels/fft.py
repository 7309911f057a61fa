"""FftKernel: a checksum-protected radix-2 FFT (Huang–Abraham over stages).

The transform is the iterative radix-2 decimation-in-time Cooley–Tukey:
bit-reverse permutation, then ``log2(N)`` butterfly stages, each stage
pairing elements ``(i, j = i + half)`` into

    out[i] = in[i] + w * in[j]        out[j] = in[i] - w * in[j]

with twiddle ``w = exp(-2*pi*1j*q/m)``. Because every stage is a *linear*
map of its input, Huang–Abraham checksums extend stage by stage (the
TurboFFT construction): pick output weight vectors ``w1 = (1..N)`` and
``w2 = (1..N)^2`` and fold them **analytically through the butterflies**
onto the stage's input —

    w1 . out = v1 . in   where   v1[i] = w1[i] + w1[j]
                                 v1[j] = w  * (w1[i] - w1[j])

— so the predicted checksum ``v1 . in`` is computed *before* the stage
runs, from data the stage has not touched, and compared against the
actual ``w1 . out`` after. A single corrupted output element ``p`` (bit
flip in its real or imaginary float) leaves residuals ``r1 = w1[p]*d``
and ``r2 = w2[p]*d``, so the ratio ``r2/r1 = w2[p]/w1[p] = p+1``
localizes it — the 1-D twin of FT-GEMM's row/column intersection — and
``out[p] -= r1/w1[p]`` repairs it in place. Two checksums can locate one
error but cannot rule out two: an equal-and-opposite pair at ``a`` and
``b`` leaves residuals ``d(a-b) * (1, a+b)``, exactly what a single error
at ``a+b`` leaves. So every repair must also close a third checksum
``w3 = (1..N)^3``, on which the pair leaves ``-d(a-b)ab`` after any
single-element repair; a repair that fails it is undone. Multi-error
patterns (burst models, weight-side corruption) recompute the stage from
its retained input, which never revisits the injector, so even a
*sticky* fault converges: each later stage pays one detect+repair and
the final spectrum is clean.

The injector hook is the ``fft_stage`` site — one invocation per stage,
visiting the stage output through a float64 view (so the standard
bit-level fault models strike real/imaginary components directly).

``ft_fft`` is the library entry (mirrors the ``repro.blas`` routines);
:class:`FftKernel` wraps it for the registry with a final independent
probe (``sum_k X[k] = N * x[0]`` for any length-N transform, by
orthogonality of the twiddle columns) and a DMR escalation rung.
"""

from __future__ import annotations

import numpy as np

from repro.blas.result import BlasResult
from repro.kernels.base import EPS, KernelResult, ProtectedKernel
from repro.util.errors import ShapeError

_TINY = float(np.finfo(np.float64).tiny)


def _bit_reverse_indices(n: int) -> np.ndarray:
    """Bit-reversal permutation of ``0..n-1`` (n a power of two)."""
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


def _stage_structure(n: int, stage: int):
    """Index arrays and twiddles of one butterfly stage.

    ``stage`` counts from 1; block length is ``m = 2**stage``. Returns
    ``(i_idx, j_idx, tw)`` — the butterfly pairs and their twiddles, each
    of length ``n // 2``.
    """
    m = 1 << stage
    half = m >> 1
    starts = np.arange(0, n, m, dtype=np.int64)
    offs = np.arange(half, dtype=np.int64)
    i_idx = (starts[:, None] + offs[None, :]).ravel()
    j_idx = i_idx + half
    w = np.exp((-2j * np.pi / m) * offs)
    tw = np.tile(w, n // m)
    return i_idx, j_idx, tw


def _butterfly(data, i_idx, j_idx, tw) -> None:
    """Apply one stage in place."""
    t = tw * data[j_idx]
    top = data[i_idx]
    data[i_idx] = top + t
    data[j_idx] = top - t


def _fold_weights(u, i_idx, j_idx, tw) -> np.ndarray:
    """Fold output checksum weights ``u`` through one stage onto its
    input: ``u . butterfly(in) == fold(u) . in`` exactly (linearity)."""
    v = np.empty_like(u)
    v[i_idx] = u[i_idx] + u[j_idx]
    v[j_idx] = tw * (u[i_idx] - u[j_idx])
    return v


def ft_fft(x, *, injector=None) -> BlasResult:
    """Checksum-protected FFT of a real float64 signal (power-of-two
    length). Returns a :class:`BlasResult` whose ``value`` is the
    complex128 spectrum.

    Per stage: predict dual weighted checksums from the stage input,
    run the butterflies, visit the injector, verify; localize+repair a
    single error by residual ratio (kept only when the ``w3`` checksum
    closes too), recompute the stage from its retained input otherwise.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"x must be 1-D, got {x.shape}")
    n = x.size
    if n < 2 or n & (n - 1):
        raise ShapeError(f"FFT length must be a power of two >= 2, got {n}")
    stages = n.bit_length() - 1
    result = BlasResult(value=None, scheme="abft")

    w1 = np.arange(1.0, n + 1.0).astype(np.complex128)
    w2 = (np.arange(1.0, n + 1.0) ** 2).astype(np.complex128)
    w3 = (np.arange(1.0, n + 1.0) ** 3).astype(np.complex128)
    data = x[_bit_reverse_indices(n)].astype(np.complex128)
    # stage-input checkpoint, reused across stages (the stage loop is an
    # analyzer-watched hot loop: no per-iteration allocation)
    before = np.empty_like(data)

    for stage in range(1, stages + 1):
        i_idx, j_idx, tw = _stage_structure(n, stage)
        v1 = _fold_weights(w1, i_idx, j_idx, tw)
        v2 = _fold_weights(w2, i_idx, j_idx, tw)
        pred1 = v1 @ data
        pred2 = v2 @ data
        env_in = float(np.abs(w1) @ np.abs(data))
        np.copyto(before, data)
        _butterfly(data, i_idx, j_idx, tw)
        if injector is not None:
            # strike real/imaginary float components through a view of
            # the live stage output
            injector.visit("fft_stage", data.view(np.float64))
        result.protection_flops += 24 * n

        env = 64.0 * EPS * n * (
            float(np.abs(w1) @ np.abs(data)) + env_in + _TINY
        )
        r1 = (w1 @ data) - pred1
        r2 = (w2 @ data) - pred2
        if abs(r1) <= env and abs(r2) <= env * n:
            continue
        result.detected += 1
        repaired = False
        if abs(r1) > env:
            ratio = r2 / r1
            p = int(round(ratio.real))
            if (
                1 <= p <= n
                and abs(ratio - p) <= 1e-6 * max(1.0, abs(p))
            ):
                data[p - 1] -= r1 / w1[p - 1]
                # re-verify the repair against w1 and against w3, predicted
                # from the retained stage input (only repairs pay for it)
                pred3 = _fold_weights(w3, i_idx, j_idx, tw) @ before
                env3 = 64.0 * EPS * n * (
                    float(np.abs(w3) @ (np.abs(data) + np.abs(before)))
                    + _TINY
                )
                if (
                    abs((w1 @ data) - pred1) <= env
                    and abs((w3 @ data) - pred3) <= env3
                ):
                    result.corrected += 1
                    repaired = True
                else:
                    data[p - 1] += r1 / w1[p - 1]
        if not repaired:
            # multi-error / unlocalizable: rebuild the stage from its
            # retained input — no injector visit, so the recompute is
            # clean even under a sticky fault
            np.copyto(data, before)
            _butterfly(data, i_idx, j_idx, tw)
            result.recomputed += 1
        result.protection_flops += 4 * n

    result.value = data
    return result


class FftKernel(ProtectedKernel):
    name = "fft"

    # ------------------------------------------------------------ descriptors
    def unit_operand(self, request) -> np.ndarray:
        return request.x

    def aux_operand(self, request) -> np.ndarray | None:
        return None

    def wire_params(self, request) -> dict:
        return {}

    # ---------------------------------------------------------- fault surface
    def site_invocations(self, shape: tuple) -> dict[str, int]:
        (n,) = shape
        return {"fft_stage": n.bit_length() - 1}

    # -------------------------------------------------------------- execution
    def run(self, request, *, injector=None, degraded: bool = False,
            tracer=None, tid: int = 0, engines=None) -> KernelResult:
        t0 = tracer.now_us() if tracer is not None else 0.0
        blas = ft_fft(request.x, injector=injector)
        spectrum = blas.value
        result = KernelResult(
            value=np.column_stack((spectrum.real, spectrum.imag)),
            kernel=self.name,
            detected=blas.detected,
            corrected=blas.corrected,
            recomputed=blas.recomputed,
            protection_flops=blas.protection_flops,
            request_id=request.request_id,
        )
        if tracer is not None:
            tracer.complete(
                "kernel.fft.execute",
                cat="kernel",
                tid=tid,
                t0_us=t0,
                args={"detected": blas.detected, "stages": len(request.x).bit_length() - 1},
            )
        return self._ladder(
            request, result,
            injector=injector, degraded=degraded, tracer=tracer, tid=tid,
        )

    def verify(self, request, value: np.ndarray) -> bool:
        """Independent probe from twiddle orthogonality:
        ``sum_k X[k] == N * x[0]`` exactly (every twiddle column except
        DC sums to zero) — O(N), touching only the input's first sample."""
        n = request.n
        total = complex(value[:, 0].sum(), value[:, 1].sum())
        expected = n * float(request.x[0])
        env = float(np.abs(value).sum()) + abs(expected) + _TINY
        return abs(total - expected) <= 64.0 * EPS * n * env

    def escalate(self, request) -> np.ndarray:
        first = np.fft.fft(request.x)
        duplicate = np.fft.fft(request.x)
        chosen = first if np.array_equal(first, duplicate) else duplicate
        return np.column_stack((chosen.real, chosen.imag))

    # ----------------------------------------------------------------- oracle
    def oracle(self, request) -> np.ndarray:
        spectrum = np.fft.fft(request.x)
        return np.column_stack((spectrum.real, spectrum.imag))

    def sample_request(self, shape: tuple, rng: np.random.Generator):
        from repro.serve.request import FftRequest  # serving type, late bind

        (n,) = shape
        return FftRequest(rng.standard_normal(n))
