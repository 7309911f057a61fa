"""Request/response types of the protected-kernel serving layer.

A :class:`KernelRequest` is one protected computation a client wants
performed: operands, scalars, a priority, an optional deadline, and the
fault-tolerance scheme to protect it with. Four concrete request types
exist, one per registered :mod:`repro.kernels` kernel —
:class:`GemmRequest` (the original workload), :class:`GemvRequest`,
:class:`TrsmRequest` and :class:`FftRequest`. The service answers every
admitted request with exactly one :class:`GemmResponse` — delivered
through a :class:`ResponseFuture` — whatever happens in between (faults,
retries, worker deaths, shedding, expiry). The terminal statuses
enumerate every way a request can leave the system; ``ok`` is the only
one carrying a verified result (an
:class:`~repro.core.results.FTGemmResult` for GEMM, a
:class:`~repro.kernels.base.KernelResult` for the other kernels).

Every request's :meth:`~KernelRequest.bucket` carries the **kernel
discriminator** in its key: two requests of different kernels can never
share a coalescing bucket, however coincidentally equal their shapes and
operand identities are (pinned by a regression test — an early draft
collided a GEMV against a beta!=0 GEMM). The key's first element stays
the shared-operand identity (the panel cache's recency handle) and its
last element stays the stackability flag (:class:`Batch.coalesced` reads
``bucket[-1]``); only GEMM buckets are ever stackable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.util.errors import ConfigError, ShapeError

#: every terminal state a request can reach; the service guarantees each
#: request reaches exactly one of them, exactly once
TERMINAL_STATUSES = (
    "ok",         # executed and verified
    "failed",     # retry budget exhausted without a verified result
    "rejected",   # refused at admission (queue full under "reject"/"block")
    "shed",       # evicted from the queue to admit higher-priority work
    "expired",    # deadline passed while queued or in a batch awaiting
                  # a worker (checked one last time before execution)
    "cancelled",  # service shut down without draining
)

#: checksum schemes a request may ask for (mirrors FTGemmConfig)
SCHEMES = ("dual", "weighted")

#: the servable kernels, in registry order (mirrors repro.kernels)
KERNEL_NAMES = ("gemm", "gemv", "trsm", "fft")


@dataclass(eq=False, kw_only=True)
class KernelRequest:
    """Base of every servable request: the serving envelope.

    Identity equality (``eq=False``): a request is a unique in-flight unit
    of work — comparing operand arrays element-wise is both meaningless
    and broken (ndarray ``==`` is elementwise), and the queue's
    bookkeeping is keyed on object identity.

    ``priority`` — larger is more urgent; it orders the admission queue and
    decides who is shed under the ``shed-lowest`` backpressure policy.
    ``deadline_s`` — seconds from admission the caller is willing to wait
    before execution starts; a lapsed deadline produces an ``expired``
    response. The deadline is enforced while the request sits in the
    admission queue *and* once more at the last moment before a worker
    starts its batch (a request can outlive its deadline inside a formed
    batch behind slower work); only a request whose execution has
    actually begun is immune to expiry.
    ``scheme`` — checksum scheme protecting the computation (see
    :class:`~repro.core.config.FTGemmConfig`; non-GEMM kernels accept it
    for envelope uniformity but their protection split is fixed by the
    kernel: ABFT where checksums amortize, DMR where they cannot).

    ``request_id`` is assigned by the service at submit time when left
    None; it correlates the response, the driver result, any recovery
    report, and the ``serve.request`` trace span.

    All envelope fields are keyword-only, so subclasses keep their
    operands positional — ``GemmRequest(a, b)`` reads exactly as before
    the kernel family broadened.
    """

    #: kernel discriminator, overridden per subclass (class attribute —
    #: zero per-instance cost); the execution core resolves the registry
    #: kernel from it
    kernel = "?"

    priority: int = 0
    deadline_s: float | None = None
    scheme: str = "dual"
    request_id: str | None = None
    # stamped by the service at admission (monotonic seconds)
    submitted_at: float = 0.0
    expires_at: float | None = None
    #: resolved tuning-DB entry for this request's shape class
    #: (:class:`~repro.tune.db.TunedConfig`), stamped by the service at
    #: admission when it was built with a ``tune_db``; None means "run on
    #: the static config" — the untuned service never sets it. Only GEMM
    #: shapes are ever resolved; the DB's shape classes are GEMM classes.
    tuned: object | None = field(default=None, repr=False)
    #: memoized coalescing key — derived once, then shared by every
    #: consumer (the scheduler's head bucket, the queue's compatibility
    #: scan over the whole backlog, and the panel cache's admission
    #: consult); the inputs are fixed after __post_init__, so caching
    #: is sound
    _bucket_key: tuple | None = field(default=None, init=False, repr=False)

    def _validate_envelope(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError(
                f"unknown scheme {self.scheme!r}; choose from {SCHEMES}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )

    def bucket(self) -> tuple:
        """The shape-coalescing key: requests in one bucket may travel in
        one batch. Layout contract (every kernel): ``key[0]`` is the
        shared-operand identity (0 when the kernel has none), the kernel
        name appears verbatim, and ``key[-1]`` is the stackable flag —
        True only for GEMM buckets whose stacked execution is expressible
        (``beta == 0``)."""
        key = self._bucket_key
        if key is None:
            key = self._bucket_key = self._bucket()
        return key

    def _bucket(self) -> tuple:
        raise NotImplementedError

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at

    # ------------------------------------------------------- kernel contract
    @property
    def shape(self) -> tuple:
        """Kernel-specific shape tuple (feeds fault-plan construction and
        metrics; interpretation is per-kernel)."""
        raise NotImplementedError

    @property
    def shared_operand(self) -> np.ndarray | None:
        """The operand many requests may share by identity (the "weights"
        of the serving pattern): B for GEMM, A for GEMV/TRSM, None for
        FFT. Both tiers key their operand caches and shard routing on it."""
        return None

    @property
    def result_shape(self) -> tuple[int, int]:
        """Canonical 2-D result shape (the proc tier's result-slot size)."""
        raise NotImplementedError


@dataclass(eq=False)
class GemmRequest(KernelRequest):
    """One GEMM the service should compute: ``C = alpha * A @ B + beta * C0``."""

    kernel = "gemm"

    a: np.ndarray
    b: np.ndarray
    c0: np.ndarray | None = None
    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.a.ndim != 2 or self.b.ndim != 2:
            raise ShapeError(
                f"request operands must be 2-D, got A{self.a.shape} "
                f"B{self.b.shape}"
            )
        if self.a.shape[1] != self.b.shape[0]:
            raise ShapeError(
                f"inner dimensions differ: A{self.a.shape} B{self.b.shape}"
            )
        if self.c0 is not None:
            self.c0 = np.asarray(self.c0, dtype=np.float64)
            if self.c0.shape != (self.m, self.n):
                raise ShapeError(
                    f"C0 shape {self.c0.shape} does not match "
                    f"{(self.m, self.n)}"
                )
        if self.beta != 0.0 and self.c0 is None:
            raise ConfigError("beta != 0 requires a C0 operand")
        self._validate_envelope()

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def k(self) -> int:
        return self.a.shape[1]

    @property
    def n(self) -> int:
        return self.b.shape[1]

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.m, self.n, self.k)

    @property
    def shared_operand(self) -> np.ndarray:
        return self.b

    @property
    def result_shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    def _bucket(self) -> tuple:
        """Identical B (by object), identical (k, n), scalars and scheme;
        stackable only with ``beta == 0`` — a C0 leg would need
        per-request scaling that stacking cannot express."""
        return (
            id(self.b),
            self.k,
            self.n,
            self.alpha,
            self.scheme,
            self.kernel,
            self.beta == 0.0,
        )


@dataclass(eq=False)
class GemvRequest(KernelRequest):
    """One protected GEMV: ``y = alpha * A @ x + beta * y0``.

    ``A`` is the shared operand (the weights pattern: many activation
    vectors against one matrix); requests sharing an A land in one bucket
    and travel in one batch, executing request-by-request (a GEMV stack
    would *be* a GEMM — callers wanting that submit one).
    """

    kernel = "gemv"

    a: np.ndarray
    x: np.ndarray
    y0: np.ndarray | None = None
    alpha: float = 1.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=np.float64)
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.a.ndim != 2:
            raise ShapeError(f"A must be 2-D, got {self.a.shape}")
        if self.x.ndim != 1 or self.x.size != self.a.shape[1]:
            raise ShapeError(
                f"x must have length {self.a.shape[1]}, got shape "
                f"{self.x.shape}"
            )
        if self.y0 is not None:
            self.y0 = np.asarray(self.y0, dtype=np.float64)
            if self.y0.shape != (self.m,):
                raise ShapeError(
                    f"y0 must have length {self.m}, got shape {self.y0.shape}"
                )
        if self.beta != 0.0 and self.y0 is None:
            raise ConfigError("beta != 0 requires a y0 operand")
        self._validate_envelope()

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def k(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.k)

    @property
    def shared_operand(self) -> np.ndarray:
        return self.a

    @property
    def result_shape(self) -> tuple[int, int]:
        return (self.m, 1)

    def _bucket(self) -> tuple:
        return (
            id(self.a),
            self.k,
            self.m,
            self.alpha,
            self.scheme,
            self.kernel,
            False,
        )


@dataclass(eq=False)
class TrsmRequest(KernelRequest):
    """One protected triangular solve: ``A X = B`` (A n×n triangular with
    a non-singular diagonal, B the n×nrhs right-hand sides).

    ``A`` — the factor — is the shared operand (one factorization, many
    solves); ``lower`` selects forward vs backward substitution.
    """

    kernel = "trsm"

    a: np.ndarray
    b: np.ndarray
    lower: bool = True

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ShapeError(f"TRSM needs a square A, got {self.a.shape}")
        if self.b.ndim != 2 or self.b.shape[0] != self.a.shape[0]:
            raise ShapeError(
                f"B must have {self.a.shape[0]} rows, got {self.b.shape}"
            )
        if np.any(np.diag(self.a) == 0.0):
            raise ShapeError("singular triangular matrix (zero diagonal)")
        self._validate_envelope()

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def nrhs(self) -> int:
        return self.b.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.nrhs)

    @property
    def shared_operand(self) -> np.ndarray:
        return self.a

    @property
    def result_shape(self) -> tuple[int, int]:
        return (self.n, self.nrhs)

    def _bucket(self) -> tuple:
        return (
            id(self.a),
            self.n,
            self.nrhs,
            self.lower,
            self.scheme,
            self.kernel,
            False,
        )


@dataclass(eq=False)
class FftRequest(KernelRequest):
    """One protected FFT of a real signal of power-of-two length.

    The canonical result is the float64 ``(N, 2)`` [Re, Im] spectrum —
    2-D so the all-float64 transport, result slots and oracle audit treat
    every kernel uniformly. There is no shared operand: every signal is
    private, so FFT batches group by length only and never coalesce.
    """

    kernel = "fft"

    x: np.ndarray

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 1:
            raise ShapeError(f"x must be 1-D, got {self.x.shape}")
        n = self.x.size
        if n < 2 or n & (n - 1):
            raise ShapeError(
                f"FFT length must be a power of two >= 2, got {n}"
            )
        self._validate_envelope()

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def shape(self) -> tuple[int]:
        return (self.n,)

    @property
    def result_shape(self) -> tuple[int, int]:
        return (self.n, 2)

    def _bucket(self) -> tuple:
        return (
            0,
            self.n,
            1.0,
            self.scheme,
            self.kernel,
            False,
        )


#: request class per kernel name (the proc tier's child rebuilds requests
#: from wire messages through this table)
REQUEST_TYPES: dict[str, type[KernelRequest]] = {
    "gemm": GemmRequest,
    "gemv": GemvRequest,
    "trsm": TrsmRequest,
    "fft": FftRequest,
}


def request_from_wire(
    kernel: str,
    unit: np.ndarray,
    shared: np.ndarray | None,
    aux: np.ndarray | None,
    params: dict | None,
    *,
    scheme: str = "dual",
    request_id: str | None = None,
) -> KernelRequest:
    """Rebuild a request from the proc tier's wire operands.

    The inverse of the kernel descriptors (``unit_operand`` /
    ``shared_operand`` / ``aux_operand`` / ``wire_params``): the parent
    decomposes a request into those four pieces to ship it over shared
    memory; the child calls this to put it back together. Raises
    :class:`~repro.util.errors.ConfigError` on an unknown kernel so a
    version-skewed message fails loudly instead of executing garbage.
    """
    params = params or {}
    if kernel == "gemm":
        request = GemmRequest(
            unit, shared, aux,
            alpha=params.get("alpha", 1.0), beta=params.get("beta", 0.0),
            scheme=scheme,
        )
    elif kernel == "gemv":
        request = GemvRequest(
            shared, unit, aux,
            alpha=params.get("alpha", 1.0), beta=params.get("beta", 0.0),
            scheme=scheme,
        )
    elif kernel == "trsm":
        request = TrsmRequest(
            shared, unit, lower=bool(params.get("lower", True)),
            scheme=scheme,
        )
    elif kernel == "fft":
        request = FftRequest(unit, scheme=scheme)
    else:
        raise ConfigError(
            f"unknown kernel {kernel!r} on the wire; known: {KERNEL_NAMES}"
        )
    request.request_id = request_id
    return request


@dataclass(eq=False)
class GemmResponse:
    """The service's single, terminal answer to one request (identity
    equality — it wraps ndarray-bearing results).

    ``result`` is an :class:`~repro.core.results.FTGemmResult` for GEMM
    requests and a :class:`~repro.kernels.base.KernelResult` for every
    other kernel; both expose ``.c`` and ``.verified``, which is all the
    response layer reads.
    """

    request_id: str
    status: str
    result: object | None = None
    error: str = ""
    #: worker that produced the answer (-1 when it never reached one)
    worker: int = -1
    #: execution attempts consumed (0 when never executed)
    attempts: int = 0
    #: how many requests shared the coalesced execution (1 = singleton)
    batch_size: int = 1
    #: end-to-end latency, admission -> completion (seconds)
    latency_s: float = 0.0
    #: the batch ran with the degraded (checksum-only) config
    degraded: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def verified(self) -> bool:
        return self.result is not None and self.result.verified

    def summary(self) -> str:
        extra = f", batch={self.batch_size}" if self.batch_size > 1 else ""
        extra += ", degraded" if self.degraded else ""
        tail = f": {self.error}" if self.error else ""
        return (
            f"GemmResponse({self.request_id}, {self.status}, "
            f"attempts={self.attempts}{extra}, "
            f"latency={self.latency_s * 1e3:.2f}ms{tail})"
        )


#: the response type is kernel-agnostic; the historical name stays for
#: compatibility, the alias states the contract
KernelResponse = GemmResponse


class ResponseFuture:
    """One-shot, thread-safe slot the service fills with the response.

    ``set`` returns False (and changes nothing) on a second completion
    attempt — the exactly-once guard the soak tests assert on.
    """

    __slots__ = ("_event", "_response", "_lock", "_callbacks")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._response: GemmResponse | None = None
        self._lock = threading.Lock()
        self._callbacks: list = []

    def set(self, response: GemmResponse) -> bool:
        with self._lock:
            if self._response is not None:
                return False
            self._response = response
            callbacks = list(self._callbacks)
        self._event.set()
        for cb in callbacks:
            cb(response)
        return True

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> GemmResponse:
        """Block until the response arrives; raises TimeoutError otherwise."""
        if not self._event.wait(timeout):
            raise TimeoutError("no response within timeout")
        with self._lock:
            return self._response

    def peek(self) -> GemmResponse | None:
        with self._lock:
            return self._response

    def add_done_callback(self, cb) -> None:
        with self._lock:
            if self._response is None:
                self._callbacks.append(cb)
                return
            response = self._response
        cb(response)


@dataclass
class Ticket:
    """What ``submit`` hands back: the assigned id plus the future."""

    request_id: str
    future: ResponseFuture

    def result(self, timeout: float | None = None) -> GemmResponse:
        return self.future.result(timeout)
