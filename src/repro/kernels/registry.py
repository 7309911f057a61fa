"""The kernel registry: name → stateless ProtectedKernel singleton.

Population happens once, at :mod:`repro.kernels` import time — the
four built-in kernels register there. ``register`` stays public so tests
and extensions can add kernels; names are unique and immutable once
taken (re-registering a name is a configuration error, not a silent
replacement — the serving tiers cache routing decisions on the name).

Both serving tiers resolve every execution unit, GEMM included, with one
:func:`get_kernel` dict lookup (:mod:`repro.serve.execute`); the
cross-tier differential test pins that both tiers answer alike through
it.
"""

from __future__ import annotations

from repro.kernels.base import ProtectedKernel
from repro.util.errors import ConfigError

_REGISTRY: dict[str, ProtectedKernel] = {}


def register(kernel: ProtectedKernel) -> ProtectedKernel:
    """Add a kernel under its ``name``; returns it for chaining."""
    name = kernel.name
    if not name or name == "?":
        raise ConfigError(
            f"kernel {kernel!r} must define a non-empty name"
        )
    if name in _REGISTRY:
        raise ConfigError(f"kernel {name!r} is already registered")
    _REGISTRY[name] = kernel
    return kernel


def get_kernel(name: str) -> ProtectedKernel:
    """Resolve a kernel by name (KeyError-free: unknown names raise a
    ConfigError naming the known family)."""
    kernel = _REGISTRY.get(name)
    if kernel is None:
        raise ConfigError(
            f"unknown kernel {name!r}; registered: {kernel_names()}"
        )
    return kernel


def kernel_names() -> tuple[str, ...]:
    """Registered kernel names, in registration order."""
    return tuple(_REGISTRY)
