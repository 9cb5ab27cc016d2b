"""Declarative fault model: what can go wrong, how often, and how recovery
is paced.

A :class:`FaultPlan` is a pure-data description of a chaos experiment:
which fault kinds fire, at what per-site probability, under which seed, and
within which total budget.  It is consumed by
:class:`repro.faults.injector.FaultInjector`, which turns the plan into
deterministic per-site decisions.

Determinism contract: every decision is a pure function of
``(seed, fault kind, site, attempt index)`` -- *not* of global draw order --
so the same ``(plan, sources, fault seed)`` always produces byte-identical
timelines regardless of how many unrelated sites were probed in between.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping


class FaultKind(enum.Enum):
    """The failure modes the simulated platform can inject."""

    #: transient host-to-device transfer failure (DMA abort; retryable)
    H2D_FAIL = "h2d_fail"
    #: transient device-to-host transfer failure (retryable)
    D2H_FAIL = "d2h_fail"
    #: kernel launch failure (driver rejects the launch; retryable)
    KERNEL_FAIL = "kernel_fail"
    #: a stream command takes ``stall_factor`` times longer than modeled;
    #: past the stall timeout it is abandoned and re-issued on a fresh stream
    STREAM_STALL = "stream_stall"
    #: spurious device-memory allocation failure (retried once, then the
    #: runtime degrades its strategy)
    DEVICE_OOM = "device_oom"
    #: host staging (pageable-copy / gather) runs ``host_slowdown_factor``
    #: times slower (OS paging pressure; no failure, just latency)
    HOST_SLOWDOWN = "host_slowdown"
    #: a whole simulated device drops out of the cluster (XID-style fatal
    #: error); not retryable in place -- the cluster layer re-executes the
    #: lost device's shards on a surviving device (docs/CLUSTER.md)
    DEVICE_LOSS = "device_loss"


@dataclass(frozen=True)
class RetryPolicy:
    """How the runtime recovers from transient faults.

    Backoff is charged in *simulated* time: after attempt ``k`` fails, the
    stream may not re-dispatch the command before
    ``backoff_base_s * backoff_multiplier ** (k - 1)`` seconds elapse.
    """

    #: retries per command before the typed FaultError escapes
    max_retries: int = 3
    backoff_base_s: float = 1e-4
    backoff_multiplier: float = 2.0
    #: a stalled command is abandoned (and re-issued on a fresh stream)
    #: once its stalled duration exceeds this
    stall_timeout_s: float = 0.2
    #: fraction of the modeled duration a failed transfer occupies its copy
    #: engine before the failure is detected
    transfer_fail_fraction: float = 0.5
    #: time a failed kernel launch holds its SMs before the driver reports
    kernel_fail_latency_s: float = 5e-6

    def backoff(self, attempt: int) -> float:
        """Simulated-seconds delay before retry number `attempt` (1-based)."""
        return self.backoff_base_s * self.backoff_multiplier ** max(0, attempt - 1)


#: every retryable/latency kind, used by :meth:`FaultPlan.chaos`
ALL_KINDS = tuple(FaultKind)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, budgeted description of which faults to inject.

    Parameters
    ----------
    seed:
        Root of every injection decision; two runs with the same plan make
        identical decisions at identical sites.
    rates:
        Per-kind injection probability (0 disables the kind).
    site_rates:
        Per-site overrides: maps a site *prefix* (e.g. ``"input.lineitem"``
        or ``"h2d.seg"``) to a rate that replaces the kind rate at matching
        sites.  The longest matching prefix wins.
    budget:
        Maximum total faults injected per injector; once spent, the run
        proceeds fault-free, so every run terminates and stays reproducible.
    """

    seed: int = 0
    rates: Mapping[FaultKind, float] = field(default_factory=dict)
    site_rates: Mapping[str, float] = field(default_factory=dict)
    budget: int = 64
    stall_factor: float = 25.0
    host_slowdown_factor: float = 8.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self):
        for kind, rate in self.rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {kind} must be in [0, 1], got {rate}")
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")

    # ------------------------------------------------------------------
    @classmethod
    def chaos(cls, seed: int, rate: float = 0.02, budget: int = 64,
              kinds: tuple[FaultKind, ...] = ALL_KINDS,
              retry: RetryPolicy | None = None) -> "FaultPlan":
        """A uniform low-rate plan over `kinds` -- the chaos-mode default."""
        return cls(seed=seed, rates={k: rate for k in kinds}, budget=budget,
                   retry=retry or RetryPolicy())

    @classmethod
    def off(cls) -> "FaultPlan":
        """A plan that never injects (useful as an explicit no-op)."""
        return cls(seed=0, rates={}, budget=0)

    def reseeded(self, offset: int) -> "FaultPlan":
        """This plan under a derived seed (``seed + offset``).

        The serving layer gives batch ``k`` the plan ``reseeded(k)`` so each
        batch draws independent fault decisions, yet a whole serve run stays
        a pure function of the root seed regardless of batch composition.
        """
        return FaultPlan(
            seed=self.seed + offset, rates=self.rates,
            site_rates=self.site_rates, budget=self.budget,
            stall_factor=self.stall_factor,
            host_slowdown_factor=self.host_slowdown_factor,
            retry=self.retry)

    # ------------------------------------------------------------------
    def rate_for(self, kind: FaultKind, site: str) -> float:
        """Effective injection probability of `kind` at `site`."""
        best: str | None = None
        for prefix in self.site_rates:
            if site.startswith(prefix) and (best is None or len(prefix) > len(best)):
                best = prefix
        if best is not None:
            return self.site_rates[best]
        return self.rates.get(kind, 0.0)

    @property
    def enabled(self) -> bool:
        return self.budget > 0 and (any(r > 0 for r in self.rates.values())
                                    or any(r > 0 for r in self.site_rates.values()))


def parse_chaos(spec: str) -> FaultPlan:
    """Parse the CLI's ``--chaos SEED[:RATE]`` argument into a plan."""
    seed_part, _, rate_part = spec.partition(":")
    try:
        seed = int(seed_part)
    except ValueError:
        raise ValueError(f"--chaos seed must be an integer, got {seed_part!r}")
    rate = 0.02
    if rate_part:
        try:
            rate = float(rate_part)
        except ValueError:
            raise ValueError(f"--chaos rate must be a float, got {rate_part!r}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"--chaos rate must be in [0, 1], got {rate}")
    return FaultPlan.chaos(seed=seed, rate=rate)
