"""Execution strategies (the paper's evaluated methods).

==================  ======================================================
WITH_ROUND_TRIP     every operator's intermediate result is staged back to
                    host memory and re-downloaded (forced when intermediates
                    do not fit on the device; SS III-B)
SERIAL              "without round trip": intermediates stay in GPU memory,
                    operators run unfused, back to back
FUSED               kernel fusion applied (SS III)
FISSION             kernel fission applied: segmented, pipelined transfers
                    (SS IV), unfused kernels
FUSED_FISSION       both (SS IV-C)
==================  ======================================================

Both runtimes -- :class:`~repro.runtime.executor.Executor` (timing) and
:class:`~repro.runtime.gpu_rt.GpuRuntime` (functional + spills) -- take
these strategies through an :class:`ExecutionConfig`, and both fall back
along the one :func:`degradation_ladder` when faults keep winning.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from ..core.fission import FissionConfig
from ..errors import DeviceOOMError, FaultError
from ..simgpu.pcie import HostMemory


class Strategy(enum.Enum):
    WITH_ROUND_TRIP = "with_round_trip"
    SERIAL = "serial"
    FUSED = "fused"
    FISSION = "fission"
    FUSED_FISSION = "fused_fission"

    @property
    def uses_fusion(self) -> bool:
        return self in (Strategy.FUSED, Strategy.FUSED_FISSION)

    @property
    def uses_fission(self) -> bool:
        return self in (Strategy.FISSION, Strategy.FUSED_FISSION)


@dataclass(frozen=True)
class ExecutionConfig:
    strategy: Strategy = Strategy.SERIAL
    #: host memory for the initial-input / final-output staging buffers
    #: (persistent, so kept pinned)
    memory: HostMemory = HostMemory.PINNED
    #: host memory for intermediate round-trip spills (ad-hoc heap buffers,
    #: hence pageable) -- this asymmetry gives round trips their outsized
    #: share of Fig 9's breakdown
    roundtrip_memory: HostMemory = HostMemory.PAGED
    fission: FissionConfig = field(default_factory=FissionConfig)
    #: when False, no PCIe transfers are simulated (GPU-compute-only runs,
    #: as in Fig 8(b), Fig 10-12)
    include_transfers: bool = True
    #: device-memory safety margin for chunked serial execution
    memory_safety: float = 0.9


#: the host interpreter: the last rung of every degradation ladder
CPUBASE = "cpubase"


def degradation_ladder(strategy: Strategy) -> tuple:
    """Fallback chain under repeated faults: pipelined strategies retreat
    to serial resident execution, then to forced round trips (minimal
    device footprint), then to the host baseline, which cannot fault."""
    ladder: list = [strategy]
    if strategy.uses_fission:
        ladder.append(Strategy.FUSED if strategy.uses_fusion
                      else Strategy.SERIAL)
    if strategy is not Strategy.WITH_ROUND_TRIP:
        ladder.append(Strategy.WITH_ROUND_TRIP)
    ladder.append(CPUBASE)
    return tuple(ladder)


def run_degrading(run_rung: Callable, strategy: Strategy, injector,
                  degrade: bool | None):
    """Run `run_rung` on each rung of `strategy`'s ladder until one
    survives (``degrade=None`` walks it iff fault injection is on), and
    record on the result where it landed and what the injector did."""
    if degrade is None:
        degrade = injector is not None
    rungs = degradation_ladder(strategy) if degrade else (strategy,)
    last_err: Exception | None = None
    for rung in rungs:
        try:
            result = run_rung(rung)
        except (DeviceOOMError, FaultError) as err:
            last_err = err
            continue
        if rung is not strategy:
            result.degraded_to = rung if isinstance(rung, str) else rung.value
        if injector is not None:
            result.faults_injected = injector.faults_injected
            result.retries = injector.retries
            result.reissues = injector.reissues
        return result
    assert last_err is not None
    raise last_err
