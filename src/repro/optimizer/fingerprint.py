"""Content-addressed fingerprints for plans, stats, and platform config.

Everything the optimizer caches is keyed by sha256 over a *canonical*
rendering of the inputs: plan DAG structure (ops, edges, parameters,
annotations), data-stats digests, and the calibration constants of the
simulated platform.  Two semantically identical inputs always render to
the same string; any change to an op parameter, a selectivity annotation,
a calibration constant, or a cluster shape changes the digest.

The canonical form is intentionally repr-based, not pickle-based: it is
stable across processes and Python versions, human-inspectable when
debugging a surprising cache miss, and free of object identity.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any

from ..plans.plan import Plan
from ..simgpu.device import DeviceSpec


def canonical(obj: Any) -> str:
    """A deterministic, identity-free rendering of ``obj``.

    Handles the value types that appear in plan parameters and platform
    config: scalars, strings, enums, containers (dicts sorted by key),
    dataclasses (by field), and plain objects (by ``__dict__``, sorted).
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical(x) for x in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(canonical(x) for x in obj)) + "}"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: repr(kv[0]))
        return ("{" + ",".join(f"{canonical(k)}:{canonical(v)}"
                               for k, v in items) + "}")
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(f"{f.name}={canonical(getattr(obj, f.name))}"
                          for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({fields})"
    if hasattr(obj, "__dict__"):
        items = ",".join(f"{k}={canonical(v)}"
                         for k, v in sorted(vars(obj).items()))
        return f"{type(obj).__name__}({items})"
    return repr(obj)


def digest(*parts: Any) -> str:
    """sha256 hex digest over the canonical forms of ``parts``."""
    h = hashlib.sha256()
    for part in parts:
        h.update(canonical(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()


def plan_fingerprint(plan: Plan) -> str:
    """Hash of the plan DAG: ops, edges (by node name), parameters, and
    the cardinality annotations the timing model trusts.  A frozen plan
    is hashed once; later calls are a lookup."""
    return plan.memo("fingerprint", lambda: _plan_digest(plan))


def _plan_digest(plan: Plan) -> str:
    items = []
    for node in plan.topological():
        items.append((
            node.op.value,
            node.name,
            tuple(inp.name for inp in node.inputs),
            node.selectivity,
            node.out_row_nbytes,
            node.params,
        ))
    return digest("plan", plan.name, items)


def calibration_fingerprint(device: DeviceSpec) -> str:
    """Hash of every calibration constant of a simulated device (GPU,
    PCIe, CPU) plus the device-level knobs (copy engines)."""
    return digest("calibration", device.calib, device.num_copy_engines)


def cluster_fingerprint(num_devices: int, scheme: str, seed: int,
                        pcie_sharers: int | None = None) -> str:
    """Hash of a cluster shape (ClusterSpec-equivalent identity)."""
    return digest("cluster", num_devices, scheme, seed, pcie_sharers)
