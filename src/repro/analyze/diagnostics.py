"""Structured diagnostics for the static analyzer.

Every finding is a :class:`Diagnostic` with a stable code (``PLN0xx`` /
``FUS1xx`` / ``STR2xx`` / ``IRL3xx``), a :class:`Severity`, a human
message, and a :class:`SourceLocation` naming the plan node, fusion
region, stream command, or IR instruction involved.  Stability of codes
and locations is load-bearing: the baseline/suppression format
(:mod:`repro.analyze.baseline`) matches on them, and CI fails on any
*new* error-severity finding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import AnalysisError


class Severity(enum.IntEnum):
    """Ordered severity levels (higher is worse)."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class SourceLocation:
    """Where a diagnostic points.

    ``unit`` is the analyzed artifact's name (plan name, program name,
    stream-pool label); ``kind`` says what the location names (``node``,
    ``region``, ``stream``, ``instr``, ``buffer``, ``plan``); ``name``
    is the node/region/buffer name and ``index`` an optional command or
    instruction index within the unit.
    """

    unit: str
    kind: str
    name: str = ""
    index: int | None = None

    def __str__(self) -> str:
        parts = [self.unit, self.kind]
        if self.name:
            parts.append(self.name)
        where = ":".join(parts)
        if self.index is not None:
            where += f"[{self.index}]"
        return where


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding."""

    code: str
    severity: Severity
    message: str
    location: SourceLocation
    pass_name: str = ""

    def __str__(self) -> str:
        return (f"{self.code} {self.severity} at {self.location}: "
                f"{self.message}")

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form (the CLI's ``--json`` output)."""
        return {
            "code": self.code,
            "severity": str(self.severity),
            "location": str(self.location),
            "message": self.message,
            "pass": self.pass_name,
        }


#: pinned identifier of the ``--json`` report document; bump on any
#: shape change (tests/analyze/test_json_report.py pins the layout)
JSON_SCHEMA = "repro.analyze.report/v1"


@dataclass
class AnalysisReport:
    """Everything one :class:`~repro.analyze.Analyzer` invocation found."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    passes_run: list[str] = field(default_factory=list)
    #: findings matched (and silenced) by the baseline file
    suppressed: list[Diagnostic] = field(default_factory=list)

    def extend(self, diags: list[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def merge(self, other: "AnalysisReport") -> "AnalysisReport":
        self.diagnostics.extend(other.diagnostics)
        self.suppressed.extend(other.suppressed)
        for name in other.passes_run:
            if name not in self.passes_run:
                self.passes_run.append(name)
        return self

    # -- queries ---------------------------------------------------------
    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostics survived suppression."""
        return not self.errors

    def codes(self) -> list[str]:
        return sorted({d.code for d in self.diagnostics})

    def has_code(self, code: str) -> bool:
        return any(d.code == code for d in self.diagnostics)

    def raise_if_errors(self) -> "AnalysisReport":
        """Raise :class:`~repro.errors.AnalysisError` when errors exist."""
        if self.errors:
            raise AnalysisError(self.errors)
        return self

    # -- rendering -------------------------------------------------------
    def summary(self) -> dict[str, object]:
        """Flat deterministic mapping (trace metadata, CLI ``--json``)."""
        counts: dict[str, int] = {}
        for d in self.diagnostics:
            counts[d.code] = counts.get(d.code, 0) + 1
        return {
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.by_severity(Severity.INFO)),
            "suppressed": len(self.suppressed),
            "passes": sorted(self.passes_run),
            "codes": {code: counts[code] for code in sorted(counts)},
        }

    def json_payload(self, targets: int = 0,
                     stale: list = ()) -> dict[str, object]:
        """The CLI's ``--json`` document (schema :data:`JSON_SCHEMA`).

        Findings are sorted by ``(code, location, message, pass)`` so two
        runs over the same corpus render byte-identical output (checked
        with ``cmp`` in CI).  ``stale`` lists baseline suppressions that
        matched nothing.
        """
        findings = sorted(
            self.diagnostics,
            key=lambda d: (d.code, str(d.location), d.message, d.pass_name))
        return {
            "schema": JSON_SCHEMA,
            "targets": targets,
            "summary": self.summary(),
            "diagnostics": [d.to_dict() for d in findings],
            "stale_suppressions": [s.render() for s in stale],
        }

    def render(self) -> str:
        lines = []
        order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}
        for d in sorted(self.diagnostics,
                        key=lambda d: (order[d.severity], d.code,
                                       str(d.location))):
            lines.append(str(d))
        s = self.summary()
        lines.append(
            f"analysis: {s['errors']} error(s), {s['warnings']} warning(s), "
            f"{s['infos']} info(s), {s['suppressed']} suppressed "
            f"[{', '.join(self.passes_run)}]")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the central diagnostic-code registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CodeInfo:
    """One registered diagnostic code: its severity and one-line doc."""

    code: str
    severity: Severity
    doc: str


#: every diagnostic code any pass may emit, with its declared severity.
#: Passes must emit exactly these severities, and the docs tables must
#: agree -- both are asserted by ``tests/analyze/test_registry.py``.
_CODES: tuple[CodeInfo, ...] = (
    # plan lints (plan_lints.py)
    CodeInfo("PLN001", Severity.ERROR, "operator arity mismatch"),
    CodeInfo("PLN002", Severity.ERROR, "duplicate node name"),
    CodeInfo("PLN003", Severity.ERROR, "dependency cycle in the plan DAG"),
    CodeInfo("PLN004", Severity.ERROR, "node input not registered in the plan"),
    CodeInfo("PLN005", Severity.WARNING, "dead source: no consumers"),
    CodeInfo("PLN006", Severity.ERROR,
             "PROJECT keeps a field its input does not produce"),
    CodeInfo("PLN007", Severity.ERROR, "join key missing on probe/build side"),
    CodeInfo("PLN008", Severity.ERROR,
             "predicate / sort key / group-by field not in the input schema"),
    CodeInfo("PLN009", Severity.WARNING, "implausible cost annotation"),
    CodeInfo("PLN010", Severity.ERROR,
             "unbound correlated reference survived decorrelation"),
    # fusion legality (fusion_check.py)
    CodeInfo("FUS101", Severity.ERROR,
             "barrier / non-fusable op inside a fused region"),
    CodeInfo("FUS102", Severity.ERROR,
             "region chain link is not an elementwise dependence"),
    CodeInfo("FUS103", Severity.ERROR,
             "fused producer has consumers outside its region"),
    CodeInfo("FUS104", Severity.ERROR,
             "inter-region dependence cycle via side inputs"),
    CodeInfo("FUS105", Severity.ERROR, "region list not topologically ordered"),
    CodeInfo("FUS106", Severity.WARNING,
             "fused region exceeds the device register budget"),
    CodeInfo("FUS107", Severity.ERROR,
             "plan node missing from, or duplicated across, regions"),
    CodeInfo("FUS108", Severity.ERROR,
             "illegal fusion across an outer-join null-padding barrier"),
    # stream races (stream_check.py)
    CodeInfo("STR201", Severity.ERROR, "unordered write-write on one buffer"),
    CodeInfo("STR202", Severity.ERROR, "unordered read-write (missing edge)"),
    CodeInfo("STR203", Severity.ERROR,
             "read with no write ordered before it (use before upload)"),
    CodeInfo("STR204", Severity.ERROR,
             "D2H download of a buffer nothing ever writes"),
    CodeInfo("STR205", Severity.ERROR,
             "wait on an event never signaled, or signaled late (deadlock)"),
    CodeInfo("STR206", Severity.WARNING, "buffer uploaded but never read"),
    CodeInfo("STR207", Severity.INFO,
             "kernel-written buffer never read or downloaded"),
    # IR lints (ir_lints.py)
    CodeInfo("IRL301", Severity.ERROR, "register used before any definition"),
    CodeInfo("IRL302", Severity.WARNING, "dead store"),
    CodeInfo("IRL303", Severity.ERROR,
             "guard predicate register never defined"),
    CodeInfo("IRL304", Severity.ERROR, "branch to an undefined label"),
    # cluster lints (cluster_lints.py)
    CodeInfo("CLU401", Severity.ERROR,
             "keyed join with sides not co-partitioned marked shard-local"),
    CodeInfo("CLU402", Severity.WARNING,
             "partition skew: max/mean driver shard rows >= 2x"),
    CodeInfo("CLU403", Severity.WARNING,
             "exchange re-partitions on the existing partition key"),
    CodeInfo("CLU404", Severity.WARNING,
             "replicated relation larger than the largest driver shard"),
    CodeInfo("CLU405", Severity.INFO, "distributed plan with a single shard"),
    CodeInfo("CLU406", Severity.WARNING,
             "decomposable suffix aggregate ships raw frontier rows"),
    CodeInfo("CLU407", Severity.WARNING,
             "pre-aggregated distribution merges flat on >= 4 shards"),
    # optimizer lints (opt_lints.py)
    CodeInfo("OPT501", Severity.WARNING,
             "forced strategy >= 2x the best priced option"),
    CodeInfo("OPT502", Severity.INFO,
             "host baseline beats every GPU option but a GPU strategy "
             "is forced"),
    # memory safety (memory_check.py)
    CodeInfo("MEM701", Severity.ERROR,
             "certain OOM: peak lower bound exceeds the device budget "
             "with no chunking escape"),
    CodeInfo("MEM702", Severity.WARNING,
             "possible OOM: the budget falls inside the peak interval"),
    CodeInfo("MEM703", Severity.INFO,
             "chunked / pipelined execution proven sufficient"),
    CodeInfo("MEM704", Severity.WARNING,
             "exchange hot destination may exceed the device budget"),
    CodeInfo("MEM705", Severity.INFO,
             "pre-aggregation is load-bearing for memory fit"),
    CodeInfo("MEM706", Severity.INFO,
             "fusion-savings report: intermediate bytes eliminated"),
)

REGISTRY: dict[str, CodeInfo] = {info.code: info for info in _CODES}
assert len(REGISTRY) == len(_CODES), "duplicate diagnostic code registered"


def registered(code: str) -> CodeInfo:
    """The registry entry for ``code`` (KeyError on unknown codes)."""
    return REGISTRY[code]


def registry_table(prefix: str = "") -> list[CodeInfo]:
    """Registered codes (optionally one family), in code order."""
    return [info for code, info in sorted(REGISTRY.items())
            if code.startswith(prefix)]
