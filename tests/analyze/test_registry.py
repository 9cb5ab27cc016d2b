"""The diagnostic-code registry is the single source of truth: every
pass's ``codes`` tuple, every code any pass emits, and every docs table
row must agree with it."""

import re
from pathlib import Path

from repro.analyze.diagnostics import REGISTRY, Severity, registered, \
    registry_table

DOCS = Path(__file__).resolve().parents[2] / "docs"

#: `| MEM701 | error | ... |` rows anywhere in docs/*.md
ROW = re.compile(r"^\|\s*([A-Z]{3}\d{3})\s*\|\s*(error|warning|info)\s*\|",
                 re.MULTILINE)


def documented_codes() -> dict[str, str]:
    """code -> severity string, from every markdown table under docs/."""
    out: dict[str, str] = {}
    for md in sorted(DOCS.glob("*.md")):
        for code, severity in ROW.findall(md.read_text()):
            assert out.get(code, severity) == severity, (
                f"{code} documented with conflicting severities")
            out[code] = severity
    return out


class TestRegistry:
    def test_lookup_and_table(self):
        info = registered("MEM701")
        assert info.severity is Severity.ERROR
        mem = registry_table("MEM")
        assert [i.code for i in mem] == [
            f"MEM70{k}" for k in range(1, 7)]
        assert len(registry_table()) == len(REGISTRY)

    def test_every_pass_declares_registered_codes(self):
        from repro.analyze.framework import Analyzer
        an = Analyzer()
        passes = [an.plan_lints, an.fusion_check, an.stream_check,
                  an.ir_lints, an.cluster_lints, an.opt_lints,
                  an.memory_check]
        declared = set()
        for p in passes:
            assert p.codes, p.name
            for code in p.codes:
                assert code in REGISTRY, f"{p.name} emits unregistered {code}"
            declared.update(p.codes)
        # the registry carries no orphan codes either
        assert declared == set(REGISTRY)

    def test_docs_tables_match_registry(self):
        docs = documented_codes()
        for code, severity in docs.items():
            assert code in REGISTRY, f"docs table row for unknown {code}"
            assert str(REGISTRY[code].severity) == severity, (
                f"{code}: docs say {severity}, registry says "
                f"{REGISTRY[code].severity}")

    def test_every_code_is_documented(self):
        docs = documented_codes()
        missing = sorted(set(REGISTRY) - set(docs))
        assert not missing, f"codes missing from docs tables: {missing}"

    def test_severity_renders_lowercase(self):
        assert str(Severity.ERROR) == "error"
        assert str(Severity.WARNING) == "warning"
        assert str(Severity.INFO) == "info"
