"""Binder error paths: every rejection carries a stable, specific message.

The messages are part of the CLI contract (``repro sql`` prints them
verbatim), so these tests pin the exact text.
"""

from __future__ import annotations

import pytest

from repro.frontend import BindError, Catalog, Column, Table, bind_sql
from repro.sql.lexer import SqlError

CAT = Catalog([
    Table("t", (
        Column("a", "int"),
        Column("b", "float"),
        Column("name", "str"),
        Column("tag", "code", pool=("red", "green", "blue")),
        Column("day", "date"),
    )),
    Table("u", (
        Column("a", "int"),
        Column("c", "int"),
    )),
])


def _err(sql: str) -> str:
    with pytest.raises(BindError) as exc:
        bind_sql(sql, CAT)
    return str(exc.value)


class TestUnknownNames:
    def test_unknown_column(self):
        assert _err("SELECT x FROM t") == "unknown column 'x'"

    def test_unknown_qualified_column(self):
        assert _err("SELECT t.x FROM t") == \
            "unknown column 'x' in table 't'"

    def test_unknown_table(self):
        msg = _err("SELECT a FROM missing")
        assert msg == "unknown table 'missing'; have ['t', 'u']"

    def test_unknown_alias(self):
        assert _err("SELECT z.a FROM t") == "unknown table or alias 'z'"

    def test_alias_shadows_table_name(self):
        # once 't' is aliased, the bare table name is no longer in scope
        assert _err("SELECT t.a FROM t AS s") == "unknown table or alias 't'"


class TestAmbiguity:
    def test_ambiguous_unqualified_column(self):
        assert _err("SELECT a FROM t, u") == \
            "ambiguous column 'a': present in t, u"

    def test_qualification_resolves_ambiguity(self):
        bound = bind_sql("SELECT t.a AS ta FROM t, u WHERE t.a = u.c", CAT)
        assert [i.alias for i in bound.items] == ["ta"]


class TestTypeMismatch:
    def test_int_vs_string_literal(self):
        assert _err("SELECT a FROM t WHERE a = 'x'") == \
            "type mismatch: cannot compare a (int) with 'x' (str)"

    def test_string_vs_numeric_column(self):
        msg = _err("SELECT a FROM t WHERE name = b")
        assert msg == "type mismatch: cannot compare name (str) with b (float)"

    def test_string_ordering_comparison(self):
        assert _err("SELECT a FROM t WHERE name < 'x'") == \
            "ordering comparisons on string columns are not supported"

    def test_in_list_strings_for_numeric(self):
        assert _err("SELECT a FROM t WHERE a IN ('x', 'y')") == \
            "type mismatch: cannot compare a (int) with string literals"

    def test_like_on_numeric(self):
        assert _err("SELECT a FROM t WHERE a LIKE '%x%'") == \
            "LIKE needs a string column, got a (int)"

    def test_arithmetic_on_string(self):
        msg = _err("SELECT name + 1 AS z FROM t")
        assert msg.startswith("arithmetic needs numeric operands")


class TestEncodedColumns:
    def test_range_compare_on_code_column(self):
        msg = _err("SELECT a FROM t WHERE tag < 'green'")
        assert msg.startswith("only =/<> comparisons are supported")

    def test_in_list_for_code_column_needs_strings(self):
        msg = _err("SELECT a FROM t WHERE tag IN (1, 2)")
        assert msg.startswith("IN list for encoded string column")


class TestShapeErrors:
    def test_order_by_must_be_selected(self):
        assert _err("SELECT a FROM t ORDER BY b") == \
            "ORDER BY column 'b' must appear in the SELECT list"

    def test_group_by_without_aggregates(self):
        assert _err("SELECT a FROM t GROUP BY a") == \
            "GROUP BY without aggregates is not supported"

    def test_group_by_with_having_aggregate_binds(self):
        bound = bind_sql("SELECT a FROM t GROUP BY a HAVING COUNT(*) > 1",
                         CAT)
        assert bound.group_by == ["a"]

    def test_set_op_arity_mismatch(self):
        msg = _err("SELECT a FROM t UNION ALL SELECT a, c FROM u")
        assert msg == "set operation arity mismatch: 1 vs 2 columns"

    def test_bind_error_is_sql_error(self):
        # the CLI catches SqlError once for parse + bind failures alike
        assert issubclass(BindError, SqlError)
