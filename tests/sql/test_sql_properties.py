"""Property-based tests for the SQL front end.

Random queries are generated structurally, rendered to SQL text, compiled
through the frontend, and executed -- the results must match the
directly-constructed reference computation and, byte for byte, the
frontend's reference interpreter.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend import (
    Catalog, Column, Table, compare_relations, compile_sql,
    reference_execute, run_plan,
)
from repro.ra import Relation
from repro.sql import parse

FIELDS = ["k", "v", "w"]
CAT = Catalog([Table("t", tuple(Column(f, "int") for f in FIELDS))])
CMPS = ["<", "<=", ">", ">=", "=", "!="]

comparison_st = st.tuples(st.sampled_from(FIELDS), st.sampled_from(CMPS),
                          st.integers(0, 60))


def _rel(seed, n=3000):
    rng = np.random.default_rng(seed)
    return Relation({f: rng.integers(0, 60, n).astype(np.int32)
                     for f in FIELDS})


def plan_of(sql):
    return compile_sql(sql, CAT).plan


def run(sql, rel):
    """Plan output, after checking it against the reference interpreter."""
    compiled = compile_sql(sql, CAT)
    out = run_plan(compiled, {"t": rel})
    want = reference_execute(compiled.bound, {"t": rel})
    assert compare_relations(out, want) is None
    return out


def _mask(rel, comparisons, connector):
    import operator
    ops = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
           ">=": operator.ge, "=": operator.eq, "!=": operator.ne}
    masks = [ops[c](rel[f], t) for f, c, t in comparisons]
    out = masks[0]
    for m in masks[1:]:
        out = (out & m) if connector == "AND" else (out | m)
    return out


@given(st.lists(comparison_st, min_size=1, max_size=4),
       st.sampled_from(["AND", "OR"]), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_where_clause_matches_numpy(comparisons, connector, seed):
    rel = _rel(seed % 1000)
    where = f" {connector} ".join(f"{f} {c} {t}" for f, c, t in comparisons)
    out = run(f"SELECT k, v, w FROM t WHERE {where}", rel)
    expected = int(_mask(rel, comparisons, connector).sum())
    assert out.num_rows == expected


@given(st.sampled_from(FIELDS), st.sampled_from(FIELDS),
       st.integers(1, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_grouped_sum_matches_numpy(group_field, value_field, scale, seed):
    rel = _rel(seed % 1000)
    out = run(
        f"SELECT {group_field}, SUM({value_field} * {scale}) AS s "
        f"FROM t GROUP BY {group_field} ORDER BY {group_field}", rel)
    for g, s in zip(out[group_field], out["s"]):
        mask = rel[group_field] == g
        assert int(s) == int(rel[value_field][mask].sum()) * scale


@given(st.lists(comparison_st, min_size=1, max_size=3),
       st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_parse_is_deterministic_and_stable(comparisons, seed):
    where = " AND ".join(f"{f} {c} {t}" for f, c, t in comparisons)
    sql = f"SELECT k FROM t WHERE {where}"
    q1, q2 = parse(sql), parse(sql)
    assert q1.where == q2.where
    assert [i.alias for i in q1.items] == [i.alias for i in q2.items]


@given(st.integers(0, 60), st.integers(0, 60), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_between_equals_two_comparisons(lo, hi, seed):
    rel = _rel(seed % 1000)
    ra = run(f"SELECT k FROM t WHERE k BETWEEN {lo} AND {hi}", rel)
    rb = run(f"SELECT k FROM t WHERE k >= {lo} AND k <= {hi}", rel)
    assert ra.to_tuples() == rb.to_tuples()


@given(st.lists(comparison_st, min_size=1, max_size=3),
       st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_sql_plans_survive_the_full_pipeline(comparisons, seed):
    """Every generated query must compile and fuse without error."""
    from repro.core.passes import compile_plan
    where = " AND ".join(f"{f} {c} {t}" for f, c, t in comparisons)
    plan = plan_of(f"SELECT k FROM t WHERE {where}")
    cp = compile_plan(plan, {"t": 1_000_000})
    assert cp.num_kernels >= 1
    assert cp.run().makespan > 0
