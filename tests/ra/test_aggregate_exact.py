"""Byte-level oracle for ``ra.arithmetic.aggregate``.

``loop_aggregate`` below is the per-group loop ``aggregate`` used to be:
structured-array ``np.unique`` over the packed keys, ``np.split`` into
segments, and one NumPy 1-D reduction per segment.  The vectorised kernel
must reproduce it exactly -- same fields, key, dtypes and ``tobytes()`` of
every column -- over every dtype the relations carry, with NaN and signed
zeros in keys and values, empty inputs, zero to three key columns, and
segment lengths on both sides of NumPy's pairwise-summation block sizes.

The 22-query differential at the bottom runs every TPC-H plan with this
loop patched in and with the real kernel, and compares result bytes: the
differential validator cannot, since the reference interpreter calls the
same kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RelationError
from repro.ra import arithmetic
from repro.ra.arithmetic import AGG_FUNCS, AggSpec, aggregate
from repro.ra.relation import Relation
from repro.ra.rows import pack_rows


def loop_aggregate(rel, group_by, aggs):
    """The reference: the per-group loop, kept verbatim."""
    if not aggs:
        raise RelationError("aggregate needs at least one output")
    for n in group_by:
        if n not in rel.columns:
            raise RelationError(f"group-by field {n!r} not in relation")

    if rel.num_rows == 0 and group_by:
        # no rows -> no groups: empty output with the right schema
        cols: dict[str, np.ndarray] = {n: rel.column(n)[:0] for n in group_by}
        for name, spec in aggs.items():
            if spec.func in ("count", "count_distinct"):
                cols[name] = np.empty(0, dtype=np.int64)
            else:
                cols[name] = rel.column(spec.field)[:0].astype(np.float64)
        return Relation(cols, key=group_by[0])

    if group_by:
        packed = pack_rows(rel, group_by)
        uniq, inverse, counts = np.unique(packed, return_inverse=True, return_counts=True)
        n_groups = len(uniq)
        order = np.argsort(inverse, kind="stable")
        boundaries = np.cumsum(counts)[:-1]
        group_cols = {
            n: rel.column(n)[order[np.concatenate([[0], boundaries])]]
            for n in group_by
        }
    else:
        n_groups = 1
        inverse = np.zeros(rel.num_rows, dtype=np.int64)
        counts = np.array([rel.num_rows])
        order = np.arange(rel.num_rows)
        boundaries = np.array([], dtype=np.int64)
        group_cols = {}

    out: dict[str, np.ndarray] = dict(group_cols)
    for name, spec in aggs.items():
        if spec.func == "count":
            out[name] = counts.astype(np.int64)
            continue
        values = rel.column(spec.field)[order]
        segments = np.split(values, boundaries) if n_groups > 1 else [values]
        if spec.func == "count_distinct":
            out[name] = np.array([len(np.unique(seg)) for seg in segments],
                                 dtype=np.int64)
            continue
        if spec.func == "sum":
            result = np.array([seg.sum() for seg in segments])
        elif spec.func == "mean":
            result = np.array([seg.mean() if len(seg) else np.nan for seg in segments])
        elif spec.func == "min":
            result = np.array([seg.min() for seg in segments])
        elif spec.func == "max":
            result = np.array([seg.max() for seg in segments])
        out[name] = result

    key = group_by[0] if group_by else next(iter(out))
    return Relation(out, key=key)


# -- data ----------------------------------------------------------------------

DTYPES = ("int8", "int32", "int64", "bool", "float32", "float64", "unicode")
WORDS = np.array(["", "a", "ab", "b", "ba", "zz", "ß"])


def _values(rng, dtype: str, n: int, distinct: int | None = None) -> np.ndarray:
    """`n` values of `dtype`; floats carry NaN, 0.0 and -0.0.  With
    `distinct`, draw from that many values so keys repeat."""
    if dtype == "unicode":
        pool = WORDS[:distinct] if distinct else WORDS
        return rng.choice(pool, n)
    if dtype == "bool":
        return rng.random(n) < 0.5
    if dtype.startswith("int"):
        info = np.iinfo(dtype)
        hi = distinct if distinct else int(info.max)
        lo = 0 if distinct else int(info.min)
        return rng.integers(lo, hi, n, endpoint=True, dtype=dtype)
    pool_size = distinct if distinct else n
    pool = (rng.standard_normal(pool_size) * 10 ** rng.integers(0, 6)).astype(dtype)
    pool[rng.random(pool_size) < 0.2] = np.nan
    pool[rng.random(pool_size) < 0.2] = 0.0
    pool[rng.random(pool_size) < 0.2] = -0.0
    return rng.choice(pool, n)


def _relation(rng, n: int, key_dtypes, value_dtypes, distinct: int = 4):
    cols = {f"k{i}": _values(rng, d, n, distinct) for i, d in enumerate(key_dtypes)}
    cols.update({f"v_{d}": _values(rng, d, n) for d in value_dtypes})
    return Relation(cols)


def _all_aggs(rel: Relation) -> dict[str, AggSpec]:
    aggs = {"n": AggSpec("count")}
    for field in rel.fields:
        if field.startswith("v_"):
            for func in AGG_FUNCS:
                if func != "count":
                    aggs[f"{func}_{field}"] = AggSpec(func, field)
    return aggs


def _outcome(fn, rel, group_by, aggs):
    try:
        return fn(rel, group_by, aggs)
    except Exception as exc:  # compared by type against the reference
        return exc


def _unicode_extreme(rel, group_by, spec: AggSpec) -> np.ndarray:
    """Expected string min/max, which the loop cannot compute (NumPy has no
    minimum/maximum loop for fixed-width unicode): the loop's answer over
    the strings' order-preserving integer ranks, mapped back."""
    uniq, ranks = np.unique(rel.column(spec.field), return_inverse=True)
    coded = rel.with_columns({spec.field: ranks})
    return uniq[loop_aggregate(coded, group_by, {"x": spec}).column("x")]


def assert_same_as_loop(rel: Relation, group_by: list[str],
                        aggs: dict[str, AggSpec] | None = None) -> None:
    aggs = _all_aggs(rel) if aggs is None else aggs
    for name, spec in aggs.items():
        want = _outcome(loop_aggregate, rel, group_by, {name: spec})
        got = _outcome(aggregate, rel, group_by, {name: spec})
        if (isinstance(want, TypeError) and spec.func in ("min", "max")
                and rel.num_rows and rel.column(spec.field).dtype.kind == "U"):
            groups = loop_aggregate(rel, group_by, {"n": AggSpec("count")})
            want = Relation({**{n: groups.column(n) for n in group_by},
                             name: _unicode_extreme(rel, group_by, spec)},
                            key=(group_by or [name])[0])
        if isinstance(want, Exception):
            assert type(got) is type(want), (name, want, got)
            continue
        assert not isinstance(got, Exception), (name, got)
        assert got.fields == want.fields and got.key == want.key, name
        for field in want.fields:
            a, b = got.column(field), want.column(field)
            assert a.dtype == b.dtype, (name, field, a.dtype, b.dtype)
            assert a.tobytes() == b.tobytes(), (name, field, a, b)


# -- the oracle ----------------------------------------------------------------

@pytest.mark.parametrize("seed", range(40))
def test_random_relations_match_loop_bytewise(seed):
    rng = np.random.default_rng(seed)
    n_keys = seed % 4
    key_dtypes = list(rng.choice(DTYPES, n_keys))
    rel = _relation(rng, int(rng.integers(1, 400)), key_dtypes, DTYPES,
                    distinct=int(rng.integers(1, 6)))
    assert_same_as_loop(rel, [f"k{i}" for i in range(n_keys)])


@pytest.mark.parametrize("key_dtype", DTYPES)
def test_every_key_dtype_with_nan_and_signed_zero_keys(key_dtype):
    rng = np.random.default_rng(7)
    keys = _values(rng, key_dtype, 300, distinct=3)
    if key_dtype.startswith("float"):
        # 60 NaN keys: far past the 16 elements the structured sort orders
        # by insertion, so its unstable partitioning decides the order of
        # the NaN groups
        keys[::5], keys[1::5], keys[2::5] = np.nan, -0.0, 0.0
    rel = Relation({"k0": keys, "k1": _values(rng, "int8", 300, distinct=3),
                    "v_float32": _values(rng, "float32", 300),
                    "v_float64": _values(rng, "float64", 300)})
    assert_same_as_loop(rel, ["k0"])
    assert_same_as_loop(rel, ["k0", "k1"])
    assert_same_as_loop(rel, ["k1", "k0"])


def test_nan_keys_each_form_a_group():
    rel = Relation({"k": np.array([np.nan, 1.0, np.nan, -0.0, 0.0]),
                    "v": np.arange(5.0)})
    out = aggregate(rel, ["k"], {"n": AggSpec("count")})
    assert out.column("n").tolist() == [2, 1, 1, 1]
    assert_same_as_loop(rel, ["k"])


def test_segment_lengths_1_to_300():
    # group g has g + 1 rows, rows shuffled: every segment length from 1 to
    # 300 reduces, both under 8 (NumPy's sequential tail) and past 128
    # (its pairwise block)
    rng = np.random.default_rng(3)
    keys = np.repeat(np.arange(300), np.arange(1, 301))
    rng.shuffle(keys)
    rel = Relation({"k": keys.astype(np.int32),
                    **{f"v_{d}": _values(rng, d, len(keys))
                       for d in ("float32", "float64", "int64", "int8")}})
    assert_same_as_loop(rel, ["k"])


def test_segments_longer_than_a_block():
    rng = np.random.default_rng(5)
    length = arithmetic._BLOCK_MAX_LEN
    keys = np.repeat(np.arange(4), [1, length, length + 1, 3 * length])
    rng.shuffle(keys)
    rel = Relation({"k": keys, **{f"v_{d}": _values(rng, d, len(keys))
                                  for d in ("float32", "float64", "int64")}})
    assert_same_as_loop(rel, ["k"])
    assert_same_as_loop(rel, [])


@pytest.mark.parametrize("n_keys", [0, 1, 2, 3])
@pytest.mark.parametrize("rows", [0, 1, 2, 17])
def test_small_inputs_with_and_without_group_by(n_keys, rows):
    rng = np.random.default_rng(rows * 10 + n_keys)
    rel = _relation(rng, rows, ["int64", "float32", "unicode"][:n_keys], DTYPES)
    assert_same_as_loop(rel, [f"k{i}" for i in range(n_keys)])


def test_empty_min_without_group_by_still_raises():
    rel = Relation({"v": np.empty(0, dtype=np.float32)})
    with pytest.raises(ValueError):
        aggregate(rel, [], {"m": AggSpec("min", "v")})
    with pytest.raises(ValueError):
        loop_aggregate(rel, [], {"m": AggSpec("min", "v")})


def test_unicode_min_max_per_group():
    rel = Relation({"k": np.array([1, 0, 1, 0, 1]),
                    "s": np.array(["b", "zz", "a", "", "ab"])})
    out = aggregate(rel, ["k"], {"lo": AggSpec("min", "s"),
                                 "hi": AggSpec("max", "s")})
    assert out.column("lo").tolist() == ["", "a"]
    assert out.column("hi").tolist() == ["zz", "b"]
    assert out.column("lo").dtype == rel.column("s").dtype


# -- the NumPy invariant the kernel rests on -----------------------------------

@pytest.mark.parametrize("dtype", ["float32", "float64", "int64"])
def test_numpy_block_rows_reduce_like_1d_segments(dtype):
    """`aggregate`'s exactness rests on this: reducing the rows of a
    C-contiguous (k, L) block along axis 1 runs NumPy's 1-D kernel on each
    row, so `block.sum(axis=1)[i]` has the bits of `block[i].sum()` (float
    sums are pairwise, and the pairing depends only on L).  A NumPy upgrade
    that changes the reduction order must fail here rather than silently
    change query results."""
    rng = np.random.default_rng(11)
    lengths = [*range(1, 301), 511, 1000, 4095, arithmetic._BLOCK_MAX_LEN]
    for length in lengths:
        if dtype == "int64":
            block = rng.integers(-2**62, 2**62, (5, length))
        else:
            block = _values(rng, dtype, 5 * length).reshape(5, length)
        for func in ("sum", "mean", "min", "max"):
            got = getattr(block, func)(axis=1)
            want = np.array([getattr(block[i].copy(), func)() for i in range(5)])
            assert got.dtype == want.dtype, (length, func)
            assert got.tobytes() == want.tobytes(), (length, func)


# -- 22-query result-bytes differential ----------------------------------------

@pytest.mark.parametrize("scale_factor,seed", [
    (0.002, 1992),
    (0.002, 7),
    (0.004, 1992),
])
def test_tpch_results_identical_under_loop_kernel(scale_factor, seed, monkeypatch):
    from repro.frontend import compile_sql, run_plan
    from repro.tpch.catalog import CATALOG, QUERIES, tpch_dataset, tpch_source_rows

    tables = tpch_dataset(scale_factor=scale_factor, seed=seed)
    rows = tpch_source_rows(scale_factor)
    loop_calls = []

    def counted_loop(*args):
        loop_calls.append(1)
        return loop_aggregate(*args)

    for name in sorted(QUERIES):
        compiled = compile_sql(QUERIES[name], CATALOG, source_rows=rows, name=name)
        got = run_plan(compiled, tables)
        with monkeypatch.context() as m:
            m.setattr(arithmetic, "aggregate", counted_loop)
            want = run_plan(compiled, tables)
        assert got.fields == want.fields, name
        for field in want.fields:
            a, b = got.column(field), want.column(field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, field)
    assert len(loop_calls) >= 22, "the loop kernel was not patched in"
