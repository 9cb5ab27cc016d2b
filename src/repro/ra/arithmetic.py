"""Arithmetic (ARITH) and AGGREGATION operators.

Data-warehousing queries mix RA operators with arithmetic over fields --
the paper's canonical example is the total discounted price
``sum((1 - discount) * price)`` (Fig 2(h)) -- and grouped aggregation
(Fig 2(g)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import RelationError
from .expr import Expr
from .relation import Relation
from .rows import pack_rows

#: Supported aggregate functions.
AGG_FUNCS = ("sum", "mean", "count", "count_distinct", "min", "max")


def arith(rel: Relation, outputs: Mapping[str, Expr], keep: list[str] | None = None
          ) -> Relation:
    """ARITH: compute new fields from expressions over existing fields.

    `keep` lists input fields to retain; by default all inputs are kept
    (PROJECT discards sources explicitly, per Fig 2(h)).
    """
    base = rel.fields if keep is None else keep
    for n in base:
        if n not in rel.columns:
            raise RelationError(f"keep field {n!r} not in relation")
    cols: dict[str, np.ndarray] = {n: rel.column(n) for n in base}
    for name, expr in outputs.items():
        missing = expr.fields() - set(rel.fields)
        if missing:
            raise RelationError(f"expression for {name!r} uses unknown fields {missing}")
        value = expr.evaluate(rel.columns)
        value = np.broadcast_to(np.asarray(value), (rel.num_rows,)).copy()
        cols[name] = value
    key = rel.key if rel.key in cols else next(iter(cols))
    return Relation(cols, key=key)


@dataclass(frozen=True)
class AggSpec:
    """One aggregate output: `func` applied to `field` (field ignored for count)."""

    func: str
    field: str | None = None

    def __post_init__(self):
        if self.func not in AGG_FUNCS:
            raise RelationError(f"unknown aggregate {self.func!r}; have {AGG_FUNCS}")
        if self.func not in ("count",) and self.field is None:
            raise RelationError(f"aggregate {self.func!r} needs a field")


def aggregate(rel: Relation, group_by: list[str],
              aggs: Mapping[str, AggSpec]) -> Relation:
    """AGGREGATION: grouped reduction.

    Returns one tuple per distinct `group_by` value combination, ordered by
    group key, with one output field per entry of `aggs`.  Each group's
    result is bit-for-bit what NumPy's 1-D reduction returns over that
    group's rows in stable input order (``seg.sum()``, ``seg.mean()``, ...;
    see docs/MODEL.md "Aggregation numeric contract").
    """
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
        inverse, counts = _group_ids(rel, group_by)
        order = np.argsort(inverse, kind="stable")
    else:
        inverse = np.zeros(rel.num_rows, dtype=np.int64)
        counts = np.array([rel.num_rows])
        order = np.arange(rel.num_rows)
    segments = _Segments(order, counts)

    out: dict[str, np.ndarray] = {
        n: rel.column(n)[order[segments.starts]] for n in group_by}
    for name, spec in aggs.items():
        if spec.func == "count":
            out[name] = counts.astype(np.int64)
            continue
        values = rel.column(spec.field)
        if spec.func == "count_distinct":
            out[name] = _count_distinct(values, inverse, len(counts))
        elif spec.func == "mean" and rel.num_rows == 0:
            # no rows and no groups: NaN, without NumPy's empty-mean warning
            out[name] = np.array([np.nan])
        elif spec.func in ("min", "max") and values.dtype.kind in "SU" and rel.num_rows:
            # NumPy has no minimum/maximum loop for fixed-width strings
            out[name] = _sorted_extreme(values, inverse, counts, spec.func)
        else:
            out[name] = segments.reduce(values, spec.func)

    key = group_by[0] if group_by else next(iter(out))
    return Relation(out, key=key)


#: segments longer than this reduce one row at a time, as 1-D arrays like
#: the old per-group loop's: the (k, L) block equivalence is checked up to
#: this length, and NumPy reduces in buffer-sized chunks when it casts
#: (integer means sum in float64)
_BLOCK_MAX_LEN = 4096


def _nan_mask(values: np.ndarray) -> np.ndarray | None:
    """Where `values` holds NaN; None for dtypes that cannot."""
    return np.isnan(values) if values.dtype.kind in "fc" else None


def _group_ids(rel: Relation, group_by: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Dense group id per row, numbered in lexicographic key order, and the
    row count per group.

    Per-column ``np.unique`` codes are combined in mixed radix and
    re-densified after each column, so the product never overflows.  A NaN
    key never equals itself, so each NaN-keyed row is its own group; their
    relative order is whatever the structured-array sort leaves, so keys
    holding NaN keep that sort.
    """
    cols = [rel.column(n) for n in group_by]
    if any(m is not None and m.any() for m in map(_nan_mask, cols)):
        _, inverse, counts = np.unique(pack_rows(rel, group_by),
                                       return_inverse=True, return_counts=True)
        return inverse, counts
    _, codes, counts = np.unique(cols[0], return_inverse=True, return_counts=True)
    for col in cols[1:]:
        uniq, col_codes = np.unique(col, return_inverse=True)
        _, codes, counts = np.unique(codes * len(uniq) + col_codes,
                                     return_inverse=True, return_counts=True)
    return codes, counts


class _Segments:
    """The groups of one aggregation, bucketed by segment length.

    All segments of one length L gather into a C-contiguous ``(k, L)``
    block reduced along axis 1.  NumPy runs the same 1-D kernel (pairwise
    summation for floats) on each row as it does on a lone segment, so
    every group's bits equal ``seg.sum()`` / ``seg.mean()`` / ...  over its
    rows in stable order; tests/ra/test_aggregate_exact.py guards this.
    """

    def __init__(self, order: np.ndarray, counts: np.ndarray):
        self.n_groups = len(counts)
        #: position of each group's first row in `order`
        self.starts = starts = np.cumsum(counts) - counts
        by_len = np.argsort(counts, kind="stable")
        cuts = np.flatnonzero(np.diff(counts[by_len])) + 1
        #: (group ids, their (k, L) block of row indices) per length L
        self.buckets = [
            (groups, order[starts[groups][:, None] + np.arange(counts[groups[0]])])
            for groups in np.split(by_len, cuts)]

    def reduce(self, values: np.ndarray, func: str) -> np.ndarray:
        out = None
        for groups, rows in self.buckets:
            block = values[rows]
            if block.shape[1] > _BLOCK_MAX_LEN:
                part = np.array([getattr(row, func)() for row in block])
            else:
                part = getattr(block, func)(axis=1)
            if out is None:
                out = np.empty(self.n_groups, dtype=part.dtype)
            out[groups] = part
        return out


def _count_distinct(values: np.ndarray, inverse: np.ndarray, n_groups: int
                    ) -> np.ndarray:
    """Distinct values per group, with a group's NaNs counted as one value
    (``len(np.unique(seg))``)."""
    order = np.lexsort((values, inverse))
    v, g = values[order], inverse[order]
    differs = v[1:] != v[:-1]
    nan = _nan_mask(v)
    if nan is not None:
        differs &= ~(nan[1:] & nan[:-1])
    first = np.ones(len(v), dtype=bool)
    first[1:] = differs | (g[1:] != g[:-1])
    return np.bincount(g[first], minlength=n_groups).astype(np.int64)


def _sorted_extreme(values: np.ndarray, inverse: np.ndarray,
                    counts: np.ndarray, func: str) -> np.ndarray:
    """Per-group min/max for dtypes without a minimum/maximum ufunc loop:
    the first/last element of each group after a (value, group) sort."""
    order = np.lexsort((values, inverse))
    ends = np.cumsum(counts)
    return values[order[ends - counts if func == "min" else ends - 1]]
