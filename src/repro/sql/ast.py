"""SQL query AST (the parser's output, the binder's input)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ra.expr import Expr, Predicate


@dataclass(frozen=True)
class Aggregate:
    """SUM/COUNT/AVG/MIN/MAX over an expression (COUNT may be COUNT(*))."""

    func: str                 # 'sum' | 'count' | 'mean' | 'min' | 'max'
    argument: Expr | None     # None only for COUNT(*)
    distinct: bool = False    # COUNT(DISTINCT x)


@dataclass(frozen=True)
class AggExpr(Expr):
    """An aggregate appearing *inside* a scalar expression.

    ``SUM(a) / SUM(b)`` parses to ``BinOp('/', AggExpr(...), AggExpr(...))``;
    the frontend binder pulls the AggExpr leaves into an AGGREGATE node and
    rewrites the surrounding expression over the aggregate outputs.
    """

    func: str
    argument: Expr | None
    distinct: bool = False

    def evaluate(self, columns):
        raise NotImplementedError(
            "aggregates must be bound before evaluation")

    def fields(self):
        return self.argument.fields() if self.argument is not None else set()

    def instruction_estimate(self):
        arg = self.argument.instruction_estimate() if self.argument else 0
        return 1 + arg


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    """A parenthesized single-value subquery used as a scalar."""

    query: "Query"

    def evaluate(self, columns):
        raise NotImplementedError(
            "scalar subqueries must be decorrelated before evaluation")

    def fields(self):
        return set()

    def instruction_estimate(self):
        return 1


@dataclass(frozen=True)
class Exists(Predicate):
    """``[NOT] EXISTS (subquery)``."""

    query: "Query"
    negated: bool = False

    def evaluate(self, columns):
        raise NotImplementedError(
            "EXISTS must be decorrelated before evaluation")

    def fields(self):
        return set()

    def instruction_estimate(self):
        return 1


@dataclass(frozen=True)
class InSubquery(Predicate):
    """``expr [NOT] IN (subquery)``."""

    expr: Expr
    query: "Query"
    negated: bool = False

    def evaluate(self, columns):
        raise NotImplementedError(
            "IN (subquery) must be decorrelated before evaluation")

    def fields(self):
        return self.expr.fields()

    def instruction_estimate(self):
        return 1 + self.expr.instruction_estimate()


@dataclass(frozen=True)
class SelectItem:
    """One output column: a plain/computed expression or an aggregate."""

    alias: str
    expr: Expr | None = None
    agg: Aggregate | None = None

    def __post_init__(self):
        if (self.expr is None) == (self.agg is None):
            raise ValueError("SelectItem needs exactly one of expr/agg")


@dataclass(frozen=True)
class TableRef:
    """One entry of the FROM list: a base table or a derived table."""

    table: str
    alias: str | None = None
    subquery: "Query | None" = None

    @property
    def name(self) -> str:
        return self.alias or self.table


@dataclass(frozen=True)
class JoinClause:
    table: str
    using: str = ""            # JOIN <table> USING (<col>)
    kind: str = "inner"        # 'inner' | 'left' | 'cross'
    alias: str | None = None
    on: Predicate | None = None  # JOIN <table> ON <pred>
    subquery: "Query | None" = None


@dataclass
class Query:
    items: list[SelectItem]
    table: str
    joins: list[JoinClause] = field(default_factory=list)
    where: Predicate | None = None
    group_by: list[str] = field(default_factory=list)
    having: Predicate | None = None
    order_by: list[tuple[str, bool]] = field(default_factory=list)  # (col, desc)
    distinct: bool = False
    tables: list[TableRef] = field(default_factory=list)  # full FROM list
    limit: int | None = None
    set_op: "tuple[str, Query] | None" = None  # ('union'|'union_all'|'except'|'except_all', rhs)
