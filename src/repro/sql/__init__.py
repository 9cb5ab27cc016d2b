"""SQL text -> syntax tree: the lexer, the parser and the AST.

The grammar covers the analytic subset data warehousing needs -- filters,
joins, subqueries, computed expressions, grouped aggregation, ordering,
top-N and set operations.  Binding against a schema and lowering to the
plans the fusion/fission compiler consumes live in :mod:`repro.frontend`:

>>> from repro.frontend import compile_sql
>>> from repro.tpch.catalog import CATALOG
>>> compiled = compile_sql('''
...     SELECT l_returnflag, SUM(l_quantity) AS total
...     FROM lineitem
...     WHERE l_shipdate <= 2436 AND l_discount < 0.05
...     GROUP BY l_returnflag
...     ORDER BY l_returnflag
... ''', CATALOG)
"""

from .ast import Aggregate, Query, SelectItem
from .lexer import SqlError, Token, tokenize
from .parser import parse

__all__ = ["Aggregate", "Query", "SelectItem", "SqlError", "Token",
           "tokenize", "parse"]
