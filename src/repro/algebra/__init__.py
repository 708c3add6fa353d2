"""Relational algebra substrate: columns, types, expressions, operators.

This package provides the algebra the whole reproduction is written in —
the standard bag-oriented relational operators plus the paper's higher-order
constructs (``Apply``, ``SegmentApply``), the scalar expression language with
SQL three-valued logic, and derived logical properties (keys, functional
dependencies, null-rejection, correlation analysis).
"""

from .aggregates import (AggregateDescriptor, AggregateFunction,
                         AggregateSplit, descriptor)
from .columns import Column, ColumnSet
from .datatypes import (DataType, Interval, sql_and, sql_compare, sql_not,
                        sql_or)
from .funcdeps import FDSet
from .printer import explain, plan_fingerprint, plan_signature
from .properties import (derive_fds, derive_keys, functionally_determines,
                         has_key, key_within, max_one_row, never_empty,
                         null_rejected_columns, strict_columns)
from .relational import (Apply, ConstantScan, Difference, Get, GroupBy, Join,
                         JoinKind, LocalGroupBy, Max1row, Project,
                         RelationalOp, ScalarGroupBy, SegmentApply,
                         SegmentRef, Select, Sort, Top, UnionAll,
                         clone_with_fresh_columns, collect_nodes,
                         substitute_outer_columns, transform_bottom_up)
from .scalar import (AggregateCall, And, Arithmetic, Case, ColumnRef,
                     Comparison, ExistsSubquery, Extract, InList,
                     InSubquery, IsNull, Like, Literal, Negate, Not, Or,
                     Parameter, QuantifiedComparison, ScalarExpr,
                     ScalarSubquery, column_equalities, conjunction,
                     conjuncts, disjuncts, equals, parameter_slot,
                     split_equi)

__all__ = [
    "AggregateCall", "AggregateDescriptor", "AggregateFunction",
    "AggregateSplit", "And", "Apply", "Arithmetic", "Case", "Column",
    "ColumnRef", "ColumnSet", "Comparison", "ConstantScan", "DataType",
    "Difference", "ExistsSubquery", "Extract", "FDSet", "Get", "GroupBy",
    "InList", "disjuncts",
    "InSubquery", "Interval", "IsNull", "Join", "JoinKind", "Like",
    "Literal", "LocalGroupBy", "Max1row", "Negate", "Not", "Or", "Project",
    "Parameter", "parameter_slot",
    "QuantifiedComparison", "RelationalOp", "ScalarExpr", "ScalarGroupBy",
    "ScalarSubquery", "SegmentApply", "SegmentRef", "Select", "Sort", "Top",
    "UnionAll", "clone_with_fresh_columns", "collect_nodes",
    "column_equalities", "conjunction", "conjuncts", "derive_fds",
    "derive_keys", "descriptor", "equals", "explain",
    "functionally_determines", "has_key", "key_within", "max_one_row",
    "never_empty", "null_rejected_columns", "plan_fingerprint",
    "plan_signature", "split_equi",
    "sql_and", "sql_compare", "sql_not", "sql_or", "strict_columns",
    "substitute_outer_columns", "transform_bottom_up",
]
