"""Reproduction of *Orthogonal Optimization of Subqueries and Aggregation*
(Galindo-Legaria & Joshi, SIGMOD 2001).

A complete SQL query processor in Python: parser, algebrizer, algebraic
decorrelation via the Apply operator (identities (1)–(9)), comprehensive
GroupBy optimization (reordering around joins and outerjoins, local/global
aggregate splitting, segmented execution via SegmentApply), a Volcano-style
cost-based optimizer and a vectorized (batch-at-a-time) execution engine.

Quickstart::

    from repro import Database, DataType

    db = Database()
    db.create_table("t", [("a", DataType.INTEGER), ("b", DataType.INTEGER)],
                    primary_key=("a",))
    db.insert("t", [(1, 10), (2, 20)])
    result = db.execute("select a from t where b > 15")
    print(result.rows)
"""

from .algebra import DataType, Interval
from .catalog.statistics import CardinalityCorrection, CorrectionStore
from .database import (CORRELATED, DECORRELATE_ONLY, ENGINES, FULL, MODES,
                       NAIVE, Database, ExecutionMode, ExplainOptions,
                       PreparedStatement, QueryResult)
from .feedback import (DEFAULT_Q_ERROR_THRESHOLD, FeedbackLoop,
                       NodeFeedback, PlanFeedback, q_error)
from .errors import (BindError, CatalogError, DurabilityError,
                     ExecutionError, InjectedFault,
                     OptimizerBudgetExceeded, ParameterError, PlanError,
                     ProtocolError, QueryTimeout, RecoveryError,
                     ReproError, ResourceError, ResourceExhausted,
                     ServerError, ServerOverloaded, SessionClosed,
                     SqlSyntaxError, SubqueryReturnedMultipleRows,
                     TransactionConflict, TransactionError)
from .governor import OptimizerBudget, QueryStats, ResourceGovernor
from .matview import MatViewError
from .plancache import PlanCache
# Imported last: the server package itself imports Database, so this
# keeps the import graph acyclic.
from .server import QueryServer, RetryPolicy, ServerClient, Session

__version__ = "1.5.0"

__all__ = ["BindError", "CORRELATED", "CardinalityCorrection",
           "CatalogError", "CorrectionStore", "DECORRELATE_ONLY",
           "DEFAULT_Q_ERROR_THRESHOLD",
           "DataType", "Database", "DurabilityError", "ENGINES",
           "ExecutionError",
           "ExecutionMode", "ExplainOptions", "FeedbackLoop",
           "FULL", "InjectedFault", "Interval", "MODES", "MatViewError",
           "NAIVE", "NodeFeedback",
           "OptimizerBudget", "OptimizerBudgetExceeded", "ParameterError",
           "PlanCache", "PlanError", "PlanFeedback",
           "PreparedStatement", "ProtocolError",
           "QueryResult", "QueryServer",
           "QueryStats", "QueryTimeout", "RecoveryError", "ReproError",
           "ResourceError",
           "ResourceExhausted", "ResourceGovernor", "RetryPolicy",
           "ServerClient",
           "ServerError", "ServerOverloaded", "Session", "SessionClosed",
           "SqlSyntaxError", "SubqueryReturnedMultipleRows",
           "TransactionConflict", "TransactionError", "__version__",
           "q_error"]
