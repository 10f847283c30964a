"""repro — reproduction of "Efficient Multi-way Theta-Join Processing Using
MapReduce" (Zhang, Chen, Wang; PVLDB 5(11), 2012).

Public API quick tour
---------------------

>>> from repro import (
...     JoinQuery, JoinCondition, Relation, Schema,
...     ThetaJoinPlanner, PlanExecutor, SimulatedCluster, ClusterConfig,
... )

Build relations and an N-join query, plan it with :class:`ThetaJoinPlanner`
(the paper's method) or one of the baselines in :mod:`repro.baselines`,
and execute the plan on the :class:`SimulatedCluster`.  See
``examples/quickstart.py`` for a complete walk-through.

Against a running ``repro serve`` service, :func:`repro.connect` returns
a :class:`Client` with ``execute`` / ``status`` / ``cancel`` / ``result``
(plus the blocking ``wait`` / ``run`` conveniences).
"""

from repro.baselines import HivePlanner, PigPlanner, YSmartPlanner
from repro.client import Client, connect
from repro.core import (
    ExecutionOutcome,
    ExecutionPlan,
    HypercubePartitioner,
    JoinGraph,
    MRJCostModel,
    PlanExecutor,
    ThetaJoinPlanner,
    choose_reducer_count,
)
from repro.mapreduce import (
    PAPER_CLUSTER,
    PAPER_CLUSTER_KP64,
    ClusterConfig,
    SimulatedCluster,
)
from repro.relational import (
    JoinCondition,
    JoinPredicate,
    JoinQuery,
    Relation,
    Schema,
    StatisticsCatalog,
    ThetaOp,
)

__version__ = "1.0.0"

__all__ = [
    "Client",
    "ClusterConfig",
    "ExecutionOutcome",
    "ExecutionPlan",
    "HivePlanner",
    "HypercubePartitioner",
    "JoinCondition",
    "JoinGraph",
    "JoinPredicate",
    "JoinQuery",
    "MRJCostModel",
    "PAPER_CLUSTER",
    "PAPER_CLUSTER_KP64",
    "PigPlanner",
    "PlanExecutor",
    "Relation",
    "Schema",
    "SimulatedCluster",
    "StatisticsCatalog",
    "ThetaJoinPlanner",
    "ThetaOp",
    "YSmartPlanner",
    "choose_reducer_count",
    "connect",
    "__version__",
]
