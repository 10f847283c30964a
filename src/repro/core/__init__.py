"""The paper's contribution: planner, cost model, Hilbert partitioning, scheduling."""

from repro.core.cost_model import (
    CostBreakdown,
    CostModelParameters,
    JobProfile,
    MRJCostModel,
)
from repro.core.costing import CandidateJobCosting, JobBlueprint
from repro.core.eulerian import (
    add_virtual_vertex,
    count_eulerian_trails,
    eulerian_circuits,
    eulerian_trails,
)
from repro.core.executor import ExecutionOutcome, PlanExecutor
from repro.core.join_graph import JoinGraph
from repro.core.join_path_graph import (
    CandidateCost,
    CandidateJob,
    JoinPathGraph,
    build_join_path_graph,
    enumerate_paths,
)
from repro.core.partitioner import (
    GridPartitioner,
    HypercubePartitioner,
    PartitionSummary,
    RandomPartitioner,
)
from repro.core.plan import (
    STRATEGY_BROADCAST,
    STRATEGY_EQUI,
    STRATEGY_HYPERCUBE,
    STRATEGY_ONEBUCKET,
    ExecutionPlan,
    InputRef,
    PlannedJob,
)
from repro.core.plan_selector import select_cover
from repro.core.planner import ThetaJoinPlanner
from repro.core.reducer_selection import (
    LAMBDA_DEFAULT,
    ReducerChoice,
    choose_reducer_count,
    delta_value,
    evaluate_reducer_counts,
)
from repro.core.scheduler import (
    MalleableJob,
    MalleableScheduler,
    Schedule,
    ScheduledJob,
)

__all__ = [
    "CandidateCost",
    "CandidateJob",
    "CandidateJobCosting",
    "CostBreakdown",
    "CostModelParameters",
    "ExecutionOutcome",
    "ExecutionPlan",
    "GridPartitioner",
    "HypercubePartitioner",
    "InputRef",
    "JobBlueprint",
    "JobProfile",
    "JoinGraph",
    "JoinPathGraph",
    "LAMBDA_DEFAULT",
    "MRJCostModel",
    "MalleableJob",
    "MalleableScheduler",
    "PartitionSummary",
    "PlanExecutor",
    "PlannedJob",
    "RandomPartitioner",
    "ReducerChoice",
    "STRATEGY_BROADCAST",
    "STRATEGY_EQUI",
    "STRATEGY_HYPERCUBE",
    "STRATEGY_ONEBUCKET",
    "Schedule",
    "ScheduledJob",
    "ThetaJoinPlanner",
    "add_virtual_vertex",
    "build_join_path_graph",
    "choose_reducer_count",
    "count_eulerian_trails",
    "eulerian_circuits",
    "eulerian_trails",
    "delta_value",
    "enumerate_paths",
    "evaluate_reducer_counts",
    "select_cover",
]
