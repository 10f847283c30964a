"""Baseline planner models: Hive, Pig, and YSmart on the shared substrate."""

from repro.baselines.cascade import CascadePlanner, written_alias_order
from repro.baselines.hive import HivePlanner
from repro.baselines.pig import PigPlanner
from repro.baselines.ysmart import YSmartPlanner
from repro.core.planner import ThetaJoinPlanner

#: Method name -> planner class: the paper's planner and the three systems
#: it is compared against (the CLI's ``--method``, a serve query's
#: ``method``).
PLANNERS = {
    "ours": ThetaJoinPlanner,
    "ysmart": YSmartPlanner,
    "hive": HivePlanner,
    "pig": PigPlanner,
}

__all__ = [
    "CascadePlanner",
    "HivePlanner",
    "PLANNERS",
    "PigPlanner",
    "YSmartPlanner",
    "written_alias_order",
]
