"""Simulated MapReduce substrate: cluster config, HDFS, jobs, runtime."""

from repro.mapreduce.config import (
    PAPER_CLUSTER,
    PAPER_CLUSTER_KP64,
    ClusterConfig,
    HadoopParameters,
)
from repro.mapreduce.counters import ExecutionReport, JobMetrics
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.job import (
    JobResult,
    MapReduceJobSpec,
    TaskContext,
    default_partitioner,
    estimate_width,
)
from repro.mapreduce.runtime import SimulatedCluster

__all__ = [
    "ClusterConfig",
    "DistributedFile",
    "ExecutionReport",
    "HadoopParameters",
    "JobMetrics",
    "JobResult",
    "MapReduceJobSpec",
    "PAPER_CLUSTER",
    "PAPER_CLUSTER_KP64",
    "SimulatedCluster",
    "TaskContext",
    "default_partitioner",
    "estimate_width",
]
