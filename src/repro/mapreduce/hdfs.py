"""A simulated HDFS: files of records, block accounting, upload timing.

Files hold real Python records (so jobs actually compute correct answers)
while sizes are tracked in bytes so the runtime can charge realistic I/O
time.  There is no namespace: a job reads the files its spec names and
returns the one it wrote.  Upload timing models the three loading modes
compared in the paper's Figure 11: plain HDFS upload, Hive warehouse
loading, and "our method" (plain upload plus an upload-time
sampling/statistics pass).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.mapreduce.config import ClusterConfig
from repro.utils import ceil_div


@dataclass
class DistributedFile:
    """One file in the simulated HDFS.

    ``records`` is a sequence of arbitrary Python objects (relation rows,
    (key, id-list) pairs, ... — a list, or a columnar container that reads
    as one).  Every file a join job reads or writes holds a
    ``CompositeSlab`` of index vectors into base row tables, base relations
    included; its alias cover is ``records.cover``, and the builders refuse
    any other input.
    ``record_width`` is the serialized bytes per record used for I/O
    accounting.
    """

    name: str
    records: Sequence[object]
    record_width: int
    #: Source tag handed to mappers so multi-input jobs can tell inputs apart.
    tag: str = ""

    @property
    def num_records(self) -> int:
        return len(self.records)

    @property
    def size_bytes(self) -> int:
        return self.num_records * self.record_width

    def blocks(self, block_size: int) -> int:
        """Number of HDFS blocks, hence map tasks spawned over this file."""
        if self.num_records == 0:
            return 0
        return max(1, ceil_div(self.size_bytes, block_size))

    def __repr__(self) -> str:
        return (
            f"DistributedFile({self.name!r}, records={self.num_records}, "
            f"bytes={self.size_bytes})"
        )


class SimulatedHDFS:
    """The Figure 11 load-time model of one cluster configuration.

    It holds no files: a job's inputs travel in its spec, and the
    executor's ``job_outputs`` is the one registry of what a plan wrote.
    """

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config

    # -- upload timing (Figure 11) ---------------------------------------

    def plain_upload_time_s(self, size_bytes: int) -> float:
        """Plain ``hadoop fs -put`` from the DataNodes' local disks.

        Each node uploads its share in parallel; replication multiplies the
        written volume.  Pipeline replication overlaps the network hop with
        the disk write, so the write rate dominates.
        """
        replication = self.config.hadoop.dfs_replication
        writers = max(1, self.config.worker_nodes)
        bytes_per_writer = size_bytes * replication / writers
        return bytes_per_writer / self.config.disk_write_bytes_s

    def hive_load_time_s(self, size_bytes: int) -> float:
        """Loading into the Hive warehouse: upload plus SerDe parse pass."""
        parse = size_bytes / self.config.disk_read_bytes_s / max(1, self.config.total_units // 2)
        return self.plain_upload_time_s(size_bytes) * 1.18 + parse

    def our_load_time_s(self, size_bytes: int, sample_fraction: float = 0.02) -> float:
        """The paper's loading mode: plain upload + sampling & index pass.

        A sampling MapReduce pass reads ``sample_fraction`` of the blocks
        and writes a small statistics/index file; the paper reports this
        makes loading "a little more time consuming" than plain upload but
        comparable to Hive at large volumes.
        """
        plain = self.plain_upload_time_s(size_bytes)
        readers = max(1, self.config.total_units)
        sampling = size_bytes * sample_fraction / self.config.disk_read_bytes_s / readers
        index_write = size_bytes * 0.001 / self.config.disk_write_bytes_s
        return plain + self.config.job_startup_s + sampling + index_write
