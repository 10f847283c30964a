"""Tests for distributed files and the Figure 11 loading-time model."""

import pytest

from repro.mapreduce.config import ClusterConfig
from repro.mapreduce.hdfs import DistributedFile, SimulatedHDFS
from repro.utils import GB, MB


@pytest.fixture
def hdfs():
    return SimulatedHDFS(ClusterConfig())


class TestDistributedFile:
    def test_size_accounting(self):
        file = DistributedFile("f", records=[1, 2, 3], record_width=100)
        assert file.size_bytes == 300
        assert file.num_records == 3

    def test_blocks(self):
        file = DistributedFile("f", records=list(range(10)), record_width=20 * MB)
        assert file.blocks(64 * MB) == 4  # 200MB / 64MB

    def test_empty_file_has_zero_blocks(self):
        file = DistributedFile("f", records=[], record_width=10)
        assert file.blocks(64 * MB) == 0

    def test_small_file_is_one_block(self):
        file = DistributedFile("f", records=[1], record_width=10)
        assert file.blocks(64 * MB) == 1


class TestLoadingTimes:
    """Figure 11's shape: plain < ours <= hive-ish, converging at scale."""

    def test_plain_upload_scales_linearly(self, hdfs):
        t1 = hdfs.plain_upload_time_s(1 * GB)
        t2 = hdfs.plain_upload_time_s(2 * GB)
        assert t2 == pytest.approx(2 * t1)

    def test_ours_slower_than_plain(self, hdfs):
        for size in (1 * GB, 100 * GB, 500 * GB):
            assert hdfs.our_load_time_s(size) > hdfs.plain_upload_time_s(size)

    def test_ours_comparable_to_hive_at_scale(self, hdfs):
        # The paper reports our loading is comparable to Hive for large
        # volumes; at 500GB the gap should be within 25%.
        size = 500 * GB
        ours = hdfs.our_load_time_s(size)
        hive = hdfs.hive_load_time_s(size)
        assert ours < hive * 1.25

    def test_replication_multiplies_upload(self):

        from repro.mapreduce.config import HadoopParameters

        config1 = ClusterConfig(hadoop=HadoopParameters(dfs_replication=1))
        config3 = ClusterConfig(hadoop=HadoopParameters(dfs_replication=3))
        t1 = SimulatedHDFS(config1).plain_upload_time_s(GB)
        t3 = SimulatedHDFS(config3).plain_upload_time_s(GB)
        assert t3 == pytest.approx(3 * t1)
