"""Tests for job metrics and execution reports."""

import pytest

from repro.mapreduce.counters import ExecutionReport, JobMetrics


class TestJobMetrics:
    def test_reducer_statistics(self):
        metrics = JobMetrics(job_name="j")
        metrics.reducer_input_bytes = [100, 300, 200]
        assert metrics.max_reducer_input_bytes == 300
        assert metrics.mean_reducer_input_bytes == 200
        assert metrics.reducer_skew == pytest.approx(1.5)

    def test_skew_of_empty_is_one(self):
        assert JobMetrics().reducer_skew == 1.0

    def test_ratios(self):
        metrics = JobMetrics(
            input_bytes=1000, map_output_bytes=500, output_bytes=100
        )
        assert metrics.map_output_ratio == 0.5
        assert metrics.reduce_output_ratio == pytest.approx(0.2)

    def test_ratios_guard_zero(self):
        assert JobMetrics().map_output_ratio == 0.0
        assert JobMetrics().reduce_output_ratio == 0.0

    def test_summary_keys(self):
        summary = JobMetrics(job_name="x").summary()
        for key in ("input_bytes", "total_time_s", "reducer_skew"):
            assert key in summary


class TestExecutionReport:
    def make(self):
        report = ExecutionReport(plan_name="p")
        m1 = JobMetrics(job_name="a")
        m1.shuffle_bytes = 100
        m1.output_bytes = 50
        m1.total_time_s = 2.0
        m2 = JobMetrics(job_name="b")
        m2.shuffle_bytes = 300
        m2.output_bytes = 70
        m2.total_time_s = 3.0
        report.job_metrics = [m1, m2]
        report.makespan_s = 4.0
        return report

    def test_aggregates(self):
        report = self.make()
        assert report.num_jobs == 2
        assert report.total_shuffle_bytes == 400

    def test_summary(self):
        summary = self.make().summary()
        assert summary["jobs"] == 2
        assert summary["makespan_s"] == 4.0
