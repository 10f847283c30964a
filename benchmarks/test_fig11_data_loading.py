"""Figure 11: data loading time — Hive vs plain HDFS vs our method.

Our method uploads like plain Hadoop but adds an upload-time sampling /
index pass, making it slightly more expensive than a plain put yet
comparable to Hive's warehouse loading at large volumes.
"""

from _harness import Table, once

from repro.mapreduce.config import ClusterConfig
from repro.mapreduce.hdfs import hive_load_time_s, our_load_time_s, plain_upload_time_s
from repro.utils import GB

VOLUMES_GB = [1, 10, 50, 100, 250, 500]


def loading_curves():
    config = ClusterConfig()
    table = Table(
        "Figure 11 — data loading time (simulated s) by volume",
        ["volume", "plain_hadoop", "ours", "hive"],
    )
    curves = {"plain": {}, "ours": {}, "hive": {}}
    for volume in VOLUMES_GB:
        size = volume * GB
        plain = plain_upload_time_s(config, size)
        ours = our_load_time_s(config, size)
        hive = hive_load_time_s(config, size)
        curves["plain"][volume] = plain
        curves["ours"][volume] = ours
        curves["hive"][volume] = hive
        table.add(f"{volume}GB", round(plain, 1), round(ours, 1), round(hive, 1))
    table.emit("fig11_data_loading.txt")
    return curves


def test_fig11_loading_shape(benchmark):
    curves = once(benchmark, loading_curves)
    for volume in VOLUMES_GB:
        # Ours costs more than a plain upload (the sampling pass)...
        assert curves["ours"][volume] > curves["plain"][volume]
    # ...but is comparable to Hive at large volumes (within 25%).
    big = VOLUMES_GB[-1]
    assert curves["ours"][big] < curves["hive"][big] * 1.25
    # All curves grow with volume.
    for series in curves.values():
        values = [series[v] for v in VOLUMES_GB]
        assert values == sorted(values)
