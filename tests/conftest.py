"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.mapreduce.config import ClusterConfig


@pytest.fixture(scope="session", autouse=True)
def _scoped_cache_dir(tmp_path_factory):
    """Point REPRO_CACHE_DIR at a session-scoped tmp dir unless the
    environment already pins one: spawned worker daemons inherit it, so
    test runs never write blob or checkpoint entries into the user's real
    ``~/.cache/repro``.  Tests that need their own root still override
    via monkeypatch/execution_env as before."""
    if os.environ.get("REPRO_CACHE_DIR"):
        yield
        return
    root = str(tmp_path_factory.mktemp("repro-cache"))
    os.environ["REPRO_CACHE_DIR"] = root
    try:
        yield
    finally:
        if os.environ.get("REPRO_CACHE_DIR") == root:
            del os.environ["REPRO_CACHE_DIR"]
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.predicates import JoinCondition
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.utils import make_rng


@pytest.fixture
def config() -> ClusterConfig:
    return ClusterConfig()


@pytest.fixture
def small_config() -> ClusterConfig:
    """A small cluster so reducer-count limits are easy to hit in tests."""
    return ClusterConfig().with_units(16)


@pytest.fixture
def cluster(config) -> SimulatedCluster:
    return SimulatedCluster(config)


def make_relation(name: str, rows: int, value_range: int = 60, groups: int = 5,
                  seed: int = 0) -> Relation:
    """A small test relation (id, v, g) with uniform v and small-domain g."""
    rng = make_rng("test-relation", name, rows, seed)
    schema = Schema.of("id:int", "v:int", "g:int")
    return Relation(
        name,
        schema,
        [
            (i, rng.randint(0, value_range - 1), rng.randint(0, groups - 1))
            for i in range(rows)
        ],
    )


@pytest.fixture
def three_way_query() -> JoinQuery:
    """A chain query a < b = c used across planner/executor tests."""
    a = make_relation("A", 40)
    b = make_relation("B", 35, seed=1)
    c = make_relation("C", 30, seed=2)
    return JoinQuery(
        "three-way",
        {"a": a, "b": b, "c": c},
        [
            JoinCondition.parse(1, "a.v < b.v"),
            JoinCondition.parse(2, "b.g = c.g"),
        ],
    )


@pytest.fixture
def triangle_query() -> JoinQuery:
    """Triangle + pendant with offsets: stresses every operator path."""
    a = make_relation("TA", 30)
    b = make_relation("TB", 28, seed=3)
    c = make_relation("TC", 26, seed=4)
    d = make_relation("TD", 24, seed=5)
    return JoinQuery(
        "triangle",
        {"a": a, "b": b, "c": c, "d": d},
        [
            JoinCondition.parse(1, "a.v < b.v", "b.v < a.v + 20"),
            JoinCondition.parse(2, "b.g = c.g"),
            JoinCondition.parse(3, "a.v >= c.v"),
            JoinCondition.parse(4, "a.g != d.g"),
        ],
    )
