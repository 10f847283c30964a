"""The columnar result tail against its per-row references.

``composites_to_relation`` (table-level projection, one gather per run of
fields) and ``core.merge.hash_merge`` (the window primitive on id
columns) must agree with ``tail_oracle.py`` in content *and order*, fed
slabs whose index vectors are the identity or scrambled: property tests
over random covers,
projections and duplicate-key merges, then whole executions of every
planner's plan with the references monkeypatched into the executor.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.executor as executor_mod
import repro.core.merge as merge_mod
import repro.joins.progressive as progressive
from repro.cli import PLANNERS
from repro.core.executor import PlanExecutor
from repro.core.merge import hash_merge
from repro.errors import ExecutionError
from repro.joins.records import composites_to_relation
from repro.mapreduce.config import PAPER_CLUSTER_KP64
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.schema import Schema
from repro.utils import GB
from repro.workloads.mobile import generate_mobile_calls, make_mobile_query
from repro.workloads.synthetic import chain_query

from tail_oracle import (
    _reference_composites_to_relation,
    _reference_hash_merge,
    slab_of,
)

ALIASES = ("a", "b", "c", "d", "e")


def scrambled(cover, composites):
    """The same composites, in the same order, as a slab built from them
    reversed and read back through a reversing take."""
    backwards = slab_of(cover, composites[::-1])
    return backwards.take(np.arange(len(composites))[::-1])


def composites_over(draw, cover, schemas, max_size=12, max_id=3):
    """Composites over ``cover``; a row is a function of (alias, global id),
    ids are drawn from a small range so keys repeat."""
    ids = st.tuples(*[st.integers(0, max_id)] * len(cover))
    return [
        tuple(
            (alias, gid, tuple(gid * 10 + column for column in range(len(schemas[alias]))))
            for alias, gid in zip(cover, chosen)
        )
        for chosen in draw(st.lists(ids, max_size=max_size))
    ]


@st.composite
def projection_cases(draw):
    aliases = ALIASES[: draw(st.integers(1, 4))]
    schemas = {
        alias: Schema.of(*[f"f{i}:int" for i in range(draw(st.integers(1, 3)))])
        for alias in aliases
    }
    cover = tuple(
        sorted(draw(st.sets(st.sampled_from(aliases), min_size=1)))
    )
    columns = [(alias, name) for alias in aliases for name in schemas[alias].names]
    projection = draw(
        st.one_of(
            st.none(),
            # unique picks in drawn order: subsets, reorderings, interleaved
            # aliases and single columns all come out of this
            st.lists(st.sampled_from(columns), min_size=1, unique=True),
        )
    )
    return schemas, cover, composites_over(draw, cover, schemas), projection


class TestProjectorMatchesReference:
    @given(projection_cases())
    @settings(max_examples=300, deadline=None)
    def test_random_covers_and_projections(self, case):
        schemas, cover, composites, projection = case
        read = {alias for alias, _ in projection} if projection else set(schemas)
        slab = slab_of(cover, composites)
        if not read <= set(cover):
            with pytest.raises(ExecutionError):
                composites_to_relation(slab, schemas, "out", projection)
            return
        compiled = composites_to_relation(slab, schemas, "out", projection)
        reference = _reference_composites_to_relation(
            composites, schemas, "out", projection
        )
        assert compiled.rows == reference.rows
        assert compiled.schema == reference.schema
        assert compiled.schema.names == reference.schema.names
        assert compiled.name == reference.name
        assert all(type(row) is tuple for row in compiled.rows)
        from_slab = composites_to_relation(
            scrambled(cover, composites), schemas, "out", projection
        )
        assert from_slab.rows == reference.rows
        assert all(type(row) is tuple for row in from_slab.rows)

    def test_empty_input_keeps_the_schema(self):
        schemas = {"a": Schema.of("x:int", "y:str"), "b": Schema.of("z:float")}
        out = composites_to_relation(
            slab_of(("a", "b"), []), schemas, "out", [("b", "z"), ("a", "x")]
        )
        assert out.rows == []
        assert out.schema.names == ("b_z", "a_x")

    def test_no_projection_reads_every_schema_alias(self):
        schemas = {"a": Schema.of("x:int"), "b": Schema.of("y:int")}
        slab = slab_of(("a", "b"), [(("a", 0, (1,)), ("b", 4, (2,)))])
        assert composites_to_relation(slab, schemas, "out").rows == [(1, 2)]

    def test_composites_of_another_cover_are_rejected(self):
        schemas = {"a": Schema.of("x:int"), "b": Schema.of("y:int")}
        slab = slab_of(("a",), [(("a", 0, (1,)),)])
        assert composites_to_relation(slab, schemas, "out", [("a", "x")]).rows == [(1,)]
        with pytest.raises(ExecutionError, match="cover"):
            composites_to_relation(slab, schemas, "out")


@st.composite
def merge_cases(draw):
    pool = list(draw(st.permutations(ALIASES)))
    shared = [pool.pop() for _ in range(draw(st.integers(1, 2)))]
    left_only = [pool.pop() for _ in range(draw(st.integers(0, 1)))]
    right_only = [pool.pop() for _ in range(draw(st.integers(0, 1)))]
    left_cover = tuple(sorted(shared + left_only))
    right_cover = tuple(sorted(shared + right_only))
    schemas = {alias: Schema.of("v:int") for alias in ALIASES}
    left = composites_over(draw, left_cover, schemas)
    right = composites_over(draw, right_cover, schemas)
    return left, right, left_cover, right_cover


class TestMergeMatchesReference:
    @given(merge_cases())
    @settings(max_examples=300, deadline=None)
    def test_random_covers_with_duplicate_keys(self, case):
        left, right, left_cover, right_cover = case
        from_slabs = hash_merge(
            scrambled(left_cover, left), scrambled(right_cover, right)
        )
        left, right = slab_of(left_cover, left), slab_of(right_cover, right)
        reference = _reference_hash_merge(left, right)
        merged = hash_merge(left, right)
        assert merged == reference
        assert merged.cover == reference.cover
        assert merged.cover == tuple(sorted(set(left_cover) | set(right_cover)))
        assert from_slabs == reference
        # A merged slab is a merge input again (three terminal jobs).
        assert hash_merge(from_slabs, right) == _reference_hash_merge(reference, right)

    def test_m_by_n_duplicates_keep_left_then_right_arrival_order(self):
        left = slab_of(("a", "b"), [(("a", i, (i,)), ("b", 7, (7,))) for i in (2, 0, 1)])
        right = slab_of(("b", "c"), [(("b", 7, (7,)), ("c", j, (j,))) for j in (5, 3, 4)])
        merged = hash_merge(left, right)
        assert [(c[0][1], c[2][1]) for c in merged] == [
            (i, j) for i in (2, 0, 1) for j in (5, 3, 4)
        ]
        assert merged == _reference_hash_merge(left, right)

    def test_two_shared_aliases_must_both_agree(self):
        left = slab_of(("a", "b", "c"), [(("a", 0, (0,)), ("b", 1, (1,)), ("c", 2, (2,)))])
        right = slab_of(
            ("b", "c", "d"),
            [
                (("b", 1, (1,)), ("c", 9, (9,)), ("d", 3, (3,))),
                (("b", 1, (1,)), ("c", 2, (2,)), ("d", 4, (4,))),
            ],
        )
        merged = hash_merge(left, right)
        assert merged == _reference_hash_merge(left, right)
        assert [c[3][1] for c in merged] == [4]

    def test_ids_too_wide_to_fold_into_one_int64_are_renumbered(self, monkeypatch):
        # Ids are row positions, so no test table reaches 2**62 / width;
        # a lowered bound makes the second shared alias's fold overflow.
        monkeypatch.setattr(progressive, "INT_SAFE", 1000)
        big = 40
        left = slab_of(
            ("a", "b", "c"),
            [
                (("a", i, (i,)), ("b", big + i % 2, (0,)), ("c", big - i % 3, (0,)))
                for i in range(12)
            ],
        )
        right = slab_of(
            ("b", "c", "d"),
            [
                (("b", big + j % 2, (0,)), ("c", big - j % 3, (0,)), ("d", j, (j,)))
                for j in range(12)
            ],
        )
        merged = hash_merge(left, right)
        assert merged == _reference_hash_merge(left, right)
        assert len(merged) == 24

    @pytest.mark.parametrize("empty", ["left", "right"])
    def test_empty_side(self, empty):
        side = [(("a", 0, (0,)), ("b", 1, (1,)))]
        left, right = ([], side) if empty == "left" else (side, [])
        merged = hash_merge(slab_of(("a", "b"), left), slab_of(("a", "b"), right))
        assert merged == [] and merged.cover == ("a", "b")

    def test_no_partners(self):
        left = slab_of(("a", "b"), [(("a", 0, (0,)), ("b", 1, (1,)))])
        right = slab_of(("b", "c"), [(("b", 2, (2,)), ("c", 0, (0,)))])
        assert hash_merge(left, right) == []

    @pytest.mark.parametrize(
        "bad",
        [
            (("b", 1, (1,)),),  # ragged: an entry short
            (("a", 0, (0,)), ("b", 1, (1,)), ("c", 0, (0,))),  # an entry long
            (("b", 1, (1,)), ("c", 0, (0,))),  # right width, another cover
            (("a", 0, (0,)), ("x", 1, (1,))),  # shared slot holds another alias
            (("x", 0, (0,)), ("b", 1, (1,))),  # private slot holds another alias
        ],
    )
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_mismatched_cover_is_an_error_not_a_row(self, bad, side):
        """Slabs are the merge's only input, and a composite that does not
        fit its slab's cover cannot become one."""
        good = [(("a", 0, (0,)), ("b", 1, (1,)))]
        other = slab_of(("b", "c"), [(("b", 1, (1,)), ("c", 5, (5,)))])
        with pytest.raises(ExecutionError, match="cover"):
            if side == "left":
                hash_merge(slab_of(("a", "b"), good + [bad]), other)
            else:
                hash_merge(other, slab_of(("a", "b"), good + [bad]))

    def test_disjoint_covers_are_rejected(self):
        with pytest.raises(ExecutionError, match="share no relation"):
            hash_merge(slab_of(("a",), [(("a", 0, (0,)),)]), slab_of(("b",), [(("b", 0, (0,)),)]))


def tail_queries():
    calls = generate_mobile_calls(
        300, num_stations=25, num_users=100, bytes_per_row=(20 * GB) // 300, seed=3
    )
    queries = [make_mobile_query(number, calls) for number in (1, 2, 3, 4)]
    return queries + [chain_query(3, rows=60, selectivity=0.05, seed=3)]


def observable(outcome):
    report = outcome.report
    return (
        outcome.result.rows,
        outcome.result.schema,
        tuple(outcome.composites),
        report.merge_time_s,
        report.makespan_s,
        report.output_records,
    )


@pytest.mark.parametrize("checkpoint", ["0", "1"])
def test_executions_do_not_depend_on_the_compiled_tail(
    checkpoint, monkeypatch, tmp_path
):
    """Every planner's plan of every query lands the same rows, composites
    (content and order) and simulated times with the compiled tail as with
    the per-row references in its place; with checkpointing on, the second
    compiled pass runs over restored wave outputs."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CHECKPOINT", checkpoint)
    planned = [
        (query, PLANNERS[method](PAPER_CLUSTER_KP64).plan(query))
        for query in tail_queries()
        for method in sorted(PLANNERS)
    ]

    def execute_all():
        outcomes = [
            PlanExecutor(SimulatedCluster(PAPER_CLUSTER_KP64)).execute(plan, query)
            for query, plan in planned
        ]
        return outcomes, [observable(outcome) for outcome in outcomes]

    _, cold = execute_all()
    outcomes, warm = execute_all()
    restored = sum(outcome.report.checkpoint_hits for outcome in outcomes)
    assert (restored > 0) == (checkpoint == "1")
    assert any(outcome.report.merge_time_s > 0 for outcome in outcomes)
    monkeypatch.setattr(
        executor_mod, "composites_to_relation", _reference_composites_to_relation
    )
    monkeypatch.setattr(merge_mod, "hash_merge", _reference_hash_merge)
    _, reference = execute_all()
    assert cold == reference
    assert warm == reference
