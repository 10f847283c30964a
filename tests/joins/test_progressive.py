"""The progressive-join kernel against the scalar oracle.

Four groups: exactness of the index-vector kernel on columns NumPy would
cast (the int-vs-float wrong-answer reproductions, > int64 values,
wrapping offsets, ``None`` / ``bool`` / ``str``); NaN in a range-probed
column against a brute-force nested loop; a hypothesis property driving
whole buckets through :func:`~repro.joins.progressive.bucket_reducer`
and the job's composition of its position vectors
against the oracle's per-key-group reducers; and the build-time
rejections.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scalar_oracle import (
    _composite_bytes,
    _pairwise_reducer,
    _progressive_reducer,
    assert_job_matches_oracle,
    build_with_oracle,
)
from tail_oracle import slab_of

import repro.joins.progressive as progressive
from repro.core.partitioner import HypercubePartitioner
from repro.errors import ExecutionError
from repro.joins.jobs import (
    _value_widths,
    make_broadcast_join_job,
    make_equi_join_job,
    make_equichain_join_job,
    make_hypercube_join_job,
)
from repro.joins.progressive import ProgressiveJoin
from repro.joins.records import relation_to_composite_file
from repro.joins.shares import make_shares_join_job
from repro.mapreduce.config import PAPER_CLUSTER_KP64
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.job import TaskContext
from repro.mapreduce.runtime import SimulatedCluster
from repro.relational.predicates import AttrRef, JoinCondition, JoinPredicate, ThetaOp
from repro.relational.relation import Relation
from repro.relational.schema import Schema

SCHEMA = Schema.of("id:int", "v:int", "g:int")


def relation(name, values, groups=1):
    return Relation(name, SCHEMA, [(i, v, i % groups) for i, v in enumerate(values)])


def run_pair(builder, conditions, a_values, b_values, **kwargs):
    """Join ``a`` with ``b`` on ``conditions`` through ``builder`` and its
    oracle; returns the output composites."""
    a, b = relation("A", a_values), relation("B", b_values)
    files = [relation_to_composite_file(a, "a"), relation_to_composite_file(b, "b")]
    schemas = {"a": SCHEMA, "b": SCHEMA}
    if builder == "make_hypercube_join_job":
        partitioner = HypercubePartitioner([len(a), len(b)], 1)
        args = ("exact", files, partitioner, conditions, schemas)
    else:
        args = ("exact", *files, conditions, schemas)
    spec, oracle = build_with_oracle(builder, *args, **kwargs)
    return assert_job_matches_oracle(SimulatedCluster(PAPER_CLUSTER_KP64), spec, oracle)


class TestExactColumns:
    """Typed columns, ranks and searches must answer as Python does."""

    def test_equi_checks_int_against_float_past_2_53(self):
        rows = run_pair(
            "make_equi_join_job",
            [JoinCondition.parse(1, "a.g = b.g", "a.v > b.v")],
            [2**53 + 1] * 20,
            [float(2**53)] * 20,
            num_reducers=1,
        )
        assert len(rows) == 400

    def test_hypercube_range_probe_float_against_int_past_2_53(self):
        rows = run_pair(
            "make_hypercube_join_job",
            [JoinCondition.parse(1, "a.v < b.v")],
            [float(2**53)] * 200,
            [2**53 + 1] * 200,
        )
        assert len(rows) == 40_000

    @pytest.mark.parametrize(
        "builder",
        ["make_hypercube_join_job", "make_broadcast_join_job"],
    )
    @pytest.mark.parametrize(
        "a_values, b_values",
        [
            ([2**64 + i for i in range(140)], [2**64 + 70] * 140),  # beyond int64
            ([2**60 - 70 + i for i in range(140)], [float(2**60)] * 140),  # unsafe cast
            ([i if i % 2 else float(i) for i in range(140)], list(range(140))),
            (list(range(140)), [i + 0.5 for i in range(140)]),  # safe cast
            ([True, False] * 70, list(range(-70, 70))),
            (["k%03d" % i for i in range(140)], ["k%03d" % (i // 2) for i in range(140)]),
        ],
        ids=["huge-int", "int-float-unsafe", "mixed-column", "int-float-safe", "bool", "str"],
    )
    @pytest.mark.parametrize("op", ["<", ">=", "!="])
    def test_columns_are_compared_as_python_compares_them(
        self, builder, a_values, b_values, op
    ):
        kwargs = {} if "hypercube" in builder else {"num_reducers": 1}
        condition = JoinCondition.parse(1, f"a.v {op} b.v")
        assert len(run_pair(builder, [condition], a_values, b_values, **kwargs)) > 0

    @pytest.mark.parametrize(
        "builder", ["make_hypercube_join_job", "make_broadcast_join_job"]
    )
    @pytest.mark.parametrize("offset", [2**62, -(2**63), 2**63 + 5, 0.5])
    def test_offsets_that_would_wrap_int64(self, builder, offset):
        kwargs = {} if "hypercube" in builder else {"num_reducers": 1}
        top = 2**62 - 1
        condition = JoinCondition(
            1, [JoinPredicate(AttrRef("a", "v", offset), ThetaOp.GT, AttrRef("b", "v"))]
        )
        a_values = [top - i for i in range(140)]
        b_values = [top - 70 + int(offset) if offset > 0 else -top + i for i in range(140)]
        run_pair(builder, [condition], a_values, b_values, **kwargs)

    def test_none_is_joinable_by_equality(self):
        values = [None if i % 3 == 0 else i % 5 for i in range(40)]
        for op in ("=", "!="):
            condition = JoinCondition.parse(1, f"a.v {op} b.v")
            assert len(
                run_pair(
                    "make_broadcast_join_job", [condition], values, values, num_reducers=1
                )
            )
        assert len(
            run_pair(
                "make_hypercube_join_job",
                [JoinCondition.parse(1, "a.v = b.v")],
                values,
                values,
            )
        )


def run_hypercube(conditions, a_values, b_values):
    """The output composites of the one-reducer hypercube job (no oracle
    run beside it: two NaN-bearing shuffles only compare equal while no
    process boundary has copied the NaN objects)."""
    a, b = relation("A", a_values), relation("B", b_values)
    spec = make_hypercube_join_job(
        "nan",
        [relation_to_composite_file(a, "a"), relation_to_composite_file(b, "b")],
        HypercubePartitioner([len(a), len(b)], 1),
        conditions,
        {"a": SCHEMA, "b": SCHEMA},
    )
    return list(SimulatedCluster(PAPER_CLUSTER_KP64).run_job(spec).output.records)


class TestNaNInRangeProbedColumn:
    """A NaN satisfies no inequality, and must not hide the rows that do:
    the answer used to depend on the group size (a ``bisect`` over a list
    ``sorted()`` with NaNs in it below 128 candidates, NumPy above).  The
    oracle's NaN-last windows are held to the kernel's by the whole-bucket
    property below."""

    @pytest.mark.parametrize("rows", [20, 100, 127, 128, 200])
    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    @pytest.mark.parametrize("nan_side", ["b", "a", "both"])
    def test_answer_is_the_nested_loop_whatever_the_size(self, rows, op, nan_side):
        def values(seed, with_nan):
            return [
                math.nan if with_nan and i % 7 == 0 else float((i * seed) % rows)
                for i in range(rows)
            ]

        a_values = values(37, nan_side in ("a", "both"))
        b_values = values(11, nan_side in ("b", "both"))
        condition = JoinCondition.parse(1, f"a.v {op} b.v")
        got = run_hypercube([condition], a_values, b_values)
        schemas = {"a": SCHEMA, "b": SCHEMA}
        a, b = relation("A", a_values), relation("B", b_values)
        truth = {
            (i, j)
            for i, a_row in enumerate(a.rows)
            for j, b_row in enumerate(b.rows)
            if condition.evaluate({"a": a_row, "b": b_row}, schemas)
        }
        assert truth, "degenerate: nothing joins"
        assert len(got) == len(truth)
        assert {(c[0][1], c[1][1]) for c in got} == truth

    def test_the_reproduction_from_the_issue(self):
        b_values = [math.nan if i % 7 == 0 else float(i) for i in range(100)]
        got = run_hypercube(
            [JoinCondition.parse(1, "a.v < b.v")],
            [float(i) for i in range(100)],
            b_values,
        )
        assert len(got) == sum(
            1 for i in range(100) for v in b_values if float(i) < v
        )


# ---------------------------------------------------------------------------
# property: whole buckets through the kernel vs the oracle's per-key-group
# reducers
# ---------------------------------------------------------------------------

NAN = math.nan
NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-1.5, 0.0, 0.5, 1.0, 2.0]),
    st.sampled_from([2**53 + 1, float(2**53), 2**63, -(2**62)]),
)
VALUE_FAMILIES = {
    "int": st.integers(-3, 3),
    "float": st.sampled_from([-1.5, 0.0, 0.5, 1.0, 2.0, 2.5]),
    "nan": st.sampled_from([-1.5, 0.0, 1.0, 2.0, NAN, float("nan")]),
    "number": NUMBERS,
    "str": st.sampled_from(["a", "b", "c", "d"]),
    # Equality-only families: ``None < 1`` raises in Python.
    "nullable": st.sampled_from([None, None, 0, 1, 2, 1.0, "a"]),
}
#: Key-group shapes: many 1-5-record groups, one huge group (sizes
#: straddling the old 256-pair and 128-candidate gates), slots left empty.
SMALL_SIZES = [0, 1, 1, 2, 3, 5]
HUGE_SIZES = [1, 2, 15, 16, 17, 127, 128, 130]
ROW_SCHEMA = Schema.of("x:int", "y:int")


@st.composite
def bucket_cases(draw):
    num_inputs = draw(st.integers(2, 4))
    mode = draw(st.sampled_from(["hypercube", "hypercube", "equichain", "pairwise"]))
    if mode == "pairwise":
        num_inputs = 2
    # Shuffled alias names, one or two per input, so output composites
    # interleave entries from both sides.
    names = draw(st.permutations(list("abcdefgh")))
    covers, cursor = [], 0
    for _ in range(num_inputs):
        width = draw(st.integers(1, 2))
        covers.append(tuple(sorted(names[cursor : cursor + width])))
        cursor += width
    aliases = [alias for cover in covers for alias in cover]

    family = draw(st.sampled_from(["number", "number", "str", "nullable"]))
    kinds = {
        alias: family if family != "number"
        else draw(st.sampled_from(["int", "float", "nan", "number"]))
        for alias in aliases
    }
    shape = draw(st.sampled_from(["chain", "star", "triangle"]))
    if shape == "chain":
        edges = list(zip(aliases, aliases[1:]))
    elif shape == "star":
        edges = [(aliases[0], other) for other in aliases[1:]]
    else:
        edges = list(zip(aliases, aliases[1:])) + [(aliases[0], aliases[-1])]
        edges = list(dict.fromkeys(edges))
    offsets = (
        st.sampled_from([0.0, 0.0, 1.0, -2.0, 0.5, 3]) if family == "number" else st.just(0.0)
    )
    ops = (
        st.sampled_from([ThetaOp.EQ, ThetaOp.EQ, ThetaOp.NE])
        if family == "nullable"
        else st.sampled_from([*ThetaOp, ThetaOp.EQ, ThetaOp.EQ])
    )
    conditions = []
    for cid, (left, right) in enumerate(edges, 1):
        if draw(st.booleans()):
            left, right = right, left
        predicates = [
            JoinPredicate(
                AttrRef(left, draw(st.sampled_from("xy")), draw(offsets)),
                draw(ops),
                AttrRef(right, draw(st.sampled_from("xy")), draw(offsets)),
            )
            for _ in range(draw(st.integers(1, 2)))
        ]
        conditions.append(JoinCondition(cid, predicates))

    num_groups = draw(st.integers(1, 8))
    huge = draw(st.integers(-1, num_groups - 1))  # -1: no huge group
    next_gid = [0] * num_inputs
    groups = []
    for group in range(num_groups):
        budget = 20_000
        per_input = []
        for slot, cover in enumerate(covers):
            size = draw(st.sampled_from(HUGE_SIZES if group == huge else SMALL_SIZES))
            if size > budget:
                size = 2
            budget //= max(size, 1)
            records = []
            for _ in range(size):
                gid = next_gid[slot]
                next_gid[slot] += 1
                records.append(
                    (
                        gid,
                        tuple(
                            (
                                alias,
                                gid * 7 + position,
                                (
                                    draw(VALUE_FAMILIES[kinds[alias]]),
                                    draw(VALUE_FAMILIES[kinds[alias]]),
                                ),
                            )
                            for position, alias in enumerate(cover)
                        ),
                    )
                )
            per_input.append(records)
        # Arrival order interleaves the inputs, as a real shuffle does.
        arrivals = draw(
            st.permutations(
                [(slot, item) for slot, records in enumerate(per_input) for item in records]
            )
        )
        # ... but keeps each input's own order.
        cursor = [iter(records) for records in per_input]
        values = [(slot, *next(cursor[slot])) for slot, _item in arrivals]
        groups.append((draw(st.integers(0, 2)), values))
    block = draw(st.sampled_from([3, 40, progressive._BLOCK_PAIRS]))
    return mode, covers, conditions, groups, block


@given(bucket_cases())
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_whole_buckets_match_oracle_reducers(case):
    """Rows, their order, comparisons, outputs and input bytes — in total
    and per key group — of one kernel call over a whole bucket equal the
    oracle reducer's, key group by key group; with the block constant
    drawn small, pair counts straddle many block edges.  Each input's
    records are a slab in record-id order, and the shuffle values
    ``(slot, record id)`` address them by position."""
    mode, covers, conditions, groups, block = case
    schemas = {alias: ROW_SCHEMA for cover in covers for alias in cover}
    header = {"pairwise": 2, "equichain": 8, "hypercube": 16}[mode]
    widths = _value_widths(header, covers, schemas)
    slots = {slot: slot for slot in range(len(covers))}
    records = [{} for _ in covers]
    for _key, values in groups:
        for slot, gid, composite in values:
            records[slot][gid] = composite
    inputs = [
        slab_of(cover, [composites[gid] for gid in range(len(composites))])
        for cover, composites in zip(covers, records)
    ]
    files = [
        DistributedFile(f"in{slot}", slab, 0, tag=slot) for slot, slab in enumerate(inputs)
    ]
    if mode == "pairwise":
        join = ProgressiveJoin("p", covers, conditions, schemas, scan_first=False)
        oracle = _pairwise_reducer(dict(enumerate(inputs)), 0, conditions, schemas)
    elif mode == "equichain":
        join = ProgressiveJoin("p", covers, conditions, schemas, scan_first=True)
        oracle = _progressive_reducer(inputs, conditions, schemas)
    else:
        join = ProgressiveJoin(
            "p", covers, conditions, schemas, scan_first=True, probe=True,
            owners_of=lambda id_columns: sum(id_columns) % 3,
        )
        oracle = _progressive_reducer(
            inputs, conditions, schemas, probe=True,
            owner_of_ids=lambda ids: sum(ids) % 3,
        )
    groups = [(key, [(slot, gid) for slot, gid, _ in values]) for key, values in groups]

    want, want_comparisons, want_produced, want_bytes = [], [], [], []
    for key, values in groups:
        ctx = TaskContext()
        produced = list(oracle(key, values, ctx))
        want.extend(produced)
        want_comparisons.append(ctx.comparisons)
        want_produced.append(len(produced))
        want_bytes.append(
            sum(12 + header + _composite_bytes(inputs[s][at], schemas) for s, at in values)
        )

    keys = [key for key, _values in groups]
    flat = [value for _key, values in groups for value in values]
    offsets = [0]
    for _key, values in groups:
        offsets.append(offsets[-1] + len(values))
    side = progressive.reduce_side(join, slots, widths, files)
    with mock.patch.object(progressive, "_BLOCK_PAIRS", block):
        got = side["batch_reducer"](keys, flat, offsets)
    assert all(vector.dtype == np.int64 for vector in got.outputs)
    assert list(side["collect_outputs"]([got.outputs])) == want
    charged, produced, input_bytes = (
        np.asarray(c).tolist()
        for c in (got.group_comparisons, got.group_produced, got.group_bytes)
    )
    assert charged == want_comparisons
    assert produced == want_produced
    assert input_bytes == want_bytes


def test_blocks_split_between_partials_never_inside_a_window():
    lo = np.array([0, 2, 0, 5])
    counts = np.array([3, 0, 4, 2])
    order = np.arange(10)[::-1]
    whole = list(progressive.window_pairs(lo, counts, order))
    assert len(whole) == 1
    with mock.patch.object(progressive, "_BLOCK_PAIRS", 3):
        blocks = list(progressive.window_pairs(lo, counts, order))
    # 3 | (0 +) 4 alone above the budget | 2
    assert [len(acc_at) for acc_at, _ in blocks] == [3, 4, 2]
    for axis in (0, 1):
        assert np.concatenate([b[axis] for b in blocks]).tolist() == whole[0][axis].tolist()
    assert whole[0][0].tolist() == [0, 0, 0, 2, 2, 2, 2, 3, 3]
    assert whole[0][1].tolist() == [9, 8, 7, 9, 8, 7, 6, 4, 3]


# ---------------------------------------------------------------------------
# build-time rejections and the batch-only contract
# ---------------------------------------------------------------------------


def overlapping_inputs():
    """``{a,b}`` and ``{b,c}`` partial results plus their schemas."""
    rels = {alias: relation(alias.upper(), range(6)) for alias in "abc"}
    schemas = {alias: SCHEMA for alias in rels}
    cluster = SimulatedCluster(PAPER_CLUSTER_KP64)
    partials = []
    for left, right in (("a", "b"), ("b", "c")):
        spec = make_equi_join_job(
            f"{left}{right}",
            relation_to_composite_file(rels[left], left),
            relation_to_composite_file(rels[right], right),
            [JoinCondition.parse(1, f"{left}.g = {right}.g")],
            schemas,
            num_reducers=2,
        )
        partials.append(cluster.run_job(spec).output)
    return partials, schemas


class TestOverlappingCoversRejected:
    CONDITION = [JoinCondition.parse(9, "a.g = c.g")]

    def check(self, build):
        with pytest.raises(ExecutionError, match=r"share aliases \['b'\]") as raised:
            build()
        assert raised.value.shared_aliases == ("b",)

    def test_equi(self):
        (ab, bc), schemas = overlapping_inputs()
        self.check(lambda: make_equi_join_job("j", ab, bc, self.CONDITION, schemas, 2))

    def test_broadcast(self):
        (ab, bc), schemas = overlapping_inputs()
        self.check(
            lambda: make_broadcast_join_job("j", ab, bc, self.CONDITION, schemas, 2)
        )

    def test_equichain(self):
        (ab, bc), schemas = overlapping_inputs()
        self.check(
            lambda: make_equichain_join_job("j", [ab, bc], self.CONDITION, schemas, 2)
        )

    def test_hypercube(self):
        (ab, bc), schemas = overlapping_inputs()
        partitioner = HypercubePartitioner([ab.num_records, bc.num_records], 2)
        self.check(
            lambda: make_hypercube_join_job(
                "j", [ab, bc], partitioner,
                self.CONDITION, schemas,
            )
        )

    def test_hand_built_plan_fails_at_build_time(self):
        """A plan joining two job outputs that share an alias must fail
        when the job is built — never run and produce a wrong answer."""
        from repro.core.executor import PlanExecutor
        from repro.core.plan import (
            STRATEGY_EQUI,
            ExecutionPlan,
            InputRef,
            PlannedJob,
        )
        from repro.relational.query import JoinQuery

        rels = {alias: relation(alias.upper(), range(6)) for alias in "abc"}
        query = JoinQuery(
            "overlap",
            rels,
            [
                JoinCondition.parse(1, "a.g = b.g"),
                JoinCondition.parse(2, "b.g = c.g"),
                JoinCondition.parse(3, "a.g = c.g"),
            ],
        )
        def job(job_id, condition_id, *inputs):
            refs = tuple(
                InputRef("job" if name.startswith("j") else "base", name)
                for name in inputs
            )
            depends_on = tuple(n for n in inputs if n.startswith("j"))
            return PlannedJob(
                job_id, STRATEGY_EQUI, refs, (condition_id,), 2, 2, depends_on
            )

        plan = ExecutionPlan(
            "overlap",
            "hand-built",
            query.name,
            [job("j1", 1, "a", "b"), job("j2", 2, "b", "c"), job("j3", 3, "j1", "j2")],
            total_units=8,
        )
        with pytest.raises(ExecutionError, match="share aliases") as raised:
            PlanExecutor(SimulatedCluster(PAPER_CLUSTER_KP64)).execute(plan, query)
        assert raised.value.shared_aliases == ("b",)


def test_uncovered_condition_rejected():
    a, b = relation("A", range(4)), relation("B", range(4))
    with pytest.raises(ExecutionError, match="no input covers"):
        make_broadcast_join_job(
            "j",
            relation_to_composite_file(a, "a"),
            relation_to_composite_file(b, "b"),
            [JoinCondition.parse(1, "a.v < z.v")],
            {"a": SCHEMA, "b": SCHEMA, "z": SCHEMA},
            2,
        )


def test_every_builder_is_batch_only():
    rels = {alias: relation(alias.upper(), range(8), groups=2) for alias in "ab"}
    files = [relation_to_composite_file(rels[a], a) for a in "ab"]
    schemas = {"a": SCHEMA, "b": SCHEMA}
    equality = [JoinCondition.parse(1, "a.g = b.g")]
    specs = [
        make_hypercube_join_job(
            "h", files, HypercubePartitioner([8, 8], 2), equality, schemas
        ),
        make_equi_join_job("e", *files, equality, schemas, 2),
        make_broadcast_join_job("b", *files, equality, schemas, 2),
        make_equichain_join_job("c", files, equality, schemas, 2),
    ]
    for spec in specs:
        assert spec.mapper is None and spec.reducer is None
        assert spec.batch_mapper is not None and spec.batch_reducer is not None
    shares = make_shares_join_job("s", files, equality, schemas, total_reducers=4)
    assert shares.reducer is None and shares.batch_reducer is not None
