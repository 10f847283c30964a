"""The progressive-join kernel against the scalar oracle.

Three groups: exactness of the NumPy paths on columns NumPy would cast
(the int-vs-float wrong-answer reproductions, > int64 values, wrapping
offsets, ``None`` / ``bool`` / ``str``), a hypothesis property driving
:class:`~repro.joins.progressive.ProgressiveJoin` alone against the
oracle's per-key-group reducers, and the build-time rejections.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scalar_oracle import (
    _pairwise_reducer,
    _progressive_reducer,
    assert_job_matches_oracle,
    build_with_oracle,
)

from repro.core.partitioner import HypercubePartitioner
from repro.errors import ExecutionError
from repro.joins.jobs import (
    make_broadcast_join_job,
    make_equi_join_job,
    make_equichain_join_job,
    make_hypercube_join_job,
)
from repro.joins.progressive import NP_MIN_PAIRS, NP_MIN_PROBE, ProgressiveJoin
from repro.joins.records import relation_to_composite_file
from repro.joins.shares import make_shares_join_job
from repro.mapreduce.config import PAPER_CLUSTER_KP64
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
    oracle; returns the number of output rows."""
    a, b = relation("A", a_values), relation("B", b_values)
    files = [relation_to_composite_file(a, "a"), relation_to_composite_file(b, "b")]
    schemas = {"a": SCHEMA, "b": SCHEMA}
    if builder == "make_hypercube_join_job":
        partitioner = HypercubePartitioner([len(a), len(b)], 1)
        args = ("exact", files, [("a",), ("b",)], partitioner, conditions, schemas)
    else:
        args = ("exact", *files, conditions, schemas)
    spec, oracle = build_with_oracle(builder, *args, **kwargs)
    return len(
        assert_job_matches_oracle(SimulatedCluster(PAPER_CLUSTER_KP64), spec, oracle)
    )


class TestExactColumns:
    """The NumPy pair mask and range probe must answer as Python does."""

    def test_equi_mask_int_against_float_past_2_53(self):
        # 20 x 20 = 400 pairs in one key group: above the pair-mask gate.
        rows = run_pair(
            "make_equi_join_job",
            [JoinCondition.parse(1, "a.g = b.g", "a.v > b.v")],
            [2**53 + 1] * 20,
            [float(2**53)] * 20,
            num_reducers=1,
        )
        assert 20 * 20 >= NP_MIN_PAIRS and rows == 400

    def test_hypercube_range_probe_float_against_int_past_2_53(self):
        # 200 candidates: above the range-probe gate.
        rows = run_pair(
            "make_hypercube_join_job",
            [JoinCondition.parse(1, "a.v < b.v")],
            [float(2**53)] * 200,
            [2**53 + 1] * 200,
        )
        assert 200 >= NP_MIN_PROBE and rows == 40_000

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
            (list(range(140)), [i + 0.5 for i in range(140)]),  # safe cast: NumPy runs
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
        assert run_pair(builder, [condition], a_values, b_values, **kwargs) > 0

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
            assert run_pair(
                "make_broadcast_join_job", [condition], values, values, num_reducers=1
            )
        assert run_pair(
            "make_hypercube_join_job",
            [JoinCondition.parse(1, "a.v = b.v")],
            values,
            values,
        )


# ---------------------------------------------------------------------------
# property: the kernel alone vs the oracle's per-key-group reducers
# ---------------------------------------------------------------------------

NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-1.5, 0.0, 0.5, 1.0, 2.0]),
    st.sampled_from([2**53 + 1, float(2**53), 2**63, -(2**62)]),
)
VALUE_FAMILIES = {
    "int": st.integers(-3, 3),
    "float": st.sampled_from([-1.5, 0.0, 0.5, 1.0, 2.0, 2.5]),
    "number": NUMBERS,
    "str": st.sampled_from(["a", "b", "c", "d"]),
}
#: Group sizes straddling the 256-pair mask gate (15x17, 16x16, 17x17) and
#: the 128-candidate range-probe gate, plus the (rarer) empty input.
SIZES = [0, 1, 2, 15, 16, 17, 127, 128, 130, 2, 16, 17, 128, 130]
ROW_SCHEMA = Schema.of("x:int", "y:int")


@st.composite
def join_cases(draw):
    num_inputs = draw(st.integers(2, 4))
    mode = draw(st.sampled_from(["hypercube", "hypercube", "equichain", "pairwise"]))
    if mode == "pairwise":
        num_inputs = 2
    # Shuffled alias names, one or two per input, so merged composites
    # interleave entries from both sides.
    names = draw(st.permutations(list("abcdefgh")))
    covers, cursor = [], 0
    for _ in range(num_inputs):
        width = draw(st.integers(1, 2))
        covers.append(tuple(sorted(names[cursor : cursor + width])))
        cursor += width
    aliases = [alias for cover in covers for alias in cover]

    family = draw(st.sampled_from(["number", "str"]))
    kinds = {
        alias: "str" if family == "str"
        else draw(st.sampled_from(["int", "float", "number"]))
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
    offsets = st.just(0.0) if family == "str" else st.sampled_from([0.0, 0.0, 1.0, -2.0, 0.5, 3])
    conditions = []
    for cid, (left, right) in enumerate(edges, 1):
        if draw(st.booleans()):
            left, right = right, left
        predicates = [
            JoinPredicate(
                AttrRef(left, draw(st.sampled_from("xy")), draw(offsets)),
                draw(st.sampled_from([*ThetaOp, ThetaOp.EQ, ThetaOp.EQ])),
                AttrRef(right, draw(st.sampled_from("xy")), draw(offsets)),
            )
            for _ in range(draw(st.integers(1, 2)))
        ]
        conditions.append(JoinCondition(cid, predicates))

    sizes, budget = [], 20_000
    for _ in range(num_inputs):
        size = draw(st.sampled_from(SIZES))
        if size and size > budget:
            size = 2
        budget //= max(size, 1)
        sizes.append(size)
    inputs = []
    for cover, size in zip(covers, sizes):
        records = []
        for gid in range(size):
            records.append(
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
                )
            )
        inputs.append(records)
    return mode, covers, conditions, inputs, draw(st.integers(0, 2))


@given(join_cases())
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_kernel_matches_oracle_reducers(case):
    mode, covers, conditions, inputs, key = case
    schemas = {alias: ROW_SCHEMA for cover in covers for alias in cover}

    def owner_of_ids(ids):
        return sum(ids) % 3

    gids = [list(range(len(records))) for records in inputs]
    if mode == "pairwise":
        join = ProgressiveJoin("p", covers, conditions, schemas, scan_first=False)
        oracle = _pairwise_reducer(0, conditions, schemas)
        values = [(slot, c) for slot, records in enumerate(inputs) for c in records]
        got = join.run(inputs)
    elif mode == "equichain":
        join = ProgressiveJoin("p", covers, conditions, schemas, scan_first=True)
        oracle = _progressive_reducer(covers, conditions, schemas)
        values = [(slot, c) for slot, records in enumerate(inputs) for c in records]
        got = join.run(inputs)
    else:
        join = ProgressiveJoin(
            "p", covers, conditions, schemas,
            scan_first=True, probe=True, owner_of_ids=owner_of_ids,
        )
        oracle = _progressive_reducer(
            covers, conditions, schemas, probe=True, owner_of_ids=owner_of_ids
        )
        values = [
            (slot, gid, c)
            for slot, records in enumerate(inputs)
            for gid, c in enumerate(records)
        ]
        got = join.run(inputs, gids, key)
    ctx = TaskContext()
    want = list(oracle(key, values, ctx))
    assert got == (want, ctx.comparisons)


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
                "j", [ab, bc], [("a", "b"), ("b", "c")], partitioner,
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
            "h", files, [("a",), ("b",)], HypercubePartitioner([8, 8], 2), equality, schemas
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
