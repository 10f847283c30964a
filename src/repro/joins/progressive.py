"""The progressive reduce-side join: compiled once per job, run by one kernel.

Algorithm 1 binds the inputs of a reduce task one dimension at a time and
applies every theta condition as soon as both its endpoints are bound.
The equi, equichain, broadcast and share operators are the *same* join
behind a different router (the mapper in :mod:`repro.joins.jobs` /
:mod:`repro.joins.shares`), so they all compile to one
:class:`ProgressiveJoin` here and differ only in three build-time facts:
whether the first input is scanned as a charged step of its own, whether
steps may probe (equality keys / sorted range) instead of testing every
pair, and whether outputs pass an ownership filter.

The kernel joins a whole **bucket range** — the key groups of one or more
reduce tasks at once: key groups are independent, and the kernel accounts
per key group — on index vectors.  Shuffle values are ``(tag, position
in the input file)``, so per input the call's candidates are one
position vector (key groups back to back); a partial result is one index
vector per bound input; a column a check or probe reads is projected once
per job on the input's base row table as an exactly-typed array
(:func:`repro.relational.columns.typed_column` — ``object`` dtype where no
fixed-width dtype compares as Python does, through the same code) and
gathered by position.  Every step is the same primitive: each partial
gets a window ``[lo, hi)`` in one permutation of the new input's candidates — its key
group's run; narrowed, when the step probes, by a stable sort on
(group, equality-key code) or (group, value rank) and ``searchsorted`` —
the windows are expanded into flat ``(partial, candidate)`` vectors in
blocks of at most :data:`_BLOCK_PAIRS`, charged one comparison per pair,
and filtered by the step's compiled checks as gathers over those vectors.
No composite, id tuple, row table or intermediate partial is built: a
call returns one position vector per input, and the job's
``collect_outputs`` composes them over the input slabs once
(:func:`~repro.joins.records.compose`).

Every input's cover is static and covers are pairwise disjoint
(:func:`check_disjoint_covers`), so each alias lives in exactly one
input at a fixed entry position.

The record-at-a-time form of the same join is the oracle in
``tests/joins/scalar_oracle.py``; the equivalence suite holds this module
to it bit for bit (outputs and their order, comparison counts, bytes).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.joins.records import CompositeSlab, compose, object_column
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.cancel import check_cancelled
from repro.mapreduce.job import BatchReducer, ReduceBatch
from repro.relational.columns import INT_SAFE, add_offset, comparable, typed_column
from repro.relational.predicates import JoinCondition, ThetaOp
from repro.relational.schema import Schema

#: A step's candidate windows are expanded into pair vectors in blocks of
#: at most this many pairs (whole partials; one partial's window is never
#: split): every int64 vector of a block is then 256 KiB, so the handful a
#: block keeps alive stay cache-resident and a job near the cross product
#: costs a few MiB at a time instead of a few vectors per pair of the job.
#: Measured on ``plan_cold_q3`` (480 k pairs in one call): ``peak_rss_mb``
#: +19 MiB at 2**20, +6 at 2**17, +3 at 2**15, and no slower (NumPy's
#: per-call cost is < 2 % of a 2**15-pair block).
_BLOCK_PAIRS = 1 << 15

#: Window edge contributed by ``bound op new`` (bound side on the left):
#: ``(raises the lower edge?, searchsorted side)``.  ``bound < new`` keeps
#: the candidates strictly above the bound value, i.e. from the right edge
#: of the bound value's run.
_RANGE_EDGE = {
    ThetaOp.LT: (True, "right"),
    ThetaOp.LE: (True, "left"),
    ThetaOp.GT: (False, "left"),
    ThetaOp.GE: (False, "right"),
}

#: One column of one input's candidate table: ``(input, entry position
#: within the input's composites, column of the row)``.
Column = Tuple[int, int, int]


class _Step(NamedTuple):
    """What binding one more input takes."""

    #: Pair checks that become evaluable once this input is bound:
    #: ``(left column, left offset, compare, right column, right offset)``.
    checks: tuple
    #: ``("hash", bound columns, new columns)``, ``("range", new column,
    #: ((bound column, shift, lower?, side), ...))``, or None (every
    #: candidate of the partial's key group is in its window).
    probe: Optional[tuple]


def check_disjoint_covers(name: str, covers: Sequence[Sequence[str]]) -> None:
    """Reject inputs whose alias covers overlap.

    The kernel keeps one entry per alias and never compares global ids,
    so two inputs carrying the same alias would be joined as if their
    tuples of it agreed.  Partial results that share a relation are
    merged by id in the executor's merge phase, not inside a join job.
    """
    seen: set = set()
    shared: set = set()
    for cover in covers:
        shared |= seen & set(cover)
        seen |= set(cover)
    if shared:
        error = ExecutionError(
            f"job {name!r}: inputs share aliases {sorted(shared)}; a join job "
            "needs pairwise-disjoint input covers"
        )
        error.shared_aliases = tuple(sorted(shared))
        raise error


def _probe_plan(crossing, column_of) -> Optional[tuple]:
    """How to find a partial's candidates without testing every pair.

    ``crossing`` are the step's predicates with one endpoint bound and one
    new, oriented bound-side left.  Zero-offset equalities among them make
    a key — what a real reduce-side implementation hashes on for the
    equality part of a theta condition.  Failing that, inequalities
    against the new-side attribute with the most constraints (the
    tightest window) make a sorted range probe.  Probes only *narrow* the
    candidates; the step's pair checks still run on every one.
    """
    keys = [p for p in crossing if p.is_key]
    if keys:
        return (
            "hash",
            tuple(column_of(p.left) for p in keys),
            tuple(column_of(p.right) for p in keys),
        )
    by_column: Dict[Column, List[tuple]] = {}
    for p in crossing:
        if p.op in _RANGE_EDGE:
            # (bound + lo) op (new + ro)  <=>  new op' bound + (lo - ro)
            by_column.setdefault(column_of(p.right), []).append(
                (column_of(p.left), p.left.offset - p.right.offset, *_RANGE_EDGE[p.op])
            )
    if not by_column:
        return None
    column = max(by_column, key=lambda c: len(by_column[c]))
    return "range", column, tuple(by_column[column])


def window_pairs(
    lo: np.ndarray, counts: np.ndarray, order: Optional[np.ndarray] = None
):
    """Expand per-partial windows into flat pair vectors, block by block.

    Partial ``p`` is paired with the ``counts[p]`` candidates
    ``order[lo[p]:lo[p] + counts[p]]`` (the positions themselves without
    an ``order``).  Yields ``(acc_at, cand_at)`` — the partial and the
    candidate of each pair, partial-major, window order within a partial —
    in blocks of whole partials holding at most :data:`_BLOCK_PAIRS` pairs
    (more only when one window alone does).
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    start, base = 0, 0
    while base < total:
        stop = len(ends)
        if total - base > _BLOCK_PAIRS:
            stop = max(
                int(np.searchsorted(ends, base + _BLOCK_PAIRS, side="right")), start + 1
            )
        size = counts[start:stop]
        run_start = ends[start:stop] - size - base
        acc_at = np.repeat(np.arange(start, stop), size)
        cand_at = np.arange(int(ends[stop - 1]) - base) - np.repeat(
            run_start - lo[start:stop], size
        )
        yield acc_at, cand_at if order is None else order[cand_at]
        start, base = stop, int(ends[stop - 1])


def stack_pairs(blocks: Sequence[Tuple[np.ndarray, np.ndarray]]):
    """The ``(acc_at, cand_at)`` blocks of one step as one pair of vectors."""
    if len(blocks) == 1:
        return blocks[0]
    if not blocks:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    return tuple(map(np.concatenate, zip(*blocks)))


def _ranks(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense ascending ranks of ``values`` and the rank count; every NaN
    shares the top rank (NumPy's sort order, also for ``object`` columns,
    whose Python ``<`` has no place for a NaN)."""
    nan = values != values
    ranks = np.empty(len(values), dtype=np.int64)
    distinct, ranks[~nan] = np.unique(values[~nan], return_inverse=True)
    ranks[nan] = len(distinct)
    return ranks, len(distinct) + 1


def fold_keys(keys, span: int, digits, width: int):
    """Append one more digit to a pair of integer sort-key vectors.

    ``keys = (candidate keys, partial keys)`` lie in ``[0, span)`` and
    ``digits`` (same shapes) in ``[0, width)``; returns the folded pair
    and its span.  Two folded keys are equal iff the old keys and the
    digits both were, and order by (old key, digit).  Before the product
    could leave int64 the old keys are re-numbered densely, jointly.
    """
    cand_key, key = keys
    if span * width > INT_SAFE:
        both, span = _ranks(np.concatenate((cand_key, key)))
        cand_key, key = both[: len(cand_key)], both[len(cand_key):]
    return (cand_key * width + digits[0], key * width + digits[1]), span * width


class _Bucket:
    """The candidates one kernel call joins, per input: their positions in
    the input file (key groups back to back) and the key group of each.
    A column a check or probe reads is projected once per *job* on the
    input slab's base row table — as Python values or as a typed array,
    kept in the job's ``projected`` — and gathered through the slab's
    index vector and the candidate positions on first use."""

    def __init__(
        self,
        files: Sequence[DistributedFile],
        projected: Dict[tuple, np.ndarray],
        positions: Sequence[np.ndarray],
        groups: Sequence[np.ndarray],
        num_groups: int,
    ) -> None:
        self.files = files
        self.projected = projected
        self.positions = positions
        self.groups = groups
        self.num_groups = num_groups
        self._runs: Dict[int, np.ndarray] = {}
        self._gathered: Dict[tuple, object] = {}

    def runs(self, slot: int) -> np.ndarray:
        """Where each key group's run of input ``slot``'s candidates
        starts (``num_groups + 1`` edges)."""
        runs = self._runs.get(slot)
        if runs is None:
            runs = self._runs[slot] = np.searchsorted(
                self.groups[slot], np.arange(self.num_groups + 1)
            )
        return runs

    def _gather(self, column: Column, typed: bool):
        key = (column, typed)
        gathered = self._gathered.get(key)
        if gathered is None:
            slot, position, index = column
            slab: CompositeSlab = self.files[slot].records  # type: ignore[assignment]
            table = self.projected.get(key)
            if table is None:
                rows = slab.tables[position]
                table = object_column(map(itemgetter(index), rows), len(rows))
                if typed:
                    table = typed_column(table.tolist())
                self.projected[key] = table
            gathered = table[slab.index[position][self.positions[slot]]]
            if not typed:
                gathered = gathered.tolist()
            self._gathered[key] = gathered
        return gathered

    def values(self, column: Column) -> list:
        """The column's Python values, candidate order."""
        return self._gather(column, False)

    def column(self, column: Column) -> np.ndarray:
        """The column as an exactly-typed array, candidate order."""
        return self._gather(column, True)


class ProgressiveJoin:
    """A progressive join compiled over statically known input covers.

    ``covers[i]`` is the alias set of input ``i``; inputs are bound in
    that order and each condition is checked at the first step where all
    its aliases are bound.

    * ``scan_first`` — the first input is a step of its own: every one of
      its candidates is charged one comparison and filtered by the
      conditions it already satisfies alone (hypercube, equichain,
      shares).  Without it the first input is only the left side of step
      1, which then checks those conditions too (the pair-wise equi and
      broadcast joins, which charge ``|left| * |right|`` and nothing else).
    * ``probe`` — steps may use equality-key / sorted-range probes
      (hypercube).
    * ``owners_of`` — when given, :meth:`run` keeps only combinations
      whose candidate positions (the records' global ids within their
      input files) ``owners_of`` maps to their key group's (integer) key:
      the hypercube's exactness + no-duplicates rule, one vectorised call
      per kernel call.
    """

    def __init__(
        self,
        name: str,
        covers: Sequence[Sequence[str]],
        conditions: Sequence[JoinCondition],
        schemas: Mapping[str, Schema],
        *,
        scan_first: bool,
        probe: bool = False,
        owners_of: Optional[Callable[[Sequence[np.ndarray]], np.ndarray]] = None,
    ) -> None:
        check_disjoint_covers(name, covers)
        self.scan_first = scan_first
        self.owners_of = owners_of
        self.steps: List[_Step] = []
        #: alias -> (input, entry position): where the kernel reads it.
        place: Dict[str, Tuple[int, int]] = {}

        def column_of(ref) -> Column:
            return (*place[ref.alias], schemas[ref.alias].index_of(ref.attr))

        pending = list(conditions)
        for index, cover in enumerate(covers):
            bound = set(place)
            place.update((alias, (index, i)) for i, alias in enumerate(sorted(cover)))
            ready: List[JoinCondition] = []
            if index or scan_first:
                ready = [c for c in pending if set(c.aliases) <= place.keys()]
                pending = [c for c in pending if not set(c.aliases) <= place.keys()]
            predicates = [p for condition in ready for p in condition.predicates]
            crossing = [
                p.oriented(p.left.alias if p.left.alias in bound else p.right.alias)
                for p in predicates
                if (p.left.alias in bound) != (p.right.alias in bound)
            ]
            self.steps.append(
                _Step(
                    tuple(
                        (
                            column_of(p.left), p.left.offset, p.op.as_function,
                            column_of(p.right), p.right.offset,
                        )
                        for p in predicates
                    ),
                    _probe_plan(crossing, column_of) if probe and index else None,
                )
            )
        if pending:
            raise ExecutionError(
                f"job {name!r}: conditions {pending} reference aliases that "
                f"no input covers"
            )

    # Python floats compare against NaN silently; NumPy's object loops
    # raise the FP "invalid" flag for the very same comparisons.
    @np.errstate(invalid="ignore")
    def run(
        self, bucket: _Bucket, keys: Optional[np.ndarray] = None
    ) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray]:
        """Join the bucket's key groups in one pass (candidates in arrival
        order within a group; ``keys`` are the key-group keys when outputs
        are filtered by ownership).  Returns, key-group-major, one position
        vector per input (output ``j`` joins record ``out[i][j]`` of every
        input ``i``), and per key group the comparisons charged and the
        outputs produced.  A key group lacking an input ends at that step,
        keeping the charges so far."""
        positions, groups, num_groups = bucket.positions, bucket.groups, bucket.num_groups
        charged = np.zeros(num_groups, dtype=np.int64)
        if self.scan_first:
            charged += np.bincount(groups[0], minlength=num_groups)
        #: One index vector per bound input, and each partial's key group.
        partial = [np.arange(len(positions[0]))]
        group = groups[0]
        if self.steps[0].checks and len(group):
            (keep,) = self._passing(self.steps[0].checks, bucket, [], 0, partial[0])
            partial, group = [keep], group[keep]
        for slot in range(1, len(self.steps)):
            if not len(group) or not len(positions[slot]):
                group = group[:0]
                break
            step = self.steps[slot]
            order, lo, hi = self._windows(step.probe, bucket, partial, group, slot)
            counts = np.maximum(hi - lo, 0)
            # float64 weights: exact below 2**53 comparisons per key group.
            charged += np.bincount(group, counts, num_groups).astype(np.int64)
            grown = []
            for acc_at, cand_at in window_pairs(lo, counts, order):
                check_cancelled()
                if step.checks:
                    acc_at, cand_at = self._passing(
                        step.checks, bucket, partial, slot, cand_at, acc_at
                    )
                grown.append((acc_at, cand_at))
            acc_at, cand_at = stack_pairs(grown)
            partial = [at[acc_at] for at in partial] + [cand_at]
            group = group[acc_at]
        if not len(group):
            none = np.empty(0, dtype=np.int64)
            return [none] * len(positions), charged, np.zeros(num_groups, dtype=np.int64)
        out = [candidates[at] for candidates, at in zip(positions, partial)]
        if self.owners_of is not None:
            owned = self.owners_of(out) == keys[group]
            out, group = [at[owned] for at in out], group[owned]
        return out, charged, np.bincount(group, minlength=num_groups)

    @staticmethod
    def _passing(checks, bucket, partial, slot, cand_at, acc_at=None):
        """The pairs passing every check, as filtered ``(acc_at, cand_at)``
        (``(cand_at,)`` alone for the first input).  Checks run in
        predicate order, each on the survivors of the ones before it — the
        vector form of scalar short-circuiting, so a value is only ever
        compared (or offset) where the scalar loop would have."""
        column = bucket.column
        for left, left_offset, compare, right, right_offset in checks:
            a = column(left)[cand_at if left[0] == slot else partial[left[0]][acc_at]]
            b = column(right)[cand_at if right[0] == slot else partial[right[0]][acc_at]]
            if left_offset:
                a = add_offset(a, left_offset)
            if right_offset:
                b = add_offset(b, right_offset)
            if a.dtype != b.dtype:
                a, b = comparable(a, b)
            keep = compare(a, b)
            if not keep.all():
                cand_at = cand_at[keep]
                if acc_at is not None:
                    acc_at = acc_at[keep]
        return (cand_at,) if acc_at is None else (acc_at, cand_at)

    @staticmethod
    def _windows(probe, bucket, partial, group, slot):
        """``(order, lo, hi)``: partial ``p``'s candidates among input
        ``slot`` are ``order[lo[p]:hi[p]]``.

        Candidates and partials get integer sort keys whose leading digit
        is the key group, so one stable sort and one ``searchsorted`` per
        edge serve every key group of the bucket at once and a window
        never leaves its group's run.
        """
        cand_group = bucket.groups[slot]
        runs = bucket.runs(slot)
        if probe is None:
            return None, runs[group], runs[group + 1]
        if probe[0] == "hash":
            # Equal keys <=> equal codes: a dict decides, as Python
            # decides ``==`` between any two values (1 == 1.0, str, None).
            keys, span = (cand_group, group), bucket.num_groups
            for bound, new in zip(probe[1], probe[2]):
                codes: Dict[object, int] = {}
                new_code = [codes.setdefault(v, len(codes)) for v in bucket.values(new)]
                missing = len(codes)
                bound_code = np.array(
                    [codes.get(v, missing) for v in bucket.values(bound)], dtype=np.int64
                )
                keys, span = fold_keys(
                    keys,
                    span,
                    (np.array(new_code, dtype=np.int64), bound_code[partial[bound[0]]]),
                    missing + 1,
                )
            cand_key, key = keys
            order = np.argsort(cand_key, kind="stable")
            ranked = cand_key[order]
            return (
                order,
                np.searchsorted(ranked, key, side="left"),
                np.searchsorted(ranked, key, side="right"),
            )
        _kind, new, bounds = probe
        order = lo = hi = None
        for bound, shift, lower, side in bounds:
            # One exact dtype for both sides, then joint ranks: the sort
            # key (group, rank) is an int64 whatever the column held.
            values, edges = comparable(
                bucket.column(new), add_offset(bucket.column(bound), shift)
            )
            ranks, span = _ranks(np.concatenate((values, edges)))
            cand_key = cand_group * span + ranks[: len(values)]
            if order is None:
                order = np.argsort(cand_key, kind="stable")
                lo, hi = runs[group], runs[group + 1]
            edge = np.searchsorted(
                cand_key[order],
                group * span + ranks[len(values):][partial[bound[0]]],
                side=side,
            )
            if lower:
                lo = np.maximum(lo, edge)
            else:
                hi = np.minimum(hi, edge)
        return order, lo, hi


def reduce_side(
    join: ProgressiveJoin,
    slot_of_tag: Mapping[object, int],
    value_widths: Sequence[int],
    files: Sequence[DistributedFile],
) -> Dict[str, object]:
    """The reduce-side fields of a join job's ``MapReduceJobSpec`` over
    input ``files``: the :func:`bucket_reducer`, and the composition of
    its position vectors over the input slabs."""

    def collect_outputs(parts: Sequence[Sequence[np.ndarray]]) -> CompositeSlab:
        """Each input's positions, range after range, composed once."""
        return compose(
            [file.records for file in files],  # type: ignore[misc]
            [np.concatenate(vectors) for vectors in zip(*parts)],
        )

    return {
        "batch_reducer": bucket_reducer(join, slot_of_tag, value_widths, files),
        "collect_outputs": collect_outputs,
    }


def bucket_reducer(
    join: ProgressiveJoin,
    slot_of_tag: Mapping[object, int],
    value_widths: Sequence[int],
    files: Sequence[DistributedFile],
) -> BatchReducer:
    """The batch reducer of a join job: split the key groups' positions by
    input tag, run the kernel on all of them at once — the key groups of
    one bucket range, every bucket of the job when nothing runs in
    parallel — and account comparisons, outputs and input bytes per key
    group, as :class:`ReduceBatch` requires.  Its ``outputs`` are one
    position vector per input.

    Shuffle values are ``(tag, position)``, ``position`` the record's
    index in ``files[slot_of_tag[tag]]`` — the global id the hypercube's
    ownership rule reads (its shuffle keys are the component numbers).
    ``value_widths`` is the serialized width of the composite a value
    stands for, per input (plus 12 bytes of pair header per value, as
    the scalar runtime loop charges).
    """
    num_inputs = len(value_widths)
    #: The job's projected columns, filled by the process that reduces
    #: (two threads may both fill an entry: with the same array).
    projected: Dict[tuple, np.ndarray] = {}

    def reduce_groups(keys, values, offsets) -> ReduceBatch:
        num_groups = len(keys)
        count = len(values)
        # Two flat passes; ``zip(*values)`` would build one iterator per
        # value, and that burst alone runs a dozen GC collections.
        slots = np.fromiter(
            map(slot_of_tag.__getitem__, map(itemgetter(0), values)), np.intp, count
        )
        where = np.fromiter(map(itemgetter(1), values), np.int64, count)
        # Key group of a value: offsets[g] <= value < offsets[g + 1].
        group_of = np.repeat(np.arange(num_groups), np.diff(offsets))
        at = [np.flatnonzero(slots == slot) for slot in range(num_inputs)]
        groups = [group_of[slot_at] for slot_at in at]
        input_bytes = sum(
            (12 + value_widths[slot]) * np.bincount(groups[slot], minlength=num_groups)
            for slot in range(num_inputs)
        )
        bucket = _Bucket(files, projected, [where[a] for a in at], groups, num_groups)
        outputs, charged, produced = join.run(
            bucket, np.asarray(keys) if join.owners_of is not None else None
        )
        return ReduceBatch(outputs, charged, produced, input_bytes)

    return reduce_groups
