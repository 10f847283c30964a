"""The progressive reduce-side join: compiled once per job, run by one kernel.

Algorithm 1 binds the inputs of a reduce task one dimension at a time and
applies every theta condition as soon as both its endpoints are bound.
The equi, equichain, broadcast and share operators are the *same* join
behind a different router (the mapper in :mod:`repro.joins.jobs` /
:mod:`repro.joins.shares`), so they all compile to one
:class:`ProgressiveJoin` here and differ only in three build-time facts:
whether the first input is scanned as a charged step of its own, whether
steps may probe (hash / sorted range) instead of testing every pair, and
whether outputs pass an ownership filter.

Every composite flowing through one join job covers a *statically known*
alias set (each input's cover is fixed, and inputs are bound in a fixed
order), so the partial composite entering step ``s`` is an alias-sorted
tuple over a known cover.  That turns every per-composite dict build of a
record-at-a-time reducer (``rows_by_alias``, ``merge_composites``) into
tuple indexing resolved once at job-build time.  The compiled merge is
exact only when the input covers are pairwise disjoint, which
:func:`check_disjoint_covers` enforces for every builder.

The record-at-a-time form of the same join is the oracle in
``tests/joins/scalar_oracle.py``; the equivalence suite holds this module
to it bit for bit (outputs and their order, comparison counts, bytes).
"""

from __future__ import annotations

import bisect
from itertools import repeat
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.joins.records import Composite, tuple_getter
from repro.mapreduce.job import BatchReducer, ReduceBatch
from repro.relational.columns import add_offset, comparable, typed_column
from repro.relational.predicates import JoinCondition, ThetaOp
from repro.relational.schema import Schema

#: Candidate count from which the sorted range probe finds its windows
#: with NumPy, and pair count from which a probe-less step evaluates its
#: checks as one NumPy mask.  Both paths are selected by group size alone
#: and both sides of each gate run in the benchmark grid; below the gates
#: array construction costs more than the Python loop it replaces.
NP_MIN_PROBE = 128
NP_MIN_PAIRS = 256

#: Window edge contributed by ``bound op new`` (bound side on the left):
#: ``(raises the lower edge?, bisect side)``.  ``bound < new`` keeps the
#: candidates strictly above the bound value, i.e. from ``bisect_right``.
_RANGE_EDGE = {
    ThetaOp.LT: (True, "right"),
    ThetaOp.LE: (True, "left"),
    ThetaOp.GT: (False, "left"),
    ThetaOp.GE: (False, "right"),
}
_BISECT = {"left": bisect.bisect_left, "right": bisect.bisect_right}


class _Step(NamedTuple):
    """What binding one more input takes."""

    #: Pair checks that become evaluable once this input is bound, or None.
    checks: Optional[tuple]
    #: ``pick(acc + cand)`` builds the merged composite (None: first input).
    pick: Optional[Callable]
    #: ``("hash", bound_specs, new_specs)``, ``("range", column, bounds)``,
    #: or None (every pair is a candidate).
    probe: Optional[tuple]


def check_disjoint_covers(name: str, covers: Sequence[Sequence[str]]) -> None:
    """Reject inputs whose alias covers overlap.

    Position-compiled merging keeps one entry per alias and never compares
    global ids, so two inputs carrying the same alias would be joined as
    if their tuples of it agreed.  Partial results that share a relation
    are merged by id in the executor's merge phase, not inside a join job.
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


def merge_picker(bound_cover: Sequence[str], new_cover: Sequence[str]) -> Callable:
    """``pick(acc + cand)`` realising ``merge_composites(acc, cand)`` for
    alias-sorted composites over statically known covers.  Aliases in both
    covers keep the accumulated side's entry, exactly like
    ``merge_composites`` (callers must know the shared ids agree)."""
    position = {alias: len(bound_cover) + i for i, alias in enumerate(new_cover)}
    position.update({alias: i for i, alias in enumerate(bound_cover)})
    return tuple_getter([position[alias] for alias in sorted(position)])


def _pair_checks(
    ready: Sequence[JoinCondition],
    schemas: Mapping[str, Schema],
    bound_pos: Mapping[str, int],
    new_pos: Mapping[str, int],
) -> Optional[tuple]:
    """Compile a conjunction into (accumulated, candidate) pair form.

    Each predicate endpoint resolves to ``(source, entry position, column
    index, offset)`` — source 0 reads the accumulated composite, 1 the
    candidate — so the check runs *before* the merged composite is built,
    on tuple indexing alone, in predicate order.  ``None`` when empty.
    """

    def resolve(ref):
        column = schemas[ref.alias].index_of(ref.attr)
        if ref.alias in bound_pos:
            return 0, bound_pos[ref.alias], column, ref.offset
        return 1, new_pos[ref.alias], column, ref.offset

    compiled = tuple(
        (*resolve(p.left), p.op.as_function, *resolve(p.right))
        for condition in ready
        for p in condition.predicates
    )
    return compiled or None


def _probe_plan(
    ready: Sequence[JoinCondition],
    schemas: Mapping[str, Schema],
    bound_pos: Mapping[str, int],
    new_pos: Mapping[str, int],
) -> Optional[tuple]:
    """How to find a partial's candidates without testing every pair.

    Zero-offset equalities crossing the bound/new boundary make a hash
    key — what a real reduce-side implementation does for the equality
    part of a theta condition.  Failing that, inequalities against the
    new-side attribute with the most constraints (the tightest window)
    make a sorted range probe: candidates are sorted by that attribute
    once and each partial bisects its window.  Probes only *narrow* the
    candidates; the step's pair checks still run on every one.
    """
    crossing = [
        p.oriented(p.left.alias if p.left.alias in bound_pos else p.right.alias)
        for condition in ready
        for p in condition.predicates
        if (p.left.alias in bound_pos) != (p.right.alias in bound_pos)
    ]

    def spec(ref, pos):
        return pos[ref.alias], schemas[ref.alias].index_of(ref.attr)

    keys = [
        p for p in crossing
        if p.op.is_equality and p.left.offset == 0 and p.right.offset == 0
    ]
    if keys:
        return (
            "hash",
            tuple(spec(p.left, bound_pos) for p in keys),
            tuple(spec(p.right, new_pos) for p in keys),
        )
    by_column: Dict[Tuple[int, int], List[tuple]] = {}
    for p in crossing:
        if p.op in _RANGE_EDGE:
            # (bound + lo) op (new + ro)  <=>  new op' bound + (lo - ro)
            by_column.setdefault(spec(p.right, new_pos), []).append(
                (*spec(p.left, bound_pos), p.left.offset - p.right.offset,
                 *_RANGE_EDGE[p.op])
            )
    if not by_column:
        return None
    column = max(by_column, key=lambda c: len(by_column[c]))
    return "range", column, tuple(by_column[column])


def _pair_passes(checks, acc: Composite, cand: Composite) -> bool:
    """Evaluate compiled pair checks with scalar short-circuiting."""
    for ls, lp, li, lo, compare, rs, rp, ri, ro in checks:
        left_value = (acc if ls == 0 else cand)[lp][2][li]
        if lo:
            left_value = left_value + lo
        right_value = (acc if rs == 0 else cand)[rp][2][ri]
        if ro:
            right_value = right_value + ro
        if not compare(left_value, right_value):
            return False
    return True


def _pair_mask(checks, accs: Sequence[Composite], cands: Sequence[Composite]):
    """``len(accs) x len(cands)`` boolean matrix of passing pairs, or
    ``None`` when some column has no dtype in which NumPy compares (and
    adds offsets) exactly as Python does — callers then run the pair loop.
    A conjunction of pure predicates, so evaluation order cannot matter.
    """
    mask = np.ones((len(accs), len(cands)), dtype=bool)
    for ls, lp, li, lo, compare, rs, rp, ri, ro in checks:
        left = typed_column([c[lp][2][li] for c in (cands if ls else accs)])
        right = typed_column([c[rp][2][ri] for c in (cands if rs else accs)])
        if left.dtype == object or right.dtype == object:
            return None
        left, right = comparable(add_offset(left, lo), add_offset(right, ro))
        if left.dtype == object:
            return None
        mask &= compare(
            left[None, :] if ls else left[:, None],
            right[None, :] if rs else right[:, None],
        )
    return mask


def _keys(composites: Sequence[Composite], specs) -> list:
    if len(specs) == 1:
        ((pos, col),) = specs
        return [c[pos][2][col] for c in composites]
    return [tuple(c[pos][2][col] for pos, col in specs) for c in composites]


def _hash_matches(bound_specs, new_specs, accs, cands) -> list:
    """Per partial, the candidates with an equal key in arrival order
    (``None`` when there are none)."""
    index: Dict[object, List[int]] = {}
    for i, key in enumerate(_keys(cands, new_specs)):
        index.setdefault(key, []).append(i)
    return [index.get(key) for key in _keys(accs, bound_specs)]


def _range_matches(column, bounds, accs, cands) -> list:
    """Per partial, the candidates inside its value window, in stable
    sorted order of the probed attribute."""
    pos, col = column
    values = [cand[pos][2][col] for cand in cands]
    count = len(values)
    windows = _np_windows(values, bounds, accs) if count >= NP_MIN_PROBE else None
    if windows is None:
        order = sorted(range(count), key=values.__getitem__)
        ranked = [values[i] for i in order]
        lows, highs = [], []
        for acc in accs:
            lo, hi = 0, count
            for bpos, bcol, shift, lower, side in bounds:
                value = acc[bpos][2][bcol]
                edge = _BISECT[side](ranked, value + shift if shift else value)
                if lower:
                    if edge > lo:
                        lo = edge
                elif edge < hi:
                    hi = edge
            lows.append(lo)
            highs.append(hi)
    else:
        order, lows, highs = windows
    return [order[lo:hi] for lo, hi in zip(lows, highs)]


def _np_windows(values, bounds, accs):
    """``(order, lows, highs)`` of the range probe through NumPy, or
    ``None`` when a column cannot be typed exactly (see ``_pair_mask``)."""
    column = typed_column(values)
    if column.dtype == object:
        return None
    order = np.argsort(column, kind="stable")
    ranked = column[order]
    lows = np.zeros(len(accs), dtype=np.int64)
    highs = np.full(len(accs), len(values), dtype=np.int64)
    for bpos, bcol, shift, lower, side in bounds:
        bound = typed_column([acc[bpos][2][bcol] for acc in accs])
        if bound.dtype == object:
            return None
        # An exact int64 -> float64 cast is monotone, so ``order`` stands.
        probed, bound = comparable(ranked, add_offset(bound, shift))
        if bound.dtype == object:
            return None
        edge = np.searchsorted(probed, bound, side=side)
        if lower:
            np.maximum(lows, edge, out=lows)
        else:
            np.minimum(highs, edge, out=highs)
    return order.tolist(), lows.tolist(), highs.tolist()


def _grow(step: _Step, accs, ids, cands, gids):
    """Bind one more input: ``(partials, their id tuples, comparisons)``.

    Every candidate a probe admits (every pair, without one) is charged
    as one comparison, then filtered by the step's pair checks — as one
    NumPy mask over the whole cross product when there is no probe and
    the block is big enough, else pair by pair.
    """
    checks, pick, probe = step
    num_accs, num_cands = len(accs), len(cands)
    mask = None
    if probe is None:
        if checks is not None and num_accs * num_cands >= NP_MIN_PAIRS:
            mask = _pair_mask(checks, accs, cands)
        matches = repeat(range(num_cands), num_accs)
    elif probe[0] == "hash":
        matches = _hash_matches(probe[1], probe[2], accs, cands)
    else:
        matches = _range_matches(probe[1], probe[2], accs, cands)
    if mask is not None:
        comparisons = num_accs * num_cands
        acc_at, cand_at = (axis.tolist() for axis in np.nonzero(mask))
    else:
        comparisons = 0
        acc_at, cand_at = [], []
        for j, hits in enumerate(matches):
            if not hits:
                continue
            comparisons += len(hits)
            if checks is None:
                acc_at.extend(repeat(j, len(hits)))
                cand_at.extend(hits)
                continue
            acc = accs[j]
            for i in hits:
                if _pair_passes(checks, acc, cands[i]):
                    acc_at.append(j)
                    cand_at.append(i)
    grown = [pick(accs[j] + cands[i]) for j, i in zip(acc_at, cand_at)]
    if ids is not None:
        ids = [ids[j] + (gids[i],) for j, i in zip(acc_at, cand_at)]
    return grown, ids, comparisons


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
    * ``probe`` — steps may use hash / sorted-range probes (hypercube).
    * ``owner_of_ids`` — when given, :meth:`run` takes per-input record
      ids and keeps only combinations whose id tuple the task's key owns
      (the hypercube's exactness + no-duplicates rule).
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
        owner_of_ids: Optional[Callable[[Tuple[int, ...]], object]] = None,
    ) -> None:
        check_disjoint_covers(name, covers)
        self.scan_first = scan_first
        self.owner_of_ids = owner_of_ids
        self.steps: List[_Step] = []
        pending = list(conditions)
        bound: Tuple[str, ...] = ()
        for index, cover in enumerate(covers):
            cover = tuple(sorted(cover))
            bound_pos = {alias: i for i, alias in enumerate(bound)}
            new_pos = {alias: i for i, alias in enumerate(cover)}
            ready: List[JoinCondition] = []
            if index or scan_first:
                known = bound_pos.keys() | new_pos.keys()
                ready = [c for c in pending if set(c.aliases) <= known]
                pending = [c for c in pending if not set(c.aliases) <= known]
            self.steps.append(
                _Step(
                    _pair_checks(ready, schemas, bound_pos, new_pos),
                    merge_picker(bound, cover) if index else None,
                    _probe_plan(ready, schemas, bound_pos, new_pos)
                    if probe and index
                    else None,
                )
            )
            bound = tuple(sorted(bound + cover))
        if pending:
            raise ExecutionError(
                f"job {name!r}: conditions {pending} reference aliases that "
                f"no input covers"
            )

    def run(
        self,
        inputs: Sequence[Sequence[Composite]],
        gids: Optional[Sequence[Sequence[int]]] = None,
        key: object = None,
    ) -> Tuple[List[Composite], int]:
        """Join one key group: ``inputs[i]`` holds input ``i``'s candidates
        in arrival order.  Returns ``(outputs, comparisons)``; an empty
        input ends the group at its step, keeping the charges so far."""
        steps = self.steps
        first = steps[0]
        partial = inputs[0]
        ids = None if gids is None else [(gid,) for gid in gids[0]]
        comparisons = len(partial) if self.scan_first else 0
        if first.checks is not None:
            keep = [
                i for i, c in enumerate(partial) if _pair_passes(first.checks, (), c)
            ]
            partial = [partial[i] for i in keep]
            if ids is not None:
                ids = [ids[i] for i in keep]
        for index in range(1, len(steps)):
            if not partial or not inputs[index]:
                return [], comparisons
            partial, ids, charged = _grow(
                steps[index], partial, ids, inputs[index], gids and gids[index]
            )
            comparisons += charged
        if ids is not None:
            owner = self.owner_of_ids
            partial = [c for c, i in zip(partial, ids) if owner(i) == key]
        return partial, comparisons


def bucket_reducer(
    join: ProgressiveJoin,
    slot_of_tag: Mapping[object, int],
    value_widths: Sequence[int],
) -> BatchReducer:
    """The batch reducer of a join job: split each key group of the bucket
    by input tag, run the kernel, account the bucket's input bytes.

    Shuffle values are ``(tag, composite)`` — ``(tag, record id,
    composite)`` when the join filters by ownership — and ``value_widths``
    is the serialized width of one value per input (12 bytes of pair
    header are added per value, as the scalar runtime loop charges).
    """
    num_inputs = len(value_widths)
    with_ids = join.owner_of_ids is not None

    def reduce_bucket(keys, values, offsets) -> ReduceBatch:
        outputs: List[object] = []
        comparisons = 0
        counts = [0] * num_inputs
        for g, key in enumerate(keys):
            inputs: List[List[Composite]] = [[] for _ in range(num_inputs)]
            gids = [[] for _ in range(num_inputs)] if with_ids else None
            if with_ids:
                for i in range(offsets[g], offsets[g + 1]):
                    tag, gid, composite = values[i]
                    slot = slot_of_tag[tag]
                    inputs[slot].append(composite)
                    gids[slot].append(gid)
            else:
                for i in range(offsets[g], offsets[g + 1]):
                    tag, composite = values[i]
                    inputs[slot_of_tag[tag]].append(composite)
            for slot in range(num_inputs):
                counts[slot] += len(inputs[slot])
            produced, charged = join.run(inputs, gids, key)
            outputs.extend(produced)
            comparisons += charged
        input_bytes = sum(
            (12 + value_widths[slot]) * counts[slot] for slot in range(num_inputs)
        )
        return ReduceBatch(outputs, comparisons, input_bytes)

    return reduce_bucket
