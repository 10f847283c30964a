"""Record-at-a-time reference for the join jobs (test oracle).

One scalar ``mapper`` + ``reducer`` spec per operator, built from the
*same arguments* as the production builder in ``repro.joins.jobs`` /
``repro.joins.shares``.  Mappers emit one ``(key, (tag, position))`` pair
at a time — the record's position in its input file, as production
does; reducers handle one key group at a time, resolve each position
through the input file's tuple view, and are written over
``merge_composites`` (per-composite dict merge with id agreement, from
``tail_oracle.py``),
``JoinCondition.evaluate`` (schema lookups per call) and ``bisect`` over
NaN-last sort keys — no positional compilation, no NumPy, and no code
shared with
``repro.joins.progressive``.  The equivalence suite runs every job both
ways and requires identical buckets (incl. key order), outputs,
comparison counts, input bytes and task costs.

This is the form the production code had before it was compiled; it is
kept simple and slow on purpose.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Dict, List, Optional, Tuple

import repro.joins.jobs as jobs
from repro.joins.jobs import find_single_key_class, make_keyspread_partitioner
from repro.mapreduce.counters import JobMetrics
from repro.mapreduce.job import MapReduceJobSpec, chain_outputs
from repro.relational.predicates import ThetaOp
from repro.utils import stable_hash

from tail_oracle import merge_composites, rows_by_alias


def _check(conditions, composite, schemas) -> bool:
    rows = rows_by_alias(composite)
    return all(c.evaluate(rows, schemas) for c in conditions)


def _value(composite, ref, schemas):
    return rows_by_alias(composite)[ref.alias][schemas[ref.alias].index_of(ref.attr)]


def _nan_last(value):
    """Sort key ordering NaN after every other value (NumPy's order):
    ``bisect`` over a list ``sorted()`` with NaNs in it is not sorted."""
    return (value != value, value)


def _composite_bytes(composite, schemas) -> int:
    """alias tag + global id + row, per entry (``composite_width``)."""
    return sum(16 + schemas[alias].row_width for alias, _, _ in composite)


def _ready_at_step(conditions, covers) -> List[list]:
    """Conditions that first become checkable after binding each input."""
    staged, seen, bound = [], set(), set()
    for cover in covers:
        bound.update(cover)
        ready = [c for c in conditions if id(c) not in seen and set(c.aliases) <= bound]
        seen.update(id(c) for c in ready)
        staged.append(ready)
    return staged


def _hash_plan(ready, bound, new):
    """``(bound_refs, new_refs)`` of the zero-offset equalities crossing
    the bound/new boundary, or None."""
    bound_refs, new_refs = [], []
    for condition in ready:
        for p in condition.predicates:
            if p.op is not ThetaOp.EQ or p.left.offset != 0 or p.right.offset != 0:
                continue
            sides = {p.left.alias, p.right.alias}
            if not (sides & bound and sides & new):
                continue
            if p.left.alias in bound:
                bound_refs.append(p.left)
                new_refs.append(p.right)
            else:
                bound_refs.append(p.right)
                new_refs.append(p.left)
    return (bound_refs, new_refs) if bound_refs else None


def _range_plan(ready, bound, new):
    """``(probe_ref, [(bound_ref, shift, kind)])`` for the new-side
    attribute with the most inequality constraints, or None.  Candidate
    values must satisfy ``value > bound + shift`` (kind "lower"), ``>=``
    ("lower_eq"), ``<`` ("upper") or ``<=`` ("upper_eq")."""
    by_attr: Dict[Tuple[str, str], list] = {}
    refs = {}
    for condition in ready:
        for p in condition.predicates:
            if p.op in (ThetaOp.EQ, ThetaOp.NE):
                continue
            sides = {p.left.alias, p.right.alias}
            if not (sides & bound and sides & new):
                continue
            oriented = p.oriented(p.left.alias if p.left.alias in bound else p.right.alias)
            kind = {
                ThetaOp.LT: "lower",
                ThetaOp.LE: "lower_eq",
                ThetaOp.GT: "upper",
                ThetaOp.GE: "upper_eq",
            }[oriented.op]
            key = (oriented.right.alias, oriented.right.attr)
            refs[key] = oriented.right
            by_attr.setdefault(key, []).append(
                (oriented.left, oriented.left.offset - oriented.right.offset, kind)
            )
    if not by_attr:
        return None
    key = max(by_attr, key=lambda k: len(by_attr[k]))
    return refs[key], by_attr[key]


def _progressive_reducer(inputs, conditions, schemas, probe=False, owner_of_ids=None):
    """The per-key-group progressive join: bind one input at a time, test
    each (partial, candidate) combination that the step's hash / range
    probe admits (every combination without one), charge one comparison
    per test, keep the merged composite when the newly ready conditions
    hold.  ``inputs[i]`` is input ``i``'s slab, read as tuples; values
    are ``(input index, position)``, and a position is the record id the
    ownership rule reads."""
    covers = [composites.cover for composites in inputs]
    staged = _ready_at_step(conditions, covers)
    plans: List[Optional[tuple]] = [None]
    for step in range(1, len(covers)):
        bound = {a for cover in covers[:step] for a in cover}
        new = set(covers[step])
        hashed = _hash_plan(staged[step], bound, new) if probe else None
        ranged = _range_plan(staged[step], bound, new) if probe else None
        plans.append(
            ("hash", *hashed) if hashed else ("range", *ranged) if ranged else None
        )

    def reducer(key, values, ctx):
        per_input = [[] for _ in covers]
        for slot, position in values:
            per_input[slot].append((position, inputs[slot][position]))
        partial = [((), ())]  # (record ids so far, merged composite)
        for step, candidates in enumerate(per_input):
            if not candidates:
                return
            plan = plans[step]
            if plan is None:
                def matches_of(accumulated):
                    return candidates
            elif plan[0] == "hash":
                _kind, bound_refs, new_refs = plan
                index: Dict[tuple, list] = {}
                for item in candidates:
                    item_key = tuple(_value(item[1], r, schemas) for r in new_refs)
                    index.setdefault(item_key, []).append(item)

                def matches_of(accumulated):
                    wanted = tuple(_value(accumulated, r, schemas) for r in bound_refs)
                    return index.get(wanted, ())
            else:
                _kind, probe_ref, bounds = plan
                ranked = sorted(
                    candidates,
                    key=lambda item: _nan_last(_value(item[1], probe_ref, schemas)),
                )
                keys = [_nan_last(_value(c, probe_ref, schemas)) for _, c in ranked]

                def matches_of(accumulated):
                    lo, hi = 0, len(ranked)
                    for bound_ref, shift, kind in bounds:
                        edge = _value(accumulated, bound_ref, schemas)
                        if shift:
                            edge = edge + shift
                        edge = _nan_last(edge)
                        if kind == "lower":
                            lo = max(lo, bisect.bisect_right(keys, edge))
                        elif kind == "lower_eq":
                            lo = max(lo, bisect.bisect_left(keys, edge))
                        elif kind == "upper":
                            hi = min(hi, bisect.bisect_left(keys, edge))
                        else:
                            hi = min(hi, bisect.bisect_right(keys, edge))
                    return ranked[lo:hi]

            grown = []
            for ids, accumulated in partial:
                for gid, composite in matches_of(accumulated):
                    ctx.charge_comparisons(1)
                    merged = merge_composites(accumulated, composite)
                    if merged is not None and _check(staged[step], merged, schemas):
                        grown.append((ids + (gid,), merged))
            partial = grown
            if not partial:
                return
        for ids, merged in partial:
            if owner_of_ids is None or owner_of_ids(ids) == key:
                yield merged

    return reducer


def _pairwise_reducer(inputs_by_tag, first_tag, conditions, schemas):
    """The pair-wise (equi / broadcast) reduce: a filtered nested loop
    charged ``|first| * |second|``.  Values are ``(tag, position)``,
    resolved through ``inputs_by_tag[tag]`` (tuple form)."""

    def reducer(key, values, ctx):
        firsts = [inputs_by_tag[tag][at] for tag, at in values if tag == first_tag]
        seconds = [inputs_by_tag[tag][at] for tag, at in values if tag != first_tag]
        ctx.charge_comparisons(len(firsts) * len(seconds))
        for first in firsts:
            for second in seconds:
                merged = merge_composites(first, second)
                if merged is not None and _check(conditions, merged, schemas):
                    yield merged

    return reducer


def hypercube_job(
    name, dim_files, partitioner, conditions, schemas_by_alias, output_name="",
) -> MapReduceJobSpec:
    dim_aliases = [file.records.cover for file in dim_files]
    inputs = [file.records for file in dim_files]
    dim_of_tag = {file.tag: dim for dim, file in enumerate(dim_files)}
    slab_components = partitioner.slab_components()

    def mapper(tag, record, ctx):
        dim = dim_of_tag[tag]
        slab = min(
            ctx.record_index // partitioner.cell_widths[dim],
            partitioner.used_side[dim] - 1,
        )
        for component in slab_components[dim][slab]:
            yield component, (dim, ctx.record_index)

    return MapReduceJobSpec(
        name=name,
        inputs=list(dim_files),
        mapper=mapper,
        reducer=_progressive_reducer(
            inputs, conditions, schemas_by_alias,
            probe=True, owner_of_ids=partitioner.owner_of_ids,
        ),
        num_reducers=partitioner.num_components,
        output_record_width=_output_width(dim_aliases, schemas_by_alias),
        pair_width_fn=lambda value: (
            16 + _composite_bytes(inputs[value[0]][value[1]], schemas_by_alias)
        ),
        output_name=output_name or f"{name}.out",
    )


def _output_width(covers, schemas) -> int:
    return sum(16 + schemas[a].row_width for a in {a for cover in covers for a in cover})


def equi_join_job(
    name, left_file, right_file, conditions, schemas_by_alias, num_reducers,
    output_name="",
) -> MapReduceJobSpec:
    left_aliases = set(left_file.records.cover)
    right_aliases = set(right_file.records.cover)
    key_predicates = [
        p for c in conditions for p in c.predicates
        if p.op is ThetaOp.EQ and p.left.offset == 0 and p.right.offset == 0
    ]

    def key_of(tag, composite):
        side = left_aliases if tag == left_file.tag else right_aliases
        refs = [p.left if p.left.alias in side else p.right for p in key_predicates]
        return ("k", tuple(_value(composite, ref, schemas_by_alias) for ref in refs))

    partition, _ = make_keyspread_partitioner(
        (key_of(f.tag, record) for f in (left_file, right_file) for record in f.records),
        num_reducers,
    )

    def mapper(tag, record, ctx):
        yield key_of(tag, record), (tag == left_file.tag, ctx.record_index)

    inputs = {True: left_file.records, False: right_file.records}
    return MapReduceJobSpec(
        name=name,
        inputs=[left_file, right_file],
        mapper=mapper,
        reducer=_pairwise_reducer(inputs, True, list(conditions), schemas_by_alias),
        num_reducers=num_reducers,
        partitioner=partition,
        output_record_width=_output_width([left_aliases, right_aliases], schemas_by_alias),
        pair_width_fn=lambda value: (
            2 + _composite_bytes(inputs[value[0]][value[1]], schemas_by_alias)
        ),
        output_name=output_name or f"{name}.out",
    )


def broadcast_join_job(
    name, big_file, small_file, conditions, schemas_by_alias, num_reducers,
    output_name="",
) -> MapReduceJobSpec:
    covers = [set(big_file.records.cover), set(small_file.records.cover)]

    def mapper(tag, record, ctx):
        if tag == big_file.tag:
            yield (
                stable_hash(("b", ctx.record_index), num_reducers),
                ("big", ctx.record_index),
            )
        else:
            for component in range(num_reducers):
                yield component, ("small", ctx.record_index)

    inputs = {"big": big_file.records, "small": small_file.records}
    return MapReduceJobSpec(
        name=name,
        inputs=[big_file, small_file],
        mapper=mapper,
        reducer=_pairwise_reducer(inputs, "big", list(conditions), schemas_by_alias),
        num_reducers=num_reducers,
        output_record_width=_output_width(covers, schemas_by_alias),
        pair_width_fn=lambda value: (
            6 + _composite_bytes(inputs[value[0]][value[1]], schemas_by_alias)
        ),
        output_name=output_name or f"{name}.out",
    )


def equichain_join_job(
    name, input_files, conditions, schemas_by_alias, num_reducers,
    output_name="",
) -> MapReduceJobSpec:
    alias_groups = [file.records.cover for file in input_files]
    key_refs = find_single_key_class(conditions, alias_groups)
    index_of_tag = {file.tag: i for i, file in enumerate(input_files)}
    key_ref_of_tag = {
        file.tag: next(key_refs[a] for a in group if a in key_refs)
        for file, group in zip(input_files, alias_groups)
    }

    def key_of(tag, composite):
        return ("k", _value(composite, key_ref_of_tag[tag], schemas_by_alias))

    partition, _ = make_keyspread_partitioner(
        (key_of(f.tag, record) for f in input_files for record in f.records),
        num_reducers,
    )

    def mapper(tag, record, ctx):
        yield key_of(tag, record), (index_of_tag[tag], ctx.record_index)

    inputs = [file.records for file in input_files]
    return MapReduceJobSpec(
        name=name,
        inputs=list(input_files),
        mapper=mapper,
        reducer=_progressive_reducer(inputs, conditions, schemas_by_alias),
        num_reducers=num_reducers,
        partitioner=partition,
        output_record_width=_output_width(alias_groups, schemas_by_alias),
        pair_width_fn=lambda value: (
            8 + _composite_bytes(inputs[value[0]][value[1]], schemas_by_alias)
        ),
        output_name=output_name or f"{name}.out",
    )


def shares_reduce_side(spec: MapReduceJobSpec, input_files, conditions, schemas_by_alias):
    """``spec`` (from ``make_shares_join_job``, whose mapper is scalar
    already) with its reduce side replaced by the reference: values are
    ``(alias, position)``, inputs are bound in file order."""
    slot = {file.tag: i for i, file in enumerate(input_files)}
    inputs = [file.records for file in input_files]
    progressive = _progressive_reducer(inputs, conditions, schemas_by_alias)

    def reducer(key, values, ctx):
        return progressive(key, [(slot[tag], at) for tag, at in values], ctx)

    return dataclasses.replace(
        spec,
        reducer=reducer,
        batch_reducer=None,
        collect_outputs=chain_outputs,
        pair_width_fn=lambda value: 4 + len(value[0]) + _composite_bytes(
            inputs[slot[value[0]]][value[1]], schemas_by_alias
        ),
    )


def assert_job_matches_oracle(cluster, spec, oracle, require_output=False):
    """Run ``spec`` (batch) and ``oracle`` (scalar) map and reduce phases
    on ``cluster`` and require bit-identical buckets, outputs, counters
    and task costs.  Returns the batch outputs."""
    assert spec.batch_reducer is not None
    assert oracle.batch_mapper is None and oracle.batch_reducer is None
    got, want = JobMetrics(job_name=spec.name), JobMetrics(job_name=spec.name)
    buckets = cluster._run_map_phase(spec, got)
    oracle_buckets = cluster._run_map_phase(oracle, want)
    assert buckets == oracle_buckets, f"{spec.name}: map buckets differ"
    for bucket, oracle_bucket in zip(buckets, oracle_buckets):
        assert list(bucket) == list(oracle_bucket), f"{spec.name}: key order differs"
    assert got.map_output_records == want.map_output_records
    assert got.map_output_bytes == want.map_output_bytes
    assert got.shuffle_bytes == want.shuffle_bytes
    outputs, costs = cluster._run_reduce_phase(spec, buckets, got)
    oracle_outputs, oracle_costs = cluster._run_reduce_phase(oracle, buckets, want)
    assert list(outputs) == oracle_outputs, f"{spec.name}: reduce outputs differ"
    assert got.reduce_comparisons == want.reduce_comparisons, spec.name
    assert got.reducer_input_bytes == want.reducer_input_bytes, spec.name
    assert costs == oracle_costs, f"{spec.name}: reduce costs differ"
    if require_output:
        assert outputs, f"{spec.name}: degenerate test, no outputs"
    return outputs


#: production builder name -> oracle builder taking the same arguments.
ORACLE_BUILDERS = {
    "make_hypercube_join_job": hypercube_job,
    "make_equi_join_job": equi_join_job,
    "make_broadcast_join_job": broadcast_join_job,
    "make_equichain_join_job": equichain_join_job,
}


def build_with_oracle(builder: str, *args, **kwargs):
    """``(spec, oracle)`` from one argument list."""
    return getattr(jobs, builder)(*args, **kwargs), ORACLE_BUILDERS[builder](*args, **kwargs)
