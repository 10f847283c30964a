"""Afrati-Ullman share-based multi-way equi-join (reference [2]).

The paper contrasts its hyper-cube theta partitioning with Afrati and
Ullman's optimisation of multi-way *equi*-joins in one MapReduce job:
each join attribute ``x`` receives a "share" ``s_x``, the reducer grid is
the cross product of the shares, and a tuple is routed by hashing the
join-attribute values it carries — replicated over the grid dimensions of
attributes it lacks.  Communication is minimised by choosing shares via
the Lagrangean condition (each relation's volume times the product of
the shares it misses is equalised); we implement the standard iterative
approximation over integer share vectors.

The operator only supports pure equality conditions — exactly the
limitation the paper works around with the Hilbert hyper-cube (Section
1: "the solution proposed in [2] cannot be extended to solve the case of
multi-way Theta-joins").
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import ExecutionError, PlanningError
from repro.joins.progressive import ProgressiveJoin, reduce_side
from repro.joins.records import composite_width, input_cover
from repro.mapreduce.hdfs import DistributedFile
from repro.mapreduce.job import MapReduceJobSpec, TaskContext
from repro.relational.predicates import JoinCondition, key_classes
from repro.relational.schema import Schema
from repro.utils import stable_hash


def attribute_classes(
    conditions: Sequence[JoinCondition],
) -> List[Dict[str, str]]:
    """Equality classes of join attributes: each is ``{alias: attr}``.

    Every class becomes one dimension of the share grid.  Raises if any
    predicate is not a zero-offset equality (shares cannot route theta).
    """
    predicates = [p for condition in conditions for p in condition.predicates]
    for predicate in predicates:
        if not predicate.is_key:
            raise PlanningError(
                "share-based join supports pure equality predicates only; "
                f"got {predicate}"
            )
    groups = [{ref.alias: ref.attr for ref in refs} for refs in key_classes(predicates)]
    return sorted(groups, key=lambda g: sorted(g.items()))


def optimize_shares(
    relation_sizes: Mapping[str, float],
    classes: Sequence[Mapping[str, str]],
    total_reducers: int,
) -> List[int]:
    """Integer share vector with product <= total_reducers.

    Greedy hill climbing on the communication cost
    ``sum_R |R| * prod(shares of classes R misses)`` — each step doubles
    the share that most reduces the cost, the standard practical
    approximation of the Lagrangean optimum.
    """
    if total_reducers < 1:
        raise PlanningError("total_reducers must be >= 1")
    shares = [1] * len(classes)

    def cost(vector: Sequence[int]) -> float:
        total = 0.0
        for alias, size in relation_sizes.items():
            replication = 1
            for index, klass in enumerate(classes):
                if alias not in klass:
                    replication *= vector[index]
            total += size * replication
        return total

    improved = True
    while improved:
        improved = False
        best_index = -1
        best_cost = cost(shares)
        for index in range(len(shares)):
            trial = list(shares)
            trial[index] *= 2
            product = 1
            for s in trial:
                product *= s
            if product > total_reducers:
                continue
            trial_cost = cost(trial)
            if trial_cost < best_cost:
                best_cost = trial_cost
                best_index = index
        if best_index >= 0:
            shares[best_index] *= 2
            improved = True
    return shares


def make_shares_join_job(
    name: str,
    input_files: Sequence[DistributedFile],
    conditions: Sequence[JoinCondition],
    schemas_by_alias: Mapping[str, Schema],
    total_reducers: int,
    output_name: str = "",
    shares: Optional[Sequence[int]] = None,
) -> MapReduceJobSpec:
    """Multi-way equi-join in one MapReduce job via attribute shares.

    ``input_files`` are one-alias slabs, one per alias (tag = alias).
    Routing is per record (the scalar ``mapper``, which emits ``(alias,
    position)``); the reduce side is the shared progressive join of
    :mod:`repro.joins.progressive`.
    """
    classes = attribute_classes(conditions)
    if not classes:
        raise PlanningError(f"job {name!r}: no equality classes to share on")
    aliases = [f.tag for f in input_files]
    if len(set(aliases)) != len(aliases):
        raise ExecutionError(f"job {name!r}: inputs must carry distinct tags")
    for file in input_files:
        if input_cover(name, file) != (file.tag,):
            raise ExecutionError(
                f"job {name!r}: input {file.name!r} must hold singleton "
                f"composites of alias {file.tag!r}"
            )
    sizes = {f.tag: float(f.size_bytes) for f in input_files}
    share_vector = list(
        shares if shares is not None else optimize_shares(sizes, classes, total_reducers)
    )
    if len(share_vector) != len(classes):
        raise PlanningError(f"job {name!r}: share vector arity mismatch")
    num_reducers = 1
    for share in share_vector:
        num_reducers *= share

    output_width = composite_width(schemas_by_alias, aliases)

    def grid_to_reducer(coordinates: Sequence[int]) -> int:
        flat = 0
        for coordinate, share in zip(coordinates, share_vector):
            flat = flat * share + coordinate
        return flat

    #: Per input: ``(class, column of the input's row)`` for every share
    #: class its alias carries, resolved once here.
    key_columns = {
        alias: [
            (index, schemas_by_alias[alias].index_of(klass[alias]))
            for index, klass in enumerate(classes)
            if alias in klass
        ]
        for alias in aliases
    }

    def mapper(tag: str, record: object, ctx: TaskContext):
        ((_alias, _gid, row),) = record  # type: ignore[misc]
        known: List[Optional[int]] = [None] * len(classes)
        for index, column in key_columns[tag]:
            known[index] = stable_hash(("share", index, row[column]), share_vector[index])
        free_dims = [i for i, v in enumerate(known) if v is None]
        for combination in itertools.product(
            *(range(share_vector[i]) for i in free_dims)
        ):
            coordinates = list(known)
            for dim, value in zip(free_dims, combination):
                coordinates[dim] = value
            yield grid_to_reducer(coordinates), (tag, ctx.record_index)

    # tag header (length-prefixed alias) + the singleton a position stands for.
    width_of_tag = {
        alias: 4 + len(alias) + 16 + schemas_by_alias[alias].row_width
        for alias in aliases
    }

    return MapReduceJobSpec(
        name=name,
        inputs=list(input_files),
        mapper=mapper,
        num_reducers=num_reducers,
        output_record_width=output_width,
        pair_width_fn=lambda value: width_of_tag[value[0]],
        **reduce_side(
            ProgressiveJoin(
                name,
                [(alias,) for alias in aliases],
                conditions,
                schemas_by_alias,
                scan_first=True,
            ),
            {alias: slot for slot, alias in enumerate(aliases)},
            list(width_of_tag.values()),
            input_files,
        ),
        output_name=output_name or f"{name}.out",
    )
