"""Composite join records flowing between MapReduce join jobs.

A composite record is the partial-join currency of the whole pipeline:
a tuple of ``(alias, global_id, row)`` entries, sorted by alias.  Base
relations lift to singleton composites; every join job consumes composite
files and produces wider composites; the final projection unpacks them.

Keeping the per-alias *global id* around is what makes the cheap merge
step of Section 4.2 possible: two partial results that share a relation
merge by comparing ids only.
"""

from __future__ import annotations

import functools
from operator import add, itemgetter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.mapreduce.hdfs import DistributedFile
from repro.relational.relation import Relation, Row
from repro.relational.schema import Field, Schema

#: One constituent of a composite: (alias, global id within its relation, row).
Entry = Tuple[str, int, Row]
#: A composite record: alias-sorted tuple of entries.
Composite = Tuple[Entry, ...]

#: C-level readers of one entry's fields, for ``map`` chains over composites.
entry_alias, entry_global_id, entry_row = itemgetter(0), itemgetter(1), itemgetter(2)


def singleton(alias: str, global_id: int, row: Row) -> Composite:
    return ((alias, global_id, row),)


def aliases_of(composite: Composite) -> Tuple[str, ...]:
    return tuple(entry[0] for entry in composite)


def entry_for(composite: Composite, alias: str) -> Entry:
    for entry in composite:
        if entry[0] == alias:
            return entry
    raise ExecutionError(f"composite has no entry for alias {alias!r}")


def global_id_of(composite: Composite, alias: str) -> int:
    return entry_for(composite, alias)[1]


def rows_by_alias(composite: Composite) -> Dict[str, Row]:
    return {alias: row for alias, _, row in composite}


def merge_composites(left: Composite, right: Composite) -> Optional[Composite]:
    """Union of two composites; ``None`` when shared aliases disagree on ids.

    This is the merge rule of Section 4.2: partial results agree on a
    shared relation exactly when they picked the same tuple of it.
    """
    merged: Dict[str, Entry] = {alias: (alias, gid, row) for alias, gid, row in left}
    for alias, gid, row in right:
        existing = merged.get(alias)
        if existing is not None:
            if existing[1] != gid:
                return None
        else:
            merged[alias] = (alias, gid, row)
    return tuple(merged[a] for a in sorted(merged))


def composite_width(schemas_by_alias: Mapping[str, Schema], aliases: Iterable[str]) -> int:
    """Serialized bytes of one composite over the given aliases."""
    total = 0
    for alias in aliases:
        # alias tag + global id + the row itself.
        total += 8 + 8 + schemas_by_alias[alias].row_width
    return total


def relation_to_composite_file(
    relation: Relation, alias: str, file_name: Optional[str] = None
) -> DistributedFile:
    """Lift a base relation into a file of singleton composites.

    Row position is the global id — unique and uniformly spread, matching
    Algorithm 1's random-id assignment semantics.
    """
    records: List[Composite] = [
        singleton(alias, index, row) for index, row in enumerate(relation.rows)
    ]
    return DistributedFile(
        name=file_name or f"{alias}:{relation.name}",
        records=records,
        record_width=8 + 8 + relation.schema.row_width,
        tag=alias,
    )


def tuple_getter(positions: Sequence[int]) -> Callable:
    """``itemgetter(*positions)`` that returns a tuple even for one position."""
    if len(positions) == 1:  # itemgetter would return the bare item
        (position,) = positions
        return lambda items: (items[position],)
    return itemgetter(*positions)


def composites_to_relation(
    composites: Sequence[Composite],
    schemas_by_alias: Mapping[str, Schema],
    name: str,
    projection: Optional[Sequence[Tuple[str, str]]] = None,
    cover: Optional[Sequence[str]] = None,
) -> Relation:
    """Unpack composites into a flat output relation.

    Without a projection the output is the concatenation of all alias rows
    in alias order, with fields named ``alias_field``.

    Every composite covers the same alias-sorted ``cover`` (default: all of
    ``schemas_by_alias``), so each output field resolves once to a column of
    the concatenated rows of the aliases the output reads.  The rows are
    then built in one C-level pass (row concatenation, one ``itemgetter``
    permutation unless it is the identity) and adopted without a per-row
    arity check: base rows were validated when their relation was built,
    so the arity holds by construction.  The per-row form of this function
    is ``_reference_composites_to_relation`` in ``tests/joins/tail_oracle.py``.
    """
    cover = tuple(sorted(schemas_by_alias) if cover is None else cover)
    if projection:
        outputs = list(projection)
    else:
        outputs = [
            (alias, field.name)
            for alias in sorted(schemas_by_alias)
            for field in schemas_by_alias[alias].fields
        ]
    fields = []
    for alias, attr in outputs:
        source = schemas_by_alias[alias].field(attr)
        fields.append(Field(f"{alias}_{attr}", source.kind, source.width))
    schema = Schema(fields)

    used = {alias for alias, _attr in outputs}
    missing = used - set(cover)
    if missing:
        raise ExecutionError(
            f"result {name!r} reads aliases {sorted(missing)} that its "
            f"composites (cover {list(cover)}) do not carry"
        )
    if composites and aliases_of(composites[0]) != cover:
        raise ExecutionError(
            f"result {name!r}: composites cover {list(aliases_of(composites[0]))}, "
            f"expected {list(cover)}"
        )
    offset: Dict[str, int] = {}
    row_columns = []
    width = 0
    for position, alias in enumerate(cover):
        if alias in used:
            offset[alias] = width
            width += len(schemas_by_alias[alias])
            row_columns.append(map(entry_row, map(itemgetter(position), composites)))
    picks = [
        offset[alias] + schemas_by_alias[alias].index_of(attr)
        for alias, attr in outputs
    ]
    rows = functools.reduce(lambda joined, column: map(add, joined, column), row_columns)
    if picks != list(range(width)):
        rows = map(tuple_getter(picks), rows)
    return Relation.adopt(name, schema, list(rows))
