"""Composite join records flowing between MapReduce join jobs.

A composite record is the partial-join currency of the whole pipeline:
one ``(alias, global_id, row)`` entry per relation it has bound, sorted
by alias.  Every file a join reads or writes holds a
:class:`CompositeSlab` — the composites of one static alias cover, held
column-wise: per alias one index vector into the alias's *base* row
table.  A base relation lifts to a one-alias slab
(:func:`relation_to_composite_file`: the table is the relation's own row
tuples, the index vector an ``arange``), and every slab built from
slabs — job outputs (:func:`compose`), merged partial results,
checkpoints and the final answer — shares those tables, so a global id
*is* a row position and ``index[a]`` is the id column of alias ``a``.
A file's alias cover is ``file.records.cover`` and is stored nowhere
else — an empty file carries it too.

The tuple form is only a view: a slab iterates as alias-sorted entry
tuples.  The shuffle never carries one — join mappers emit ``(tag,
position)`` — and joining, composing, shipping, merging and projection
work on the vectors; row tuples are only gathered by
:func:`composites_to_relation` at the very end.

Keeping the per-alias *global id* around is what makes the cheap merge
step of Section 4.2 possible: two partial results that share a relation
merge by comparing ids only.
"""

from __future__ import annotations

import functools
from itertools import repeat
from operator import add, eq, itemgetter
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import ExecutionError
from repro.mapreduce.hdfs import DistributedFile
from repro.relational.relation import Relation, Row
from repro.relational.schema import Field, Schema

#: One constituent of a composite: (alias, global id within its relation, row).
Entry = Tuple[str, int, Row]
#: A composite record: alias-sorted tuple of entries.
Composite = Tuple[Entry, ...]


def object_column(values: Iterable[object], count: int) -> np.ndarray:
    """``count`` Python objects as a 1-d object array (``np.array`` would
    unpack row tuples into a second axis)."""
    return np.fromiter(values, dtype=object, count=count)


class CompositeSlab(Sequence):
    """Composites over one static, alias-sorted ``cover``, column-wise.

    Alias ``cover[a]`` of composite ``i`` is row ``index[a][i]`` of
    ``tables[a]``, a 1-d object array of row tuples: the base relation's
    own row table, shared by every slab over the alias, so ``index[a]``
    (int64) is also the alias's global-id column.  A slab of a million
    composites holds no row beyond its base relations'.  Slabs are
    immutable: slices, takes and compositions share tables and gather
    index vectors, never write them — and pickle as those arrays, not as
    tuples of tuples.

    Reads as ``Sequence[Composite]``: ``len``, indexing, slicing (a slab),
    lazy iteration, and ``==`` against any sequence of composites.
    """

    __slots__ = ("cover", "tables", "index")

    def __init__(
        self,
        cover: Sequence[str],
        tables: Sequence[np.ndarray],
        index: Sequence[np.ndarray],
    ) -> None:
        self.cover = tuple(cover)
        self.tables = tuple(tables)
        self.index = tuple(index)

    def take(self, positions: np.ndarray) -> "CompositeSlab":
        """The composites at ``positions`` (an index vector or bool mask)."""
        return compose([self], [positions])

    def ids(self, alias: str) -> np.ndarray:
        """The global-id column of ``alias``: its index vector."""
        return self.index[self.cover.index(alias)]

    def column(self, alias: str, attribute: int) -> list:
        """Attribute ``attribute`` of ``alias``'s row in every composite, in
        order: projected on the alias's row table, gathered through its
        index vector.  The values are the rows' own objects (never a typed
        column), so ``1`` and ``1.0`` or a NaN stay what the row holds."""
        a = self.cover.index(alias)
        rows = self.tables[a]
        projected = object_column(map(itemgetter(attribute), rows), len(rows))
        return projected[self.index[a]].tolist()

    def __len__(self) -> int:
        return len(self.index[0])

    def __getitem__(self, item):
        if isinstance(item, slice):
            return self.take(item)
        return tuple(
            (alias, int(at[item]), rows[at[item]])
            for alias, rows, at in zip(self.cover, self.tables, self.index)
        )

    def __iter__(self) -> Iterator[Composite]:
        return zip(
            *(
                zip(repeat(alias), at.tolist(), rows[at].tolist())
                for alias, rows, at in zip(self.cover, self.tables, self.index)
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        return CompositeSlab, (self.cover, self.tables, self.index)

    def __repr__(self) -> str:
        return f"CompositeSlab({list(self.cover)}, {len(self)} composites)"


def compose(
    parts: Sequence[CompositeSlab], positions: Sequence[np.ndarray]
) -> CompositeSlab:
    """Composite ``i`` joins composite ``positions[p][i]`` of every part
    ``p`` (equally long int vectors).  The cover is the parts' union; each
    alias is read from the first part that covers it, with that part's
    table and its index vector gathered by the part's positions — so the
    result shares its parts' base tables, and an empty ``positions``
    gives the empty slab over the union cover."""
    cover = sorted({alias for part in parts for alias in part.cover})
    tables, index = [], []
    for alias in cover:
        part, at = next(
            (part, at) for part, at in zip(parts, positions) if alias in part.cover
        )
        a = part.cover.index(alias)
        tables.append(part.tables[a])
        index.append(part.index[a][at])
    return CompositeSlab(cover, tables, index)


def input_cover(job: str, file: DistributedFile) -> Tuple[str, ...]:
    """The alias cover of join input ``file``: its slab's cover."""
    if not isinstance(file.records, CompositeSlab):
        raise ExecutionError(
            f"job {job!r}: input {file.name!r} holds "
            f"{type(file.records).__name__}, not a CompositeSlab"
        )
    return file.records.cover


def composite_width(schemas_by_alias: Mapping[str, Schema], aliases: Iterable[str]) -> int:
    """Serialized bytes of one composite over the given aliases: per alias,
    its tag, the global id and the row itself."""
    return sum(8 + 8 + schemas_by_alias[alias].row_width for alias in aliases)


def relation_to_composite_file(
    relation: Relation, alias: str, file_name: Optional[str] = None
) -> DistributedFile:
    """Lift a base relation into a one-alias :class:`CompositeSlab` file.

    Row position is the global id — unique and uniformly spread, matching
    Algorithm 1's random-id assignment semantics — so the index vector is
    an ``arange``, and the row table, which every slab built from this
    one shares, holds the relation's own row tuples.
    """
    count = len(relation.rows)
    return DistributedFile(
        name=file_name or f"{alias}:{relation.name}",
        records=CompositeSlab(
            (alias,),
            [object_column(relation.rows, count)],
            [np.arange(count, dtype=np.int64)],
        ),
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
    composites: CompositeSlab,
    schemas_by_alias: Mapping[str, Schema],
    name: str,
    projection: Optional[Sequence[Tuple[str, str]]] = None,
) -> Relation:
    """Unpack composites into a flat output relation.

    Without a projection the output is the concatenation of all alias rows
    in alias order, with fields named ``alias_field``.

    This is where a :class:`CompositeSlab` finally becomes rows.  Every
    composite covers the slab's alias-sorted cover, so the output splits
    into runs of consecutive fields read from one alias; each run is
    projected on the alias's *table* (a pass over the base relation,
    not over the result), gathered through the alias's index vector in
    one take, and the runs are concatenated row-wise — a one-run result
    (``SELECT t2.id``) allocates nothing per row.  Rows are adopted
    without a per-row arity check: base rows were validated when their
    relation was built.  The per-row form of this function is
    ``_reference_composites_to_relation`` in ``tests/joins/tail_oracle.py``.
    """
    cover = composites.cover
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

    missing = {alias for alias, _attr in outputs} - set(cover)
    if missing:
        raise ExecutionError(
            f"result {name!r} reads aliases {sorted(missing)} that its "
            f"composites (cover {list(cover)}) do not carry"
        )
    runs: List[Tuple[str, List[int]]] = []
    for alias, attr in outputs:
        column = schemas_by_alias[alias].index_of(attr)
        if runs and runs[-1][0] == alias:
            runs[-1][1].append(column)
        else:
            runs.append((alias, [column]))
    gathered = []
    for alias, columns in runs:
        a = cover.index(alias)
        rows = composites.tables[a]
        if columns != list(range(len(schemas_by_alias[alias]))):
            rows = object_column(map(tuple_getter(columns), rows), len(rows))
        gathered.append(rows[composites.index[a]].tolist())
    rows = functools.reduce(lambda joined, run: map(add, joined, run), gathered)
    return Relation.adopt(name, schema, rows if len(gathered) == 1 else list(rows))
