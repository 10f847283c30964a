"""Composite join records flowing between MapReduce join jobs.

A composite record is the partial-join currency of the whole pipeline:
a tuple of ``(alias, global_id, row)`` entries, sorted by alias.  Base
relations lift to singleton composites and travel through map and
shuffle in that form; everything *produced* by a join — reduce-task
outputs, job output files, checkpoints, merged partial results, the
final answer — is a :class:`CompositeSlab`, the same composites held
column-wise: per alias one index vector into a small ``(global id,
row)`` table.  A slab reads as ``Sequence[Composite]`` (the next wave's
mappers just iterate it) but is joined, concatenated, shipped and
projected as vectors; row tuples are only gathered by
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
    Dict,
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


def slab_table(gids: Sequence[int], rows: Sequence[Row]) -> Tuple[np.ndarray, np.ndarray]:
    """One alias's ``(global ids, rows)`` table of a :class:`CompositeSlab`."""
    count = len(gids)
    return np.fromiter(gids, dtype=np.int64, count=count), object_column(rows, count)


class CompositeSlab(Sequence):
    """Composites over one static, alias-sorted ``cover``, column-wise.

    Alias ``cover[a]`` of composite ``i`` is entry ``index[a][i]`` of
    ``tables[a]``, a pair of equally long arrays ``(global ids, rows)``
    (int64, object).  A reduce task's tables are its bucket's candidates,
    so a slab of a million composites still holds each row tuple once per
    bucket it was shuffled to.  Slabs are immutable: slices, merges and
    concatenations share or copy arrays, never write them — and pickle as
    those arrays, not as tuples of tuples.

    Reads as ``Sequence[Composite]``: ``len``, indexing, slicing (a slab),
    lazy iteration, and ``==`` against any sequence of composites.
    """

    __slots__ = ("cover", "tables", "index")

    def __init__(
        self,
        cover: Sequence[str],
        tables: Sequence[Tuple[np.ndarray, np.ndarray]],
        index: Sequence[np.ndarray],
    ) -> None:
        self.cover = tuple(cover)
        self.tables = tuple(tables)
        self.index = tuple(index)

    @classmethod
    def empty(cls, cover: Sequence[str]) -> "CompositeSlab":
        none = np.empty(0, dtype=np.intp)
        table = (np.empty(0, dtype=np.int64), np.empty(0, dtype=object))
        return cls(cover, [table] * len(cover), [none] * len(cover))

    @classmethod
    def from_composites(
        cls, cover: Sequence[str], composites: Sequence[Composite]
    ) -> "CompositeSlab":
        """Lift tuple-form composites (each becomes its own table entry).

        This is where the static ``cover`` is held against the records:
        column-wise code never looks at an alias tag again, so a composite
        of another width, or with another alias in any slot, must fail
        here rather than come out as a wrong row.
        """
        cover = tuple(cover)
        count = len(composites)
        if not count:
            return cls.empty(cover)
        uniform = set(map(len, composites)) == {len(cover)}
        tables = []
        for position, alias in enumerate(cover if uniform else ()):
            # (``zip(*composites)`` would do, at one iterator per composite.)
            entries = list(map(itemgetter(position), composites))
            uniform = uniform and set(map(itemgetter(0), entries)) == {alias}
            tables.append(
                slab_table(
                    list(map(itemgetter(1), entries)), list(map(itemgetter(2), entries))
                )
            )
        if not uniform:
            raise ExecutionError(
                f"composites do not uniformly cover aliases {list(cover)}"
            )
        return cls(cover, tables, [np.arange(count)] * len(cover))

    @classmethod
    def concat(cls, parts: Sequence["CompositeSlab"]) -> "CompositeSlab":
        """The parts' composites in order (all over one cover): tables are
        stacked, index vectors shifted onto the stacked tables."""
        filled = [part for part in parts if len(part)]
        if len(filled) <= 1:
            return filled[0] if filled else parts[0]
        tables, index = [], []
        for a in range(len(filled[0].cover)):
            sizes = [len(part.tables[a][0]) for part in filled]
            bases = np.cumsum([0] + sizes[:-1])
            tables.append(
                (
                    np.concatenate([part.tables[a][0] for part in filled]),
                    np.concatenate([part.tables[a][1] for part in filled]),
                )
            )
            index.append(
                np.concatenate(
                    [part.index[a] + base for part, base in zip(filled, bases)]
                )
            )
        return cls(filled[0].cover, tables, index)

    def take(self, positions: np.ndarray) -> "CompositeSlab":
        """The composites at ``positions`` (an index vector or bool mask)."""
        return CompositeSlab(
            self.cover, self.tables, [at[positions] for at in self.index]
        )

    def ids(self, alias: str) -> np.ndarray:
        """The global-id column of ``alias``."""
        a = self.cover.index(alias)
        return self.tables[a][0][self.index[a]]

    def __len__(self) -> int:
        return len(self.index[0])

    def __getitem__(self, item):
        if isinstance(item, slice):
            return self.take(item)
        return tuple(
            (alias, int(gids[at[item]]), rows[at[item]])
            for alias, (gids, rows), at in zip(self.cover, self.tables, self.index)
        )

    def __iter__(self) -> Iterator[Composite]:
        return zip(
            *(
                zip(repeat(alias), gids[at].tolist(), rows[at].tolist())
                for alias, (gids, rows), at in zip(self.cover, self.tables, self.index)
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

    This is where a :class:`CompositeSlab` (tuple-form input is lifted to
    one) finally becomes rows.  Every composite covers the same
    alias-sorted ``cover`` (default: all of ``schemas_by_alias``), so the
    output splits into runs of consecutive fields read from one alias;
    each run is projected on the alias's *table* (a pass over the bucket
    candidates, not over the result), gathered through the alias's index
    vector in one take, and the runs are concatenated row-wise — a
    one-run result (``SELECT t2.id``) allocates nothing per row.  Rows are
    adopted without a per-row arity check: base rows were validated when
    their relation was built.  The per-row form of this function is
    ``_reference_composites_to_relation`` in ``tests/joins/tail_oracle.py``.
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

    missing = {alias for alias, _attr in outputs} - set(cover)
    if missing:
        raise ExecutionError(
            f"result {name!r} reads aliases {sorted(missing)} that its "
            f"composites (cover {list(cover)}) do not carry"
        )
    if not isinstance(composites, CompositeSlab):
        composites = CompositeSlab.from_composites(cover, composites)
    elif composites.cover != cover:
        raise ExecutionError(
            f"result {name!r}: composites cover {list(composites.cover)}, "
            f"expected {list(cover)}"
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
        rows = composites.tables[a][1]
        if columns != list(range(len(schemas_by_alias[alias]))):
            rows = object_column(map(tuple_getter(columns), rows), len(rows))
        gathered.append(rows[composites.index[a]].tolist())
    rows = functools.reduce(lambda joined, run: map(add, joined, run), gathered)
    return Relation.adopt(name, schema, rows if len(gathered) == 1 else list(rows))
