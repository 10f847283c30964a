"""Per-row reference forms of the executor's result tail, and the
tuple-form composite algebra they are written over.

Production compiles both steps once per ``execute()`` against the slabs'
static alias covers (``repro.joins.records.composites_to_relation`` and
``repro.core.merge.hash_merge``).  These are the record-at-a-time
forms they replaced: a ``rows_by_alias`` dict and a checked ``append``
per result row, and the Section 4.2 merge rule (``merge_composites``)
applied to every pair in a nested loop.  They take the production
signatures so a test can monkeypatch them into the executor, and read
each composite by its own alias tags.

``slab_of`` lifts tuple-form composites into a ``CompositeSlab``, the
only form production code accepts; it is where a test's composites are
held against their cover and their ids against their rows.
"""

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError
from repro.joins.records import Composite, CompositeSlab, Entry, object_column
from repro.relational.relation import Relation, Row
from repro.relational.schema import Field, Schema


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


def slab_of(cover: Sequence[str], composites: Sequence[Composite]) -> CompositeSlab:
    """Tuple-form composites as a slab over base-shaped tables: alias
    ``a``'s table holds the row of global id ``i`` at position ``i``, its
    index vector is the ids.  An id no composite names repeats a row that
    one does (tables are projected whole; nothing indexes the filler).

    Column-wise code never looks at an alias tag again, so a composite of
    another width, or with another alias in any slot, fails here rather
    than coming out as a wrong row — and so does an id that names two
    different rows, which no base table could hold.
    """
    cover = tuple(cover)
    tables, index = [], []
    for position, alias in enumerate(cover):
        if any(len(c) != len(cover) or c[position][0] != alias for c in composites):
            raise ExecutionError(
                f"composites do not uniformly cover aliases {list(cover)}"
            )
        rows: Dict[int, Row] = {}
        for _alias, gid, row in (c[position] for c in composites):
            if rows.setdefault(gid, row) is not row and rows[gid] != row:
                raise ExecutionError(
                    f"alias {alias!r}: global id {gid} names two different rows"
                )
        size = max(rows, default=-1) + 1
        filler = next(iter(rows.values()), None)
        tables.append(object_column((rows.get(i, filler) for i in range(size)), size))
        index.append(
            np.fromiter((c[position][1] for c in composites), np.int64, len(composites))
        )
    return CompositeSlab(cover, tables, index)


def _reference_composites_to_relation(composites, schemas_by_alias, name, projection=None):
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
    out = Relation(name, Schema(fields))
    for composite in composites:
        rows = rows_by_alias(composite)
        out.append(
            tuple(
                rows[alias][schemas_by_alias[alias].index_of(attr)]
                for alias, attr in outputs
            )
        )
    return out


def _reference_hash_merge(left, right):
    """Left order; the partners of one left composite in right order.
    Returns a slab over the union cover, as the merge pool reads covers."""
    merged = []
    for composite in left:
        for partner in right:
            combined = merge_composites(composite, partner)
            if combined is not None:
                merged.append(combined)
    return slab_of(sorted(set(left.cover) | set(right.cover)), merged)
