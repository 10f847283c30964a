"""In-memory relations (named tables of tuples) with byte-size accounting.

A :class:`Relation` is the unit of data everything else operates on: the
workload generators produce relations, the simulated HDFS stores their
rows, and join operators consume them.  Rows are plain Python tuples in
schema order, which keeps the simulator honest (it really moves the
records around) while staying light enough for laptop-scale runs.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.relational.schema import Schema
from repro.utils import make_rng, reservoir_sample

Row = Tuple[object, ...]


class Relation:
    """A named bag of rows conforming to a :class:`Schema`."""

    def __init__(self, name: str, schema: Schema, rows: Iterable[Row] = ()) -> None:
        if not name:
            raise SchemaError("relation name must be non-empty")
        self.name = name
        self.schema = schema
        self._rows: List[Row] = self._checked(rows)

    def _checked(self, rows: Iterable[Sequence[object]]) -> List[Row]:
        """``rows`` as a list of tuples, all of the schema's arity."""
        checked = list(map(tuple, rows))
        bad = set(map(len, checked)) - {len(self.schema)}
        if bad:
            raise self._arity_error(min(bad))
        return checked

    def _arity_error(self, arity: int) -> SchemaError:
        return SchemaError(
            f"row arity {arity} does not match schema arity "
            f"{len(self.schema)} for relation {self.name!r}"
        )

    @classmethod
    def adopt(cls, name: str, schema: Schema, rows: List[Row]) -> "Relation":
        """A relation over ``rows`` as they are: no copy, no arity check.

        For callers that built ``rows`` against ``schema`` themselves (the
        operators below, the executor's result projection); the list is
        shared with the caller, not copied.
        """
        relation = cls(name, schema)
        relation._rows = rows
        return relation

    # -- basic container protocol ------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __getitem__(self, index: int) -> Row:
        return self._rows[index]

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, |R|={len(self)}, {self.schema!r})"

    @property
    def rows(self) -> List[Row]:
        return self._rows

    @property
    def cardinality(self) -> int:
        return len(self._rows)

    @property
    def size_bytes(self) -> int:
        """Serialized size used for I/O accounting."""
        return len(self._rows) * self.schema.row_width

    # -- construction helpers ----------------------------------------------

    def append(self, row: Sequence[object]) -> None:
        if len(row) != len(self.schema):
            raise self._arity_error(len(row))
        self._rows.append(tuple(row))

    def extend(self, rows: Iterable[Sequence[object]]) -> None:
        """Append ``rows``; all are validated before any is added."""
        self._rows.extend(self._checked(rows))

    def renamed(self, new_name: str) -> "Relation":
        """Same rows and schema under a different relation name (cheap: shares rows)."""
        return Relation.adopt(new_name, self.schema, self._rows)

    # -- column access --------------------------------------------------

    def column(self, field_name: str) -> List[object]:
        """All values of one column, in row order."""
        idx = self.schema.index_of(field_name)
        return [row[idx] for row in self._rows]

    def value(self, row: Row, field_name: str) -> object:
        return row[self.schema.index_of(field_name)]

    # -- relational operators (eager, for small/test scale) ----------------

    def select(self, predicate: Callable[[Row], bool], name: Optional[str] = None) -> "Relation":
        return Relation.adopt(
            name or f"{self.name}_sel",
            self.schema,
            [r for r in self._rows if predicate(r)],
        )

    def project(self, names: Sequence[str], name: Optional[str] = None) -> "Relation":
        indices = [self.schema.index_of(n) for n in names]
        return Relation.adopt(
            name or f"{self.name}_proj",
            self.schema.project(names),
            [tuple(row[i] for i in indices) for row in self._rows],
        )

    def distinct(self) -> "Relation":
        out = Relation(self.name, self.schema)
        seen = set()
        for row in self._rows:
            if row not in seen:
                seen.add(row)
                out._rows.append(row)
        return out

    def sample(self, k: int, rng: Optional[random.Random] = None) -> "Relation":
        """Uniform sample without replacement of at most ``k`` rows."""
        rng = rng or make_rng("relation-sample", self.name, k)
        return Relation.adopt(
            f"{self.name}_sample",
            self.schema,
            reservoir_sample(self._rows, min(k, len(self._rows)), rng),
        )

    def head(self, k: int) -> "Relation":
        return Relation.adopt(self.name, self.schema, self._rows[:k])
