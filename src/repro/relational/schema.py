"""Relation schemas: named, typed fields with byte-size accounting.

The MapReduce simulator charges I/O time by bytes moved, so every field
declares how many bytes a value of that field occupies on disk / on the
wire.  The defaults follow typical Hadoop SequenceFile encodings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.errors import SchemaError

#: Default serialized width in bytes per field kind.
DEFAULT_WIDTHS = {
    "int": 8,
    "float": 8,
    "str": 24,
    "date": 8,
    "bool": 1,
}

VALID_KINDS = frozenset(DEFAULT_WIDTHS)


@dataclass(frozen=True)
class Field:
    """A single named, typed column.

    ``width`` is the serialized size in bytes used for I/O accounting; if
    zero, the default width for ``kind`` is used.
    """

    name: str
    kind: str = "int"
    width: int = 0

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid field name: {self.name!r}")
        if self.kind not in VALID_KINDS:
            raise SchemaError(
                f"unknown field kind {self.kind!r}; expected one of {sorted(VALID_KINDS)}"
            )
        if self.width < 0:
            raise SchemaError("field width must be non-negative")

    @property
    def byte_width(self) -> int:
        return self.width if self.width > 0 else DEFAULT_WIDTHS[self.kind]


class Schema:
    """An ordered collection of :class:`Field` objects.

    Provides positional lookup by field name and the serialized row width
    used by the I/O cost accounting.
    """

    def __init__(self, fields: Iterable[Field]) -> None:
        self._fields: Tuple[Field, ...] = tuple(fields)
        if not self._fields:
            raise SchemaError("schema must have at least one field")
        names = [f.name for f in self._fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in schema: {names}")
        self._index = {f.name: i for i, f in enumerate(self._fields)}
        #: Serialized bytes per row (fields plus a small per-record header).
        self.row_width: int = sum(f.byte_width for f in self._fields) + 8

    @classmethod
    def of(cls, *specs: str) -> "Schema":
        """Shorthand constructor from ``"name:kind"`` strings.

        >>> Schema.of("id:int", "name:str").names
        ('id', 'name')
        """
        fields: List[Field] = []
        for spec in specs:
            if ":" in spec:
                name, kind = spec.split(":", 1)
            else:
                name, kind = spec, "int"
            fields.append(Field(name=name, kind=kind))
        return cls(fields)

    @property
    def fields(self) -> Tuple[Field, ...]:
        return self._fields

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        cols = ", ".join(f"{f.name}:{f.kind}" for f in self._fields)
        return f"Schema({cols})"

    def index_of(self, name: str) -> int:
        """Position of field ``name``; raises :class:`SchemaError` if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"field {name!r} not in schema {self.names}"
            ) from None

    def field(self, name: str) -> Field:
        return self._fields[self.index_of(name)]

    def project(self, names: Sequence[str]) -> "Schema":
        """New schema with only ``names``, in the given order."""
        return Schema([self.field(n) for n in names])
