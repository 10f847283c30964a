"""An answer oracle the program did not write: stdlib ``sqlite3``.

The generated relations of a :class:`~repro.relational.query.JoinQuery`
are loaded into an in-memory sqlite database (one table per distinct
relation, indexes on the columns the predicates touch), the same
multi-way theta-join is run as SQL, and only the row count plus an
order-independent multiset digest are kept.  Every timed operation's
result is digested the same way and must match.
"""

from __future__ import annotations

import sqlite3
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

_MASK = (1 << 64) - 1


class Digest(NamedTuple):
    """Row count plus two order-independent sums over per-row hashes."""

    rows: int
    sum1: int
    sum2: int


def digest_rows(rows: Iterable[Sequence[object]]) -> Digest:
    """Multiset digest of ``rows``; equal multisets give equal digests.

    Rows are hashed as tuples of their values (the workloads' values are
    all integers, whose hashes do not depend on ``PYTHONHASHSEED``); the
    second sum squares each hash so that two rows cannot trade value
    between them unnoticed.
    """
    hashes = [hash(tuple(row)) for row in rows]
    return Digest(
        len(hashes),
        sum(hashes) & _MASK,
        sum(h * h for h in hashes) & _MASK,
    )


def _operand(alias: str, attr: str, offset: float) -> str:
    text = f'"{alias}"."{attr}"'
    if offset:
        text += f" + {offset!r}"
    return text


def oracle_sql(query) -> Tuple[str, Dict[str, int]]:
    """The query as sqlite SQL over tables ``rel0, rel1, ...``.

    Returns the statement and ``alias -> table number``; aliases that
    share one underlying row list (self-joins) share a table.
    """
    tables: Dict[int, int] = {}
    alias_table: Dict[str, int] = {}
    for alias in query.aliases:
        key = id(query.relations[alias].rows)
        alias_table[alias] = tables.setdefault(key, len(tables))

    if query.projection:
        columns = [f'"{alias}"."{attr}"' for alias, attr in query.projection]
    else:
        # Same layout as composites_to_relation: aliases sorted, each
        # alias's fields in schema order.
        columns = [
            f'"{alias}"."{name}"'
            for alias in query.aliases
            for name in query.relations[alias].schema.names
        ]
    predicates = [
        f"{_operand(p.left.alias, p.left.attr, p.left.offset)} "
        f"{'<>' if p.op.symbol == '!=' else p.op.symbol} "
        f"{_operand(p.right.alias, p.right.attr, p.right.offset)}"
        for condition in query.conditions
        for p in condition.predicates
    ]
    sources = ", ".join(
        f'rel{alias_table[alias]} AS "{alias}"' for alias in query.aliases
    )
    statement = (
        f"SELECT {', '.join(columns)} FROM {sources} "
        f"WHERE {' AND '.join(predicates)}"
    )
    return statement, alias_table


def sqlite_rows(query) -> List[tuple]:
    """Evaluate ``query`` in sqlite and return its rows."""
    statement, alias_table = oracle_sql(query)
    connection = sqlite3.connect(":memory:")
    try:
        loaded = set()
        for alias, number in alias_table.items():
            if number in loaded:
                continue
            loaded.add(number)
            relation = query.relations[alias]
            names = relation.schema.names
            declared = ", ".join(f'"{name}"' for name in names)
            connection.execute(f"CREATE TABLE rel{number} ({declared})")
            marks = ", ".join("?" for _ in names)
            connection.executemany(
                f"INSERT INTO rel{number} VALUES ({marks})", relation.rows
            )
        # One index per (table, column) a predicate touches: equality
        # columns make the joins index lookups, range columns bound the
        # chain windows.
        indexed = set()
        for condition in query.conditions:
            for predicate in condition.predicates:
                for ref in (predicate.left, predicate.right):
                    target = (alias_table[ref.alias], ref.attr)
                    if target not in indexed:
                        indexed.add(target)
                        connection.execute(
                            f'CREATE INDEX idx{len(indexed)} '
                            f'ON rel{target[0]} ("{target[1]}")'
                        )
        connection.execute("ANALYZE")
        return connection.execute(statement).fetchall()
    finally:
        connection.close()


def sqlite_digest(query) -> Digest:
    return digest_rows(sqlite_rows(query))
