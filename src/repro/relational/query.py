"""Multi-way theta-join queries (the paper's "N-join" queries).

A :class:`JoinQuery` binds relation aliases to :class:`Relation` objects
and carries the list of theta :class:`JoinCondition` edges.  The planner
consumes queries; the join graph (Definition 1) is derived from them in
:mod:`repro.core.join_graph`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.relational.predicates import JoinCondition
from repro.relational.relation import Relation


class JoinQuery:
    """An N-join query: aliases -> relations plus theta condition edges."""

    def __init__(
        self,
        name: str,
        relations: Mapping[str, Relation],
        conditions: Sequence[JoinCondition],
        projection: Optional[Sequence[Tuple[str, str]]] = None,
    ) -> None:
        """
        Parameters
        ----------
        name:
            Query identifier used in reports, e.g. ``"mobile-Q1"``.
        relations:
            Mapping from alias to relation.  Aliases may bind the same
            underlying relation more than once (self-joins), as the mobile
            queries do with ``table t1, table t2, ...``.
        conditions:
            The theta edges.  Condition ids must be unique.
        projection:
            Optional output projection as ``(alias, attr)`` pairs; by
            default the full concatenation of all aliases is produced.
        """
        if not name:
            raise QueryError("query name must be non-empty")
        if len(relations) < 2:
            raise QueryError("an N-join query needs at least two relations")
        if not conditions:
            raise QueryError("an N-join query needs at least one join condition")

        self.name = name
        self.relations: Dict[str, Relation] = dict(relations)
        self.conditions: Tuple[JoinCondition, ...] = tuple(conditions)
        self.projection = tuple(projection) if projection else None

        ids = [c.condition_id for c in self.conditions]
        if len(set(ids)) != len(ids):
            raise QueryError(f"duplicate condition ids: {ids}")
        for condition in self.conditions:
            for alias in condition.aliases:
                if alias not in self.relations:
                    raise QueryError(
                        f"condition {condition!r} references unknown alias {alias!r}"
                    )
            for predicate in condition.predicates:
                for ref in (predicate.left, predicate.right):
                    schema = self.relations[ref.alias].schema
                    if ref.attr not in schema:
                        raise QueryError(
                            f"attribute {ref} not found in schema of alias "
                            f"{ref.alias!r}: {schema.names}"
                        )
        if self.projection:
            for alias, attr in self.projection:
                if alias not in self.relations:
                    raise QueryError(f"projection references unknown alias {alias!r}")
                if attr not in self.relations[alias].schema:
                    raise QueryError(
                        f"projection attribute {alias}.{attr} not in schema"
                    )
        self._require_connected()

    def _require_connected(self) -> None:
        """The join graph must be connected, otherwise the query is a cross product."""
        aliases = set(self.relations)
        adjacency: Dict[str, set] = {a: set() for a in aliases}
        for condition in self.conditions:
            left, right = condition.aliases
            adjacency[left].add(right)
            adjacency[right].add(left)
        seen = set()
        stack = [next(iter(aliases))]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adjacency[node] - seen)
        if seen != aliases:
            raise QueryError(
                f"join graph is disconnected: {sorted(seen)} vs {sorted(aliases)}"
            )

    # -- accessors -----------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"JoinQuery({self.name!r}, relations={sorted(self.relations)}, "
            f"conditions={list(self.conditions)})"
        )

    @property
    def aliases(self) -> Tuple[str, ...]:
        return tuple(sorted(self.relations))

    @property
    def condition_ids(self) -> Tuple[int, ...]:
        return tuple(c.condition_id for c in self.conditions)

    def condition(self, condition_id: int) -> JoinCondition:
        for c in self.conditions:
            if c.condition_id == condition_id:
                return c
        raise QueryError(f"no condition with id {condition_id} in query {self.name!r}")

    def conditions_among(self, aliases: Iterable[str]) -> List[JoinCondition]:
        """All conditions whose both endpoints are inside ``aliases``."""
        alias_set = set(aliases)
        return [
            c
            for c in self.conditions
            if c.left_alias in alias_set and c.right_alias in alias_set
        ]

    def subquery(self, condition_ids: Sequence[int], name_suffix: str = "sub") -> "JoinQuery":
        """The sub-join induced by a set of condition ids (one MRJ's work)."""
        conditions = [self.condition(cid) for cid in condition_ids]
        aliases = set()
        for condition in conditions:
            aliases.update(condition.aliases)
        return JoinQuery(
            f"{self.name}-{name_suffix}",
            {a: self.relations[a] for a in aliases},
            conditions,
        )

    def total_input_bytes(self) -> int:
        """Bytes of all distinct base relations referenced by the query."""
        seen = {}
        for alias, relation in self.relations.items():
            seen[relation.name] = relation.size_bytes
        return sum(seen.values())
