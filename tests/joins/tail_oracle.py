"""Per-row reference forms of the executor's result tail.

Production compiles both steps once per ``execute()`` against static alias
covers (``repro.joins.records.composites_to_relation`` and
``repro.core.merge.hash_merge``).  These are the record-at-a-time
forms they replaced: a ``rows_by_alias`` dict and a checked ``append``
per result row, and the Section 4.2 merge rule (``merge_composites``)
applied to every pair in a nested loop.  They take the production
signatures so a test can monkeypatch them into the executor; the covers
are ignored because each composite is read by its own alias tags.
"""

from repro.joins.records import merge_composites, rows_by_alias
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema


def _reference_composites_to_relation(
    composites, schemas_by_alias, name, projection=None, cover=None
):
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


def _reference_hash_merge(left, right, left_cover=None, right_cover=None):
    """Left order; the partners of one left composite in right order."""
    merged = []
    for composite in left:
        for partner in right:
            combined = merge_composites(composite, partner)
            if combined is not None:
                merged.append(combined)
    return merged
