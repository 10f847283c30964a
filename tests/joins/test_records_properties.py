"""Property-based tests for composite-record algebra (Section 4.2 merges)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tail_oracle import (
    aliases_of,
    global_id_of,
    merge_composites,
    rows_by_alias,
    singleton,
)

ALIASES = ["a", "b", "c", "d"]


@st.composite
def composites(draw):
    """A random alias-sorted composite over a subset of ALIASES."""
    chosen = draw(
        st.lists(st.sampled_from(ALIASES), min_size=1, max_size=4, unique=True)
    )
    entries = []
    for alias in sorted(chosen):
        gid = draw(st.integers(min_value=0, max_value=5))
        # The row is a pure function of (alias, gid), as in a real base
        # relation: the same global id always denotes the same tuple.
        row = (gid, hash(alias) % 97 + gid * 7)
        entries.append((alias, gid, row))
    return tuple(entries)


class TestMergeAlgebra:
    @given(composites(), composites())
    @settings(max_examples=80, deadline=None)
    def test_merge_symmetric(self, left, right):
        """Merging is order-independent (both sides agree on shared rows
        because gid determines the row in this generator)."""
        assert merge_composites(left, right) == merge_composites(right, left)

    @given(composites())
    @settings(max_examples=40, deadline=None)
    def test_merge_idempotent(self, composite):
        assert merge_composites(composite, composite) == composite

    @given(composites())
    @settings(max_examples=40, deadline=None)
    def test_merge_with_empty_is_identity(self, composite):
        assert merge_composites(composite, ()) == composite
        assert merge_composites((), composite) == composite

    @given(composites(), composites())
    @settings(max_examples=80, deadline=None)
    def test_merge_covers_union_or_fails(self, left, right):
        merged = merge_composites(left, right)
        shared = set(aliases_of(left)) & set(aliases_of(right))
        disagree = any(
            global_id_of(left, alias) != global_id_of(right, alias)
            for alias in shared
        )
        if disagree:
            assert merged is None
        else:
            assert merged is not None
            assert set(aliases_of(merged)) == set(aliases_of(left)) | set(
                aliases_of(right)
            )

    @given(composites(), composites())
    @settings(max_examples=60, deadline=None)
    def test_merged_is_alias_sorted(self, left, right):
        merged = merge_composites(left, right)
        if merged is not None:
            names = aliases_of(merged)
            assert list(names) == sorted(names)

    @given(composites(), composites())
    @settings(max_examples=60, deadline=None)
    def test_merge_preserves_constituent_rows(self, left, right):
        merged = merge_composites(left, right)
        if merged is None:
            return
        rows = rows_by_alias(merged)
        for alias, _gid, row in left:
            assert rows[alias] == row
        for alias, gid, row in right:
            if alias not in {a for a, _, _ in left}:
                assert rows[alias] == row

    def test_conflicting_ids_reject(self):
        left = singleton("a", 1, (1, 10))
        right = singleton("a", 2, (2, 20))
        assert merge_composites(left, right) is None

    @given(composites(), composites(), composites())
    @settings(max_examples=60, deadline=None)
    def test_merge_associative(self, x, y, z):
        """(x + y) + z == x + (y + z), treating None as absorbing."""
        def merge3(a, b, c):
            ab = merge_composites(a, b)
            if ab is None:
                return None
            return merge_composites(ab, c)

        def merge3_right(a, b, c):
            bc = merge_composites(b, c)
            if bc is None:
                return None
            return merge_composites(a, bc)

        left = merge3(x, y, z)
        right = merge3_right(x, y, z)
        # A left-association failure can happen at a different step than a
        # right-association failure, but success values must agree...
        if left is not None and right is not None:
            assert left == right
        # ...and a total conflict is a total conflict on both sides:
        # the generator ties rows to gids, so disagreement is symmetric.
        if left is None:
            assert right is None
        if right is None:
            assert left is None
