"""Physical join operators and the reference oracle."""

from repro.joins.jobs import (
    find_single_key_class,
    make_broadcast_join_job,
    make_equi_join_job,
    make_equichain_join_job,
    make_hypercube_join_job,
)
from repro.joins.shares import make_shares_join_job, optimize_shares
from repro.joins.records import (
    Composite,
    Entry,
    composite_width,
    composites_to_relation,
    relation_to_composite_file,
)
from repro.joins.reference import join_result_signature, reference_join

__all__ = [
    "Composite",
    "Entry",
    "composite_width",
    "composites_to_relation",
    "find_single_key_class",
    "join_result_signature",
    "make_broadcast_join_job",
    "make_equi_join_job",
    "make_equichain_join_job",
    "make_hypercube_join_job",
    "make_shares_join_job",
    "optimize_shares",
    "reference_join",
    "relation_to_composite_file",
]
