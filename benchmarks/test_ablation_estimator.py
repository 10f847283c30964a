"""Ablation: selectivity-estimator quality (midpoint histogram vs join-sample).

The planner's cost estimates (w(e'), Equation 10's kR, the group cost)
all start from per-condition selectivities.  This ablation measures the
absolute estimation error of the two estimators the library ships
against the *true* pair-wise selectivity computed by the nested-loop
oracle:

* ``midpoint`` — the histogram estimator (bucket-midpoint integration
  over the per-column upload-time statistics);
* ``sampled`` — the join-sample estimator used for joint cardinalities.

Two findings this table documents (and asserts):

* on single predicates both estimators land within a few points of the
  truth;
* per-column estimators break on *correlated* predicate conjunctions
  (the ``window`` scenario: both predicate marginals multiplied under
  independence give ~0.32 against a true 0.14), which is exactly why the
  planner prices candidate jobs with the join-sample estimator.
"""

from _harness import Table, once

from repro.joins.reference import reference_join
from repro.relational.predicates import JoinCondition
from repro.relational.query import JoinQuery
from repro.relational.sampling import SampledJoinEstimator
from repro.relational.statistics import SelectivityEstimator, StatisticsCatalog
from repro.workloads.synthetic import uniform_relation, zipf_relation

ROWS = 900  # larger than the join-sample size, so sampling really estimates


def scenarios():
    """(name, query) pairs, one theta condition each."""
    uniform_a = uniform_relation("EA", ROWS, value_range=1000, seed=1)
    uniform_b = uniform_relation("EB", ROWS, value_range=1000, seed=2)
    offset_b = uniform_relation("EC", ROWS, value_range=1000, seed=3)
    zipf_a = zipf_relation("ZA", ROWS, distinct=50, skew=1.2, seed=4)
    zipf_b = zipf_relation("ZB", ROWS, distinct=50, skew=1.2, seed=5)
    yield "lt-uniform", JoinQuery(
        "lt", {"a": uniform_a, "b": uniform_b},
        [JoinCondition.parse(1, "a.v0 < b.v0")],
    )
    yield "window", JoinQuery(
        "window", {"a": uniform_a, "b": offset_b},
        [JoinCondition.parse(1, "a.v0 <= b.v0", "b.v0 < a.v0 + 150")],
    )
    yield "shifted-ge", JoinQuery(
        "ge", {"a": uniform_a, "b": offset_b},
        [JoinCondition.parse(1, "a.v0 >= b.v0 + 300")],
    )
    yield "eq-skewed", JoinQuery(
        "eq", {"a": zipf_a, "b": zipf_b},
        [JoinCondition.parse(1, "a.k = b.k")],
    )
    yield "mixed-skewed", JoinQuery(
        "mixed", {"a": zipf_a, "b": zipf_b},
        [JoinCondition.parse(1, "a.k = b.k", "a.v <= b.v")],
    )


def estimate(kind: str, query: JoinQuery, catalog: StatisticsCatalog) -> float:
    condition = query.conditions[0]
    names = {alias: rel.name for alias, rel in query.relations.items()}
    if kind == "midpoint":
        return SelectivityEstimator(catalog).condition_selectivity(condition, names)
    return SampledJoinEstimator(query, catalog).selectivity([condition])


def run():
    table = Table(
        "Ablation — per-condition selectivity estimation error",
        ["scenario", "true_sel", "midpoint", "sampled", "err_mid", "err_sampled"],
    )
    per_scenario = {}
    for name, query in scenarios():
        catalog = StatisticsCatalog()
        for relation in query.relations.values():
            catalog.add_relation(relation)
        truth = len(reference_join(query)) / (ROWS * ROWS)
        row = [name, f"{truth:.3g}"]
        errs = {}
        for kind in ("midpoint", "sampled"):
            est = estimate(kind, query, catalog)
            errs[kind] = abs(est - truth)
            row.append(f"{est:.3g}")
        per_scenario[name] = errs
        row.extend(f"{errs[k]:.3g}" for k in ("midpoint", "sampled"))
        table.add(*row)
    table.emit("ablation_estimator.txt")
    return per_scenario


def test_estimator_ablation(benchmark):
    per_scenario = once(benchmark, run)
    single_predicate = ["lt-uniform", "shifted-ge", "eq-skewed"]
    for name in single_predicate:
        errs = per_scenario[name]
        # Single predicates: every estimator lands within 5 points.
        assert max(errs.values()) < 0.05, (name, errs)
    # Correlated conjunction: the independence-based estimator misses
    # badly, the join-sample estimator does not — the planner's design
    # choice.
    window = per_scenario["window"]
    assert window["midpoint"] > 3 * window["sampled"] + 0.02
    assert window["sampled"] < 0.05
