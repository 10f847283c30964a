"""The travel-planning workload of the paper's Section 2.2.

The motivating scenario: ``n`` cities, flight tables ``FI(i, i+1)`` for
each leg of a given city sequence, and a stay-over window ``L_i =
[l1, l2]`` at each intermediate city.  Finding all valid itineraries is a
*chain* multi-way theta-join — the exact query shape Algorithm 1
evaluates in one MapReduce job — with the theta function

    FI(i, i+1).at + L.l1  <  FI(i+1, i+2).dt  <  FI(i, i+1).at + L.l2

between successive legs.

This module generates realistic flight legs (clustered departure banks,
duration jitter) and builds the chain query.  Times are minutes from the
start of the booking horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.relational.predicates import AttrRef, JoinCondition, JoinPredicate, ThetaOp
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.utils import make_rng

#: Minutes in one day; the default booking horizon is a week.
DAY_MINUTES = 24 * 60
DEFAULT_HORIZON_MINUTES = 7 * DAY_MINUTES

#: Departure banks (minutes after midnight) around which airlines cluster
#: flights: early morning, noon, late afternoon, evening.
DEPARTURE_BANKS = (6 * 60, 12 * 60, 16 * 60 + 30, 20 * 60)


@dataclass(frozen=True)
class StayOver:
    """The paper's ``L_i = [l1, l2]``: allowed lay-over minutes at a city."""

    min_minutes: float
    max_minutes: float

    def __post_init__(self) -> None:
        if self.min_minutes < 0:
            raise QueryError("stay-over lower bound must be >= 0 minutes")
        if self.max_minutes <= self.min_minutes:
            raise QueryError(
                f"stay-over window [{self.min_minutes}, {self.max_minutes}] is empty"
            )


#: A comfortable default: between 45 minutes and half a day at each stop.
DEFAULT_STAYOVER = StayOver(45.0, 12 * 60.0)


def flight_schema(bytes_per_row: int = 0) -> Schema:
    """One flight: flight number, departure time ``dt``, arrival time ``at``.

    The paper's FI tables carry exactly these three attributes.  As with
    the other workloads, ``bytes_per_row`` inflates field widths so small
    row counts can stand in for paper-scale volumes.
    """
    fields = [
        Field("fno", "int"),
        Field("dt", "int"),
        Field("at", "int"),
    ]
    if bytes_per_row > 8:
        share = (bytes_per_row - 8) // len(fields)
        fields = [Field(f.name, f.kind, max(1, share)) for f in fields]
    return Schema(fields)


def generate_flight_leg(
    name: str,
    flights: int,
    duration_minutes: float = 120.0,
    horizon_minutes: float = DEFAULT_HORIZON_MINUTES,
    seed: int = 0,
    bytes_per_row: int = 0,
) -> Relation:
    """A flight table FI for one leg (one ordered city pair).

    Departures cluster around the daily :data:`DEPARTURE_BANKS` across the
    horizon; flight duration gets +/-20% jitter.  Flight numbers are the
    row index (they serve as record ids).
    """
    if flights < 1:
        raise QueryError("a flight leg needs at least one flight")
    if duration_minutes <= 0:
        raise QueryError("flight duration must be positive")
    if horizon_minutes < DAY_MINUTES:
        raise QueryError("horizon must cover at least one day")
    rng = make_rng("flights", name, flights, seed)
    relation = Relation(name, flight_schema(bytes_per_row))
    days = int(horizon_minutes // DAY_MINUTES)
    for fno in range(flights):
        day = rng.randrange(days)
        bank = rng.choice(DEPARTURE_BANKS)
        depart = day * DAY_MINUTES + bank + rng.uniform(-90.0, 90.0)
        depart = min(max(0.0, depart), horizon_minutes - 1)
        duration = duration_minutes * rng.uniform(0.8, 1.2)
        arrive = depart + duration
        relation.append((fno, int(round(depart)), int(round(arrive))))
    return relation


def stayover_condition(
    condition_id: int,
    earlier_alias: str,
    later_alias: str,
    window: StayOver,
) -> JoinCondition:
    """The theta edge between two successive legs.

    ``earlier.at + l1 < later.dt`` and ``later.dt < earlier.at + l2`` —
    exactly the theta function the paper writes out for FI(s, s+1) and
    FI(s+1, s+2) in Section 2.2.
    """
    return JoinCondition(
        condition_id,
        [
            JoinPredicate(
                AttrRef(earlier_alias, "at", offset=window.min_minutes),
                ThetaOp.LT,
                AttrRef(later_alias, "dt"),
            ),
            JoinPredicate(
                AttrRef(later_alias, "dt"),
                ThetaOp.LT,
                AttrRef(earlier_alias, "at", offset=window.max_minutes),
            ),
        ],
    )


def travel_plan_query(
    cities: Sequence[str],
    flights_per_leg: int = 60,
    stayovers: Optional[Sequence[StayOver]] = None,
    duration_minutes: float = 120.0,
    horizon_minutes: float = DEFAULT_HORIZON_MINUTES,
    seed: int = 0,
    bytes_per_row: int = 0,
) -> JoinQuery:
    """Build the full itinerary-search chain query for a city sequence.

    ``cities`` is the ordered sequence ``<c_s, ..., c_t>``; a leg relation
    ``FI_{i}_{i+1}`` is generated for every consecutive pair and chained
    with :func:`stayover_condition`.  ``stayovers`` gives the window at
    each *intermediate* city (``len(cities) - 2`` entries; defaults to
    :data:`DEFAULT_STAYOVER` everywhere).
    """
    if len(cities) < 3:
        raise QueryError("an itinerary needs at least three cities (two legs)")
    if len(set(cities)) != len(cities):
        raise QueryError("city sequence must not repeat cities")
    num_legs = len(cities) - 1
    if stayovers is None:
        stayovers = [DEFAULT_STAYOVER] * (len(cities) - 2)
    if len(stayovers) != len(cities) - 2:
        raise QueryError(
            f"need one stay-over window per intermediate city "
            f"({len(cities) - 2}), got {len(stayovers)}"
        )

    relations: Dict[str, Relation] = {}
    aliases: List[str] = []
    for index in range(num_legs):
        alias = f"leg{index + 1}"
        name = f"FI_{cities[index]}_{cities[index + 1]}"
        relations[alias] = generate_flight_leg(
            name,
            flights_per_leg,
            duration_minutes=duration_minutes,
            horizon_minutes=horizon_minutes,
            seed=seed + index,
            bytes_per_row=bytes_per_row,
        )
        aliases.append(alias)

    conditions = [
        stayover_condition(index + 1, aliases[index], aliases[index + 1], window)
        for index, window in enumerate(stayovers)
    ]
    name = "travel-" + "-".join(cities)
    return JoinQuery(name, relations, conditions)


def describe_itinerary(
    query: JoinQuery, result_row: Sequence[object]
) -> List[Tuple[str, int, int]]:
    """Decode one result row into ``(leg relation, depart, arrive)`` triples.

    The result schema concatenates the legs in alias order; this helper
    re-slices it for display (used by the travel-planner example).
    """
    schema_width = 3  # fno, dt, at per leg
    legs: List[Tuple[str, int, int]] = []
    aliases = sorted(query.aliases, key=lambda a: int(a.replace("leg", "")))
    for index, alias in enumerate(aliases):
        base = index * schema_width
        _fno, depart, arrive = result_row[base:base + schema_width]
        legs.append((query.relations[alias].name, int(depart), int(arrive)))
    return legs
