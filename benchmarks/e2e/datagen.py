"""Seeded inputs: the people corpus, its schema, and the op streams.

Everything the system under test receives is produced here from the
``--seed``.  Documents stay inside the paper's value domain (naturals,
strings, objects, arrays), so every backend accepts them unchanged.

An *op* is a plain dict: ``{"t": template, "op": method, ...args}``.
``t`` names the template (the unit latencies are grouped by); ``op``
names the collection method; the remaining keys are its arguments.
Streams are infinite generators -- a run consumes as many ops as fit
into its timed phase -- and :func:`stream_digest` hashes a fixed prefix
so two runs can prove they were fed the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import islice
from typing import Any, Iterator

COLLECTION = "people"
CITIES = [f"city{index:02d}" for index in range(40)]
TAGS = [f"tag{index:02d}" for index in range(30)]
AGES = range(18, 90)
ZIPS = 1000
SCORES = 10_000

#: The served workload reads only hot-city documents and writes only
#: cold-city ones, so a read's answer never depends on how concurrent
#: writes interleave (see README, "served-mixed").
HOT_CITIES = CITIES[:20]
#: Inserted documents carry a city no filter ever names.
NEW_CITY = "newtown"

#: The paper-fragment JSON Schema of a people document (Theorem 1
#: translates it to the JSL premise the optimizer proves against).
SCHEMA = {
    "type": "object",
    "required": ["user", "age", "city", "score", "address", "tags"],
    "properties": {
        "user": {"type": "integer"},
        "age": {"type": "integer", "minimum": 18, "maximum": 89},
        "city": {"type": "string"},
        "score": {"type": "integer"},
        "address": {
            "type": "object",
            "required": ["zip", "street"],
            "properties": {
                "zip": {"type": "integer", "maximum": ZIPS - 1},
                "street": {"type": "string"},
            },
        },
        "tags": {"type": "array", "additionalItems": {"type": "string"}},
    },
}


def person(rng: random.Random, user: int, city: str | None = None) -> dict:
    return {
        "user": user,
        "age": rng.choice(AGES),
        "city": rng.choice(CITIES) if city is None else city,
        "score": rng.randrange(SCORES),
        "address": {
            "zip": rng.randrange(ZIPS),
            "street": f"{rng.randrange(1, 1000)} {rng.choice(TAGS)} street",
        },
        "tags": rng.sample(TAGS, 3),
    }


def people(seed: int, count: int) -> list[dict]:
    rng = random.Random(f"people-{seed}")
    return [person(rng, user) for user in range(count)]


def _cycle_shuffled(rng: random.Random, values: list) -> Iterator[Any]:
    """Every value once per lap, reshuffled each lap: constants stay
    fresh for as long as the domain allows."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def _mix(rng: random.Random, templates: dict[str, tuple[int, Any]]) -> Iterator[str]:
    """Template names, each lap holding every template ``weight`` times."""
    lap = [name for name, (weight, _) in templates.items() for _ in range(weight)]
    return _cycle_shuffled(rng, lap)


# ---------------------------------------------------------------------------
# embedded-read: fresh constants on every op.
# ---------------------------------------------------------------------------

#: template -> (ops per 12-op lap, latency class)
READ_MIX = {
    "find_user": (4, "point"),
    "find_city_age": (3, "point"),
    "find_zip": (2, "point"),
    "find_score_range": (1, "scan"),
    "count_tag": (1, "scan"),
    "count_city": (1, "scan"),
}


def read_stream(seed: int, count: int) -> Iterator[dict]:
    rng = random.Random(f"read-{seed}")
    users = _cycle_shuffled(rng, list(range(count)))
    city_ages = _cycle_shuffled(rng, [(c, a) for c in CITIES for a in AGES])
    zips = _cycle_shuffled(rng, list(range(ZIPS)))
    lows = _cycle_shuffled(rng, list(range(SCORES - 100)))
    tags = _cycle_shuffled(rng, TAGS)
    cities = _cycle_shuffled(rng, CITIES)
    for template in _mix(rng, READ_MIX):
        if template == "find_user":
            yield {"t": template, "op": "find", "filter": {"user": next(users)}}
        elif template == "find_city_age":
            city, age = next(city_ages)
            yield {"t": template, "op": "find", "filter": {"city": city, "age": age}}
        elif template == "find_zip":
            yield {"t": template, "op": "find", "filter": {"address.zip": next(zips)}}
        elif template == "find_score_range":
            low = next(lows)
            yield {
                "t": template,
                "op": "find",
                "filter": {"score": {"$gte": low, "$lt": low + 100}},
            }
        elif template == "count_tag":
            yield {"t": template, "op": "count", "filter": {"tags": next(tags)}}
        else:
            yield {"t": template, "op": "count", "filter": {"city": next(cities)}}


# ---------------------------------------------------------------------------
# embedded-analytics: six fixed pipelines, cycled.
# ---------------------------------------------------------------------------

#: Inside the aggregation fragment of Botoeva et al. (match, unwind,
#: project, group, sort, limit, count).  Every $sort names a tie-break
#: key, so the expected order is total.
PIPELINES = {
    "group_city": [
        {"$group": {"_id": "$city", "n": {"$sum": 1}, "avg_age": {"$avg": "$age"}}}
    ],
    "unwind_tags": [
        {"$unwind": "$tags"},
        {"$group": {"_id": "$tags", "n": {"$sum": 1}}},
    ],
    "group_zip": [{"$group": {"_id": "$address.zip", "users": {"$push": "$user"}}}],
    "older_top_cities": [
        {"$match": {"age": {"$gt": 60}}},
        {"$group": {"_id": "$city", "n": {"$sum": 1}}},
        {"$sort": {"n": -1, "_id": 1}},
        {"$limit": 5},
    ],
    "city_top_scores": [
        {"$match": {"city": CITIES[3]}},
        {"$project": {"user": 1, "score": 1}},
        {"$sort": {"score": -1, "user": 1}},
        {"$limit": 10},
    ],
    "score_band_count": [
        {"$match": {"score": {"$gte": 1000, "$lt": 2000}}},
        {"$count": "n"},
    ],
}

#: template -> (ops per lap, latency class): "scan" pipelines read every
#: document, "pruned" ones start from an index-pruned $match.
ANALYTICS_MIX = {
    "group_city": (1, "scan"),
    "unwind_tags": (1, "scan"),
    "group_zip": (1, "scan"),
    "older_top_cities": (1, "pruned"),
    "city_top_scores": (1, "pruned"),
    "score_band_count": (1, "pruned"),
}


def analytics_stream(seed: int, count: int) -> Iterator[dict]:
    rng = random.Random(f"analytics-{seed}")
    for template in _mix(rng, ANALYTICS_MIX):
        yield {"t": template, "op": "aggregate", "pipeline": PIPELINES[template]}


# ---------------------------------------------------------------------------
# durable-write: single-document writes with fresh targets.
# ---------------------------------------------------------------------------

WRITE_MIX = {
    "update_inc_set": (5, "write"),
    "insert": (2, "write"),
    "replace": (1, "write"),
    "update_push": (1, "write"),
    "update_many": (1, "multi"),
}


def write_stream(seed: int, count: int) -> Iterator[dict]:
    rng = random.Random(f"write-{seed}")
    users = _cycle_shuffled(rng, list(range(count)))
    city_ages = _cycle_shuffled(rng, [(c, a) for c in CITIES for a in AGES])
    fresh_user = count
    for template in _mix(rng, WRITE_MIX):
        if template == "update_inc_set":
            yield {
                "t": template,
                "op": "update_one",
                "filter": {"user": next(users)},
                "update": {
                    "$inc": {"score": rng.randrange(1, 10)},
                    "$set": {"address.street": f"{rng.randrange(1, 1000)} moved"},
                },
            }
        elif template == "insert":
            yield {"t": template, "op": "insert", "doc": person(rng, fresh_user)}
            fresh_user += 1
        elif template == "replace":
            user = next(users)
            yield {
                "t": template,
                "op": "replace_one",
                "filter": {"user": user},
                "doc": person(rng, user),
            }
        elif template == "update_push":
            yield {
                "t": template,
                "op": "update_one",
                "filter": {"user": next(users)},
                "update": {"$push": {"tags": rng.choice(TAGS)}},
            }
        else:
            city, age = next(city_ages)
            yield {
                "t": template,
                "op": "update_many",
                "filter": {"city": city, "age": age},
                "update": {"$inc": {"score": 1}},
            }


# ---------------------------------------------------------------------------
# served-mixed: a hot set that fits the server's artifact cache.
# ---------------------------------------------------------------------------

SERVED_MIX = {
    "find_user": (7, "point"),
    "find_city_age": (7, "point"),
    "count_city": (2, "other"),
    "agg_city_ages": (1, "other"),
    "update_inc_set": (2, "write"),
    "insert": (1, "write"),
}

#: Fixed update document: with hot targets, compile_update always hits.
SERVED_UPDATE = {"$inc": {"score": 1}, "$set": {"address.street": "1 moved"}}


def served_stream(
    seed: int, docs: list[dict], connection: int, connections: int
) -> Iterator[dict]:
    """One connection's ops.  Reads draw from a hot set shared by all
    connections (12 users + 12 city/age pairs + 4 cities + 4 pipelines
    = 32 filters); writes target this connection's own 16 cold-city
    users, so connections never write the same document."""
    shared = random.Random(f"served-{seed}")
    hot_docs = [doc for doc in docs if doc["city"] in HOT_CITIES]
    cold_docs = [doc for doc in docs if doc["city"] not in HOT_CITIES]
    hot_users = [doc["user"] for doc in shared.sample(hot_docs, 12)]
    hot_pairs = [(doc["city"], doc["age"]) for doc in shared.sample(hot_docs, 12)]
    hot_cities = shared.sample(HOT_CITIES, 4)
    targets = shared.sample(cold_docs, 16 * connections)
    own = [doc["user"] for doc in targets[connection::connections]]
    rng = random.Random(f"served-{seed}-{connection}")
    fresh_user = 1_000_000 * (connection + 1)
    for template in _mix(rng, SERVED_MIX):
        if template == "find_user":
            yield {"t": template, "op": "find", "filter": {"user": rng.choice(hot_users)}}
        elif template == "find_city_age":
            city, age = rng.choice(hot_pairs)
            yield {"t": template, "op": "find", "filter": {"city": city, "age": age}}
        elif template == "count_city":
            yield {"t": template, "op": "count", "filter": {"city": rng.choice(hot_cities)}}
        elif template == "agg_city_ages":
            yield {
                "t": template,
                "op": "aggregate",
                "pipeline": [
                    {"$match": {"city": rng.choice(hot_cities)}},
                    {"$group": {"_id": "$age", "n": {"$sum": 1}}},
                ],
            }
        elif template == "update_inc_set":
            yield {
                "t": template,
                "op": "update_one",
                "filter": {"user": rng.choice(own)},
                "update": SERVED_UPDATE,
            }
        else:
            yield {
                "t": template,
                "op": "insert",
                "doc": person(rng, fresh_user, city=NEW_CITY),
            }
            fresh_user += 1


def digest(values: Any) -> str:
    return hashlib.sha256(
        json.dumps(values, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def stream_digest(stream: Iterator[dict], prefix: int = 1000) -> str:
    """SHA-256 of the first ``prefix`` ops of a (fresh) stream."""
    return digest(list(islice(stream, prefix)))
