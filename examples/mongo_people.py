"""MongoDB-style querying on the JNL core (Section 4.1, Example 1).

The paper's Example 1:  db.collection.find({name: {$eq: "Sue"}}, {})

Run:  python examples/mongo_people.py
"""

from repro.mongo import compile_filter
from repro.reference.workloads import people_collection
from repro import api


def main() -> None:
    people = api.collection(people_collection(50, seed=11))

    # The paper's Example 1 (navigation condition J[name] = "Sue").
    sues = people.find({"name.first": {"$eq": "Sue"}})
    print(f"people named Sue: {len(sues)}")

    # Filters compile to JNL unary formulas; inspect one:
    formula = compile_filter({"name.first": {"$eq": "Sue"}})
    print("compiled formula:", type(formula).__name__)

    # Richer filters: ranges, arrays, nested paths, booleans.
    queries = [
        ("adults in Santiago",
         {"age": {"$gte": 18}, "address.city": "Santiago"}),
        ("yogis", {"hobbies": "yoga"}),                 # array containment
        ("two hobbies", {"hobbies": {"$size": 2}}),
        ("chess-playing thirty-somethings",
         {"$and": [{"hobbies": {"$elemMatch": {"$eq": "chess"}}},
                   {"age": {"$gte": 30, "$lt": 40}}]}),
        ("no hobbies or very young",
         {"$or": [{"hobbies": {"$size": 0}}, {"age": {"$lt": 21}}]}),
        ("names not starting with S", {"name.first": {"$not": {"$regex": "^S"}}}),
    ]
    for label, query in queries:
        results = people.find(query)
        sample = [doc["name"]["first"] for doc in results[:4]]
        print(f"{label:38s} -> {len(results):3d} matches {sample}")

    # The second find() argument -- projection, the JSON-to-JSON
    # transformation the paper's Section 6 describes.
    cards = people.find(
        {"address.city": "Santiago", "age": {"$lt": 40}},
        {"name.first": 1, "age": 1},
    )
    print("projected contact cards:", cards[:3])

    full = people.find({"name.first": "Sue"}, {"address": 0, "hobbies": 0})
    print("Sue without address/hobbies:", full[:1])


if __name__ == "__main__":
    main()
