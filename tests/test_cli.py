"""The command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro import api


@pytest.fixture
def doc_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(
        json.dumps(
            {"name": {"first": "John"}, "age": 32,
             "hobbies": ["fishing", "yoga"]}
        )
    )
    return str(path)


@pytest.fixture
def collection_file(tmp_path):
    path = tmp_path / "people.json"
    path.write_text(
        json.dumps(
            [
                {"name": "Sue", "age": 35},
                {"name": "Bob", "age": 28},
            ]
        )
    )
    return str(path)


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(
        json.dumps(
            {
                "type": "object",
                "required": ["name"],
                "properties": {"age": {"type": "number", "maximum": 120}},
            }
        )
    )
    return str(path)


class TestQuery:
    def test_jnl_true(self, doc_file, capsys):
        assert main(["query", doc_file, "--jnl", "has(.name.first)"]) == 0
        assert "name" in capsys.readouterr().out

    def test_jnl_false(self, doc_file):
        assert main(["query", doc_file, "--jnl", "has(.missing)"]) == 1

    def test_jsonpath(self, doc_file, capsys):
        assert main(["query", doc_file, "--jsonpath", "$.hobbies[*]"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ['"fishing"', '"yoga"']

    def test_path_with_node_ids(self, doc_file, capsys):
        assert main(
            ["query", doc_file, "--path", ".hobbies[0]", "--node-ids"]
        ) == 0
        assert capsys.readouterr().out.strip().isdigit()

    def test_parse_error_exit_code(self, doc_file):
        assert main(["query", doc_file, "--jnl", "has("]) == 2

    def test_missing_file(self):
        assert main(["query", "/nope.json", "--jnl", "true"]) == 2


class TestValidate:
    def test_valid(self, doc_file, schema_file, capsys):
        assert main(["validate", doc_file, "--schema", schema_file]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_invalid(self, tmp_path, schema_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"age": 200, "name": "x"}')
        assert main(["validate", str(bad), "--schema", schema_file]) == 1
        assert capsys.readouterr().out.strip() == "invalid"

    def test_streaming_mode(self, doc_file, schema_file, capsys):
        assert main(
            ["validate", doc_file, "--schema", schema_file, "--streaming"]
        ) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_corpus_all_valid(self, tmp_path, schema_file, capsys):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(
            json.dumps([{"name": "a", "age": 10}, {"name": "b"}])
        )
        assert main(
            ["validate", str(corpus), "--schema", schema_file, "--corpus"]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["0: valid", "1: valid"]

    def test_corpus_with_invalid_member(self, tmp_path, schema_file, capsys):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(
            json.dumps([{"name": "a"}, {"name": "b", "age": 200}])
        )
        assert main(
            ["validate", str(corpus), "--schema", schema_file, "--corpus"]
        ) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["0: valid", "1: invalid"]

    def test_corpus_requires_array(self, doc_file, schema_file):
        assert main(
            ["validate", doc_file, "--schema", schema_file, "--corpus"]
        ) == 2

    def test_corpus_streaming_conflict(self, doc_file, schema_file):
        assert main(
            ["validate", doc_file, "--schema", schema_file,
             "--corpus", "--streaming"]
        ) == 2


class TestFind:
    def test_filter(self, collection_file, capsys):
        assert main(
            ["find", collection_file, "--filter", '{"age": {"$gt": 30}}']
        ) == 0
        out = capsys.readouterr().out
        assert "Sue" in out and "Bob" not in out

    def test_projection(self, collection_file, capsys):
        assert main(
            ["find", collection_file, "--filter", "{}",
             "--project", '{"name": 1}']
        ) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert lines == [{"name": "Sue"}, {"name": "Bob"}]

    def test_no_match_exit_code(self, collection_file):
        assert main(
            ["find", collection_file, "--filter", '{"age": {"$gt": 99}}']
        ) == 1

    def test_non_array_collection(self, doc_file):
        assert main(["find", doc_file, "--filter", "{}"]) == 2


class TestSat:
    def test_jsl_sat_with_witness(self, capsys):
        assert main(["sat", "--jsl", "some(.a, number and min(4))"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("satisfiable")
        witness = json.loads(out.splitlines()[1])
        assert witness["a"] > 4

    def test_jsl_unsat(self, capsys):
        assert main(["sat", "--jsl", "string and number", "--quiet"]) == 1
        assert capsys.readouterr().out.strip() == "unsatisfiable"

    def test_jnl_sat(self, capsys):
        assert main(["sat", "--jnl", "has(.a[1])", "--quiet"]) == 0

    def test_schema_sat(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text(
            json.dumps(
                {"allOf": [{"type": "number", "minimum": 9},
                           {"type": "number", "maximum": 3}]}
            )
        )
        assert main(["sat", "--schema", str(broken)]) == 1

    def test_recursive_jsl_program(self, capsys):
        program = (
            "def g := value(\"end\") or some(.next, $g); some(.next, $g)"
        )
        assert main(["sat", "--jsl", program, "--quiet"]) == 0


@pytest.fixture
def jsonl_file(tmp_path):
    path = tmp_path / "people.jsonl"
    path.write_text(
        "\n".join(
            json.dumps(doc)
            for doc in [
                {"name": "Sue", "age": 35, "hobbies": ["chess", "yoga"]},
                {"name": "Bob", "age": 28, "hobbies": ["chess"]},
                {"name": "Ana", "age": 61},
                {"name": "Li", "age": 35, "hobbies": []},
            ]
        )
        + "\n"
    )
    return str(path)


class TestAggregate:
    def test_pipeline_over_jsonl_collection(self, jsonl_file, capsys):
        pipeline = json.dumps(
            [
                {"$match": {"age": {"$gt": 30}}},
                {"$group": {"_id": None, "n": {"$sum": 1}}},
            ]
        )
        assert main(
            ["aggregate", "--collection", jsonl_file, "--pipeline", pipeline]
        ) == 0
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert out == [{"_id": None, "n": 3}]

    def test_pipeline_over_array_file(self, collection_file, capsys):
        pipeline = json.dumps([{"$project": {"name": 1}}, {"$sort": {"name": 1}}])
        assert main(
            ["aggregate", collection_file, "--pipeline", pipeline]
        ) == 0
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert out == [{"name": "Bob"}, {"name": "Sue"}]

    def test_unwind_skips_missing_and_passes_scalars(self, jsonl_file, capsys):
        pipeline = json.dumps(
            [{"$unwind": "$hobbies"}, {"$group": {"_id": "$hobbies", "n": {"$sum": 1}}}]
        )
        assert main(
            ["aggregate", "--collection", jsonl_file, "--pipeline", pipeline]
        ) == 0
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        # Ana (missing) and Li (empty array) contribute no rows.
        assert out == [{"_id": "chess", "n": 2}, {"_id": "yoga", "n": 1}]

    def test_unwind_on_non_array_path(self, jsonl_file, capsys):
        pipeline = json.dumps([{"$unwind": "$name"}, {"$count": "rows"}])
        assert main(
            ["aggregate", "--collection", jsonl_file, "--pipeline", pipeline]
        ) == 0
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert out == [{"rows": 4}]  # scalars pass through unchanged

    def test_explain_reports_index_pruning(self, jsonl_file, capsys):
        pipeline = json.dumps(
            [{"$match": {"name": "Sue"}}, {"$sort": {"age": 1}}]
        )
        assert main(
            ["aggregate", "--collection", jsonl_file, "--pipeline", pipeline,
             "--explain"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["format"] == "repro-explain"
        assert report["kind"] == "aggregate"
        assert report["stages"][0] == {"op": "$match", "mode": "index-pruned"}
        assert report["stages"][1] == {"op": "$sort", "mode": "materialised"}
        assert report["total"] == 4 and report["candidates"] == 1

    def test_empty_collection(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(
            ["aggregate", "--collection", str(empty), "--pipeline",
             '[{"$count": "n"}]']
        ) == 1

    def test_no_results_exit_code(self, jsonl_file):
        assert main(
            ["aggregate", "--collection", jsonl_file, "--pipeline",
             '[{"$match": {"age": {"$gt": 99}}}]']
        ) == 1

    def test_pipeline_parse_error(self, jsonl_file, capsys):
        assert main(
            ["aggregate", "--collection", jsonl_file, "--pipeline",
             '[{"$frobnicate": 1}]']
        ) == 2
        assert "unsupported pipeline stage" in capsys.readouterr().err

    def test_pipeline_invalid_json(self, jsonl_file):
        assert main(
            ["aggregate", "--collection", jsonl_file, "--pipeline", "not-json"]
        ) == 2

    def test_pipeline_must_be_an_array(self, jsonl_file, capsys):
        assert main(
            ["aggregate", "--collection", jsonl_file, "--pipeline",
             '{"$match": {}}']
        ) == 2
        assert "JSON array" in capsys.readouterr().err

    def test_requires_exactly_one_input(self, collection_file, jsonl_file):
        assert main(["aggregate", "--pipeline", "[]"]) == 2
        assert main(
            ["aggregate", collection_file, "--collection", jsonl_file,
             "--pipeline", "[]"]
        ) == 2

    def test_group_accumulator_error(self, jsonl_file, capsys):
        assert main(
            ["aggregate", "--collection", jsonl_file, "--pipeline",
             '[{"$group": {"_id": null, "n": {"$bogus": 1}}}]']
        ) == 2
        assert "unsupported accumulator" in capsys.readouterr().err


class TestUpdate:
    def test_update_over_jsonl_collection(self, jsonl_file, capsys):
        assert main(
            ["update", "--collection", jsonl_file,
             "--filter", '{"age": {"$gt": 30}}',
             "--update", '{"$inc": {"age": 1}}']
        ) == 0
        assert capsys.readouterr().out.strip() == "matched=3 modified=3"

    def test_update_writes_back_with_out(self, jsonl_file, tmp_path, capsys):
        out_file = tmp_path / "updated.jsonl"
        assert main(
            ["update", "--collection", jsonl_file,
             "--filter", '{"name": "Sue"}',
             "--update", '{"$set": {"age": 36}, "$push": {"hobbies": "go"}}',
             "--out", str(out_file)]
        ) == 0
        rows = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert len(rows) == 4
        assert rows[0]["age"] == 36
        assert rows[0]["hobbies"][-1] == "go"
        assert rows[1]["age"] == 28  # untouched

    def test_update_one_touches_a_single_document(self, jsonl_file, capsys):
        assert main(
            ["update", "--collection", jsonl_file,
             "--filter", '{"age": 35}',
             "--update", '{"$inc": {"age": 1}}', "--one"]
        ) == 0
        assert capsys.readouterr().out.strip() == "matched=1 modified=1"

    def test_update_over_array_file(self, collection_file, capsys):
        assert main(
            ["update", collection_file,
             "--filter", "{}", "--update", '{"$set": {"seen": "y"}}']
        ) == 0
        assert capsys.readouterr().out.strip() == "matched=2 modified=2"

    def test_upsert_reports_the_new_id(self, jsonl_file, capsys):
        assert main(
            ["update", "--collection", jsonl_file,
             "--filter", '{"name": "Zoe"}',
             "--update", '{"$set": {"age": 1}}', "--upsert"]
        ) == 0
        assert (
            capsys.readouterr().out.strip()
            == "matched=0 modified=0 upserted_id=4"
        )

    def test_explain_reports_pruning_and_touched_indexes(
        self, jsonl_file, capsys
    ):
        assert main(
            ["update", "--collection", jsonl_file,
             "--filter", '{"name": "Sue"}',
             "--update", '{"$inc": {"age": 1}}', "--explain"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["format"] == "repro-explain"
        assert report["kind"] == "update"
        assert report["total"] == 4 and report["candidates"] == 1
        assert report["modified"] == 1
        assert report["total"] - report["candidates"] == 3  # pruned
        assert "eq" in report["postings"]

    def test_explain_respects_one(self, jsonl_file, capsys):
        assert main(
            ["update", "--collection", jsonl_file,
             "--filter", '{"age": {"$gt": 20}}',
             "--update", '{"$inc": {"age": 1}}', "--one", "--explain"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["matched"] == 1 and report["modified"] == 1

    def test_no_match_exit_code(self, jsonl_file):
        assert main(
            ["update", "--collection", jsonl_file,
             "--filter", '{"name": "Zoe"}', "--update", '{"$inc": {"age": 1}}']
        ) == 1

    def test_explain_excludes_upsert_and_out(self, jsonl_file, capsys):
        assert main(
            ["update", "--collection", jsonl_file, "--filter", "{}",
             "--update", '{"$inc": {"age": 1}}', "--explain", "--upsert"]
        ) == 2
        assert "dry run" in capsys.readouterr().err

    def test_update_parse_error(self, jsonl_file, capsys):
        assert main(
            ["update", "--collection", jsonl_file, "--filter", "{}",
             "--update", '{"$frobnicate": {"a": 1}}']
        ) == 2
        assert "unsupported update operator" in capsys.readouterr().err

    def test_requires_exactly_one_input(self, collection_file, jsonl_file):
        assert main(["update", "--update", "{}"]) == 2
        assert main(
            ["update", collection_file, "--collection", jsonl_file,
             "--update", '{"$inc": {"age": 1}}']
        ) == 2


class TestDatabaseCLI:
    @pytest.fixture
    def db_dir(self, tmp_path):
        from repro import api

        path = str(tmp_path / "db")
        with api.connect(path) as db:
            db.collection(
                documents=[
                    {"name": "Sue", "age": 35},
                    {"name": "Bob", "age": 28},
                ]
            )
        return path

    def test_find_over_db(self, db_dir, capsys):
        assert main(
            ["find", "--db", db_dir, "--filter", '{"age": {"$gt": 30}}']
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("0\t")
        assert "Sue" in out and "Bob" not in out

    def test_update_over_db_is_durable(self, db_dir, capsys):
        assert main(
            ["update", "--db", db_dir,
             "--filter", '{"name": "Bob"}',
             "--update", '{"$inc": {"age": 10}}']
        ) == 0
        assert capsys.readouterr().out.strip() == "matched=1 modified=1"
        # A separate invocation (fresh recovery) sees the commit.
        assert main(
            ["find", "--db", db_dir, "--filter", '{"age": 38}']
        ) == 0
        assert "Bob" in capsys.readouterr().out

    def test_query_and_aggregate_over_db(self, db_dir, capsys):
        assert main(["query", "--db", db_dir, "--jnl", "has(.name)"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert main(
            ["aggregate", "--db", db_dir,
             "--pipeline",
             '[{"$group": {"_id": null, "total": {"$sum": "$age"}}}]']
        ) == 0
        assert json.loads(capsys.readouterr().out) == {
            "_id": None,
            "total": 63,
        }

    def test_db_compact(self, db_dir, capsys):
        import os

        assert main(["db", "compact", db_dir]) == 0
        out = capsys.readouterr().out
        assert out.startswith("main\twal_records=")
        # The WAL was folded into the snapshot (magic bytes only).
        assert os.path.getsize(os.path.join(db_dir, "main.wal")) == 8
        assert main(["find", "--db", db_dir, "--filter", "{}"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_db_is_exclusive_with_other_sources(
        self, db_dir, collection_file, capsys
    ):
        assert main(
            ["find", "--db", db_dir, "--collection", collection_file]
        ) == 2
        assert "--db" in capsys.readouterr().err


class TestShards:
    def test_sharded_find_matches_unsharded(self, jsonl_file, capsys):
        args = [
            "find",
            "--collection",
            jsonl_file,
            "--filter",
            '{"age": {"$gt": 30}}',
        ]
        assert main(args) == 0
        expected = capsys.readouterr().out
        assert main(args + ["--shards", "3"]) == 0
        assert capsys.readouterr().out == expected

    def test_sharded_aggregate_matches_unsharded(self, jsonl_file, capsys):
        pipeline = json.dumps(
            [
                {"$match": {"age": {"$gt": 30}}},
                {"$group": {"_id": None, "n": {"$sum": 1}}},
            ]
        )
        args = ["aggregate", "--collection", jsonl_file, "--pipeline", pipeline]
        assert main(args) == 0
        expected = capsys.readouterr().out
        assert main(args + ["--shards", "2"]) == 0
        assert capsys.readouterr().out == expected

    def test_sharded_explain_reports_per_shard_stats(self, jsonl_file, capsys):
        pipeline = json.dumps(
            [
                {"$match": {"age": {"$gt": 30}}},
                {"$group": {"_id": None, "n": {"$sum": 1}}},
            ]
        )
        assert main(
            [
                "aggregate",
                "--collection",
                jsonl_file,
                "--shards",
                "2",
                "--pipeline",
                pipeline,
                "--explain",
            ]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert [shard["shard"] for shard in report["shards"]] == [0, 1]
        assert report["merge"] == "group-merge"

    def test_sharded_update_writes_corpus(self, jsonl_file, tmp_path, capsys):
        out_file = str(tmp_path / "updated.jsonl")
        assert main(
            [
                "update",
                "--collection",
                jsonl_file,
                "--shards",
                "2",
                "--filter",
                '{"age": {"$gt": 30}}',
                "--update",
                '{"$inc": {"age": 1}}',
                "--out",
                out_file,
            ]
        ) == 0
        assert "matched=3 modified=3" in capsys.readouterr().out
        with open(out_file, encoding="utf-8") as handle:
            docs = [json.loads(line) for line in handle]
        assert [doc["age"] for doc in docs] == [36, 28, 62, 36]

    def test_sharded_update_explain_is_per_shard(self, jsonl_file, capsys):
        assert main(
            [
                "update",
                "--collection",
                jsonl_file,
                "--shards",
                "2",
                "--filter",
                '{"age": {"$gt": 30}}',
                "--update",
                '{"$inc": {"age": 1}}',
                "--explain",
            ]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "update"
        shards = report["shards"]
        assert [shard["shard"] for shard in shards] == [0, 1]
        assert report["matched"] == sum(shard["matched"] for shard in shards)

    def test_shards_requires_collection(self, collection_file, capsys):
        assert main(
            ["find", collection_file, "--shards", "2", "--filter", "{}"]
        ) == 2
        assert "--shards requires --collection" in capsys.readouterr().err

    def test_shards_must_be_positive(self, jsonl_file, capsys):
        assert main(
            [
                "find",
                "--collection",
                jsonl_file,
                "--shards",
                "0",
                "--filter",
                "{}",
            ]
        ) == 2
        assert "at least 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The uniform error contract: ``error:<TAB><code><TAB><message>`` on
# stderr, nonzero exit.
# ---------------------------------------------------------------------------


def error_line(capsys) -> tuple[str, str]:
    """Parse the single error line off stderr; returns (code, message)."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1, err
    marker, code, message = err[0].split("\t", 2)
    assert marker == "error:"
    return code, message


class TestErrorLines:
    def test_malformed_filter_names_the_argument(self, doc_file, capsys):
        assert main(["find", doc_file, "--filter", "{not json"]) == 2
        code, message = error_line(capsys)
        assert code == "parse.error"
        assert message.startswith("malformed --filter:")

    def test_malformed_pipeline_names_the_argument(self, doc_file, capsys):
        assert main(["aggregate", doc_file, "--pipeline", "[oops"]) == 2
        code, message = error_line(capsys)
        assert code == "parse.error"
        assert message.startswith("malformed --pipeline:")

    def test_usage_errors_carry_the_cli_code(self, doc_file, capsys):
        assert (
            main(
                ["find", doc_file, "--db", "somewhere", "--filter", "{}"]
            )
            == 2
        )
        code, _ = error_line(capsys)
        assert code == "cli.usage"

    def test_missing_file_is_an_os_error(self, capsys):
        assert main(["find", "/no/such/file.json", "--filter", "{}"]) == 2
        code, _ = error_line(capsys)
        assert code == "os.error"

    def test_library_errors_carry_their_wire_code(
        self, collection_file, capsys
    ):
        assert (
            main(
                [
                    "find",
                    collection_file,
                    "--filter",
                    '{"a": {"$bogus": 1}}',
                ]
            )
            == 2
        )
        code, message = error_line(capsys)
        assert code == "parse.error"
        assert "unsupported operator" in message


# ---------------------------------------------------------------------------
# serve + --remote: the CLI talking to a live server.
# ---------------------------------------------------------------------------


@pytest.fixture
def remote_server():
    import asyncio
    import threading

    from repro.server import ReproServer

    database = api.connect()
    database.collection(
        documents=[{"name": "Sue", "age": 35}, {"name": "Bob", "age": 28}]
    )
    server = ReproServer(database)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def runner() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    started.wait()
    host, port = server.address
    yield f"{host}:{port}"
    asyncio.run_coroutine_threadsafe(server.aclose(), loop).result(timeout=10)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)
    loop.close()


class TestRemote:
    def test_remote_find(self, remote_server, capsys):
        assert (
            main(
                [
                    "find",
                    "--remote",
                    remote_server,
                    "--filter",
                    '{"age": {"$gt": 30}}',
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Sue" in out and "Bob" not in out

    def test_remote_aggregate(self, remote_server, capsys):
        assert (
            main(
                [
                    "aggregate",
                    "--remote",
                    remote_server,
                    "--pipeline",
                    '[{"$group": {"_id": null, "n": {"$sum": 1}}}]',
                ]
            )
            == 0
        )
        assert '"n": 2' in capsys.readouterr().out.replace("'", '"')

    def test_remote_update(self, remote_server, capsys):
        assert (
            main(
                [
                    "update",
                    "--remote",
                    remote_server,
                    "--filter",
                    '{"name": "Bob"}',
                    "--update",
                    '{"$inc": {"age": 1}}',
                ]
            )
            == 0
        )
        assert capsys.readouterr().out.strip() == "matched=1 modified=1"

    def test_remote_error_rehydrates_with_its_code(
        self, remote_server, capsys
    ):
        assert (
            main(
                [
                    "find",
                    "--remote",
                    remote_server,
                    "--filter",
                    '{"a": {"$bogus": 1}}',
                ]
            )
            == 2
        )
        code, message = error_line(capsys)
        assert code == "parse.error"
        assert "unsupported operator" in message

    def test_remote_excludes_other_sources(self, remote_server, capsys):
        assert (
            main(
                [
                    "find",
                    "--remote",
                    remote_server,
                    "--db",
                    "somewhere",
                    "--filter",
                    "{}",
                ]
            )
            == 2
        )
        code, _ = error_line(capsys)
        assert code == "cli.usage"

    def test_remote_refused_connection_is_an_os_error(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        _, port = probe.getsockname()
        probe.close()
        assert (
            main(
                [
                    "find",
                    "--remote",
                    f"127.0.0.1:{port}",
                    "--filter",
                    "{}",
                ]
            )
            == 2
        )
        code, _ = error_line(capsys)
        assert code == "os.error"


class TestServeCommand:
    def test_serve_round_trip(self, tmp_path):
        import re
        import subprocess
        import sys

        from repro.client import connect

        db_dir = str(tmp_path / "db")
        with api.connect(db_dir) as db:
            db.collection(documents=[{"name": "Sue", "age": 35}])
        process = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from repro.cli import main; "
                "sys.exit(main(sys.argv[1:]))",
                "serve",
                db_dir,
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            announce = process.stdout.readline()
            match = re.search(r"on ([\d.]+):(\d+)", announce)
            assert match, announce
            address = (match.group(1), int(match.group(2)))
            with connect(address) as remote:
                collection = remote.collection()
                assert collection.find({"name": "Sue"}) == [
                    {"name": "Sue", "age": 35}
                ]
                collection.insert({"name": "Ada", "age": 30})
                remote.shutdown()
            assert process.wait(timeout=10) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        # The write was group-committed before shutdown acknowledged.
        with api.connect(db_dir) as db:
            assert db.collection().count({"name": "Ada"}) == 1

    def test_serve_rejects_bad_port(self, capsys):
        assert main(["serve", "--port", "70000"]) == 2
        code, _ = error_line(capsys)
        assert code == "cli.usage"
