"""Command-line interface: query, validate, solve — from the shell.

Usage (also via ``python -m repro``)::

    repro query  doc.json --jnl  'has(.name.first)'
    repro query  doc.json --jsonpath '$..price'
    repro query  --collection corpus.jsonl --jsonpath '$..price'
    repro validate doc.json --schema schema.json [--streaming]
    repro find   people.json --filter '{"age": {"$gt": 30}}' \
                 [--project '{"name": 1}']
    repro find   --collection corpus.jsonl --filter '{"age": {"$gt": 30}}'
    repro find   --collection corpus.jsonl --shards 4 --filter '{...}'
    repro aggregate --collection corpus.jsonl \
                 --pipeline '[{"$match": {"age": {"$gt": 30}}},
                              {"$group": {"_id": "$city", "n": {"$sum": 1}}}]'
    repro update --collection corpus.jsonl \
                 --filter '{"age": {"$gt": 30}}' \
                 --update '{"$inc": {"age": 1}}' [--upsert] [--explain] \
                 [--out updated.jsonl]
    repro update --db ./people_db --filter '{...}' --update '{...}'
    repro db compact ./people_db
    repro sat    --jsl 'some(.a, number)' [--schema schema.json]
    repro serve  ./people_db --port 4321
    repro find   --remote tcp://127.0.0.1:4321 --filter '{"age": {"$gt": 30}}'

``--collection`` takes a JSON-lines corpus (one document per line),
loads it into an indexed :class:`repro.store.Collection` and answers
through the query planner: lines are ``<doc-id><TAB><match>``, one per
per-document match.

``--shards N`` (``find`` / ``aggregate`` / ``update``, with
``--collection``) hash-partitions the corpus into N shards behind a
:class:`repro.store.ShardedCollection` and answers via scatter-gather:
queries fan out per shard (in parallel when the platform supports a
worker pool), aggregation runs map-side per shard and merge-finalizes
at the coordinator.

``--db`` points at a durable database directory instead
(:func:`repro.api.connect`): the named collection (``--name``, default
``main``) is recovered from its snapshot + write-ahead log, and
mutations made by ``update`` are durably committed before the command
reports them.  ``repro db compact`` folds each collection's WAL into a
fresh snapshot.

``repro serve`` exposes a database over TCP (JSON-lines protocol,
snapshot-isolated reads, group-committed writes; see
:mod:`repro.server`), and ``--remote ADDR`` on ``find`` / ``aggregate``
/ ``update`` answers through such a server instead of local files.

Exit status: 0 on success/true, 1 on a false verdict, 2 on usage or
input errors — so the commands compose in shell pipelines.  Every
failure prints one machine-parseable line to stderr::

    error:<TAB><code><TAB><message>

where ``code`` is the stable taxonomy of :mod:`repro.errors`
(``cli.usage`` for bad flag combinations, ``parse.error`` for a
malformed ``--filter``/``--pipeline``/..., ``store.read-only`` for a
degraded engine, and so on).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from typing import Sequence

from repro.errors import ParseError, ReproError, error_code

__all__ = ["main", "build_parser"]

#: Wire-style code for bad flag combinations (not an exception class:
#: usage errors never cross the wire, but the stderr line format is
#: shared with the exception taxonomy).
USAGE_CODE = "cli.usage"


def _fail(code: str, message: str) -> int:
    """Print the uniform ``error:<TAB><code><TAB><message>`` line."""
    print(f"error:\t{code}\t{message}", file=sys.stderr)
    return 2


def _parse_json_arg(name: str, text: str):
    """Parse a JSON command-line argument, naming it on failure."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed {name}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "JSON trees, JNL/JSL logics and JSON Schema from "
            "Bourhis et al., PODS 2017"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_db_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--db",
            metavar="DIR",
            help="durable database directory (repro.api.connect)",
        )
        sub.add_argument(
            "--name",
            default="main",
            metavar="NAME",
            help="collection name inside --db/--remote (default: main)",
        )

    def add_remote_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--remote",
            metavar="ADDR",
            help="answer through a running `repro serve` process at "
            "ADDR (host:port or tcp://host:port)",
        )

    def add_shard_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--shards",
            type=int,
            metavar="N",
            help="hash-partition --collection into N shards and answer "
            "via scatter-gather (parallel where supported)",
        )

    query = commands.add_parser(
        "query", help="evaluate a JNL formula or JSONPath over a document"
    )
    query.add_argument(
        "document", nargs="?", help="path to a JSON file (or use --collection)"
    )
    query.add_argument(
        "--collection",
        metavar="FILE",
        help="JSON-lines corpus: evaluate per document via the planner",
    )
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("--jnl", help="a unary JNL formula (node filter)")
    group.add_argument("--path", help="a binary JNL path (selects nodes)")
    group.add_argument("--jsonpath", help="a JSONPath expression")
    query.add_argument(
        "--node-ids", action="store_true", help="print node ids, not values"
    )
    add_db_options(query)

    validate = commands.add_parser(
        "validate", help="validate a document against a JSON Schema"
    )
    validate.add_argument("document", help="path to a JSON file")
    validate.add_argument("--schema", required=True, help="schema JSON file")
    validate.add_argument(
        "--streaming",
        action="store_true",
        help="validate the raw text as a token stream "
        "(deterministic schemas only)",
    )
    validate.add_argument(
        "--corpus",
        action="store_true",
        help="treat the document file as a JSON array and validate "
        "each element (exit 0 only if every element is valid)",
    )

    find = commands.add_parser(
        "find", help="MongoDB-style find over a JSON array of documents"
    )
    find.add_argument(
        "documents",
        nargs="?",
        metavar="collection",
        help="path to a JSON array file (or use --collection)",
    )
    find.add_argument(
        "--collection",
        metavar="FILE",
        help="JSON-lines corpus: find per document via the planner",
    )
    find.add_argument("--filter", default="{}", help="find filter (JSON)")
    find.add_argument("--project", help="projection document (JSON)")
    find.add_argument(
        "--explain",
        action="store_true",
        help="print the planner report (one JSON Explain document) "
        "instead of results",
    )
    add_db_options(find)
    add_shard_option(find)
    add_remote_option(find)

    aggregate = commands.add_parser(
        "aggregate",
        help="MongoDB-style aggregation pipeline over documents",
    )
    aggregate.add_argument(
        "documents",
        nargs="?",
        metavar="collection",
        help="path to a JSON array file (or use --collection)",
    )
    aggregate.add_argument(
        "--collection",
        metavar="FILE",
        help="JSON-lines corpus: aggregate via the planner "
        "(leading $match stages pruned by the secondary indexes)",
    )
    aggregate.add_argument(
        "--pipeline",
        required=True,
        help="the aggregation pipeline (a JSON array of stages)",
    )
    aggregate.add_argument(
        "--explain",
        action="store_true",
        help="print the stage report (index-pruned vs streamed) "
        "instead of results",
    )
    add_db_options(aggregate)
    add_shard_option(aggregate)
    add_remote_option(aggregate)

    update = commands.add_parser(
        "update",
        help="MongoDB-style update over documents (delta index "
        "maintenance)",
    )
    update.add_argument(
        "documents",
        nargs="?",
        metavar="collection",
        help="path to a JSON array file (or use --collection)",
    )
    update.add_argument(
        "--collection",
        metavar="FILE",
        help="JSON-lines corpus: update via the planner "
        "(targets pruned by the secondary indexes)",
    )
    update.add_argument(
        "--filter", default="{}", help="find filter selecting targets (JSON)"
    )
    update.add_argument(
        "--update",
        required=True,
        help='the update document (JSON), e.g. \'{"$inc": {"age": 1}}\'',
    )
    update.add_argument(
        "--upsert",
        action="store_true",
        help="insert the filter+update document when nothing matches",
    )
    update.add_argument(
        "--one",
        action="store_true",
        help="update only the first matching document (update_one)",
    )
    update.add_argument(
        "--explain",
        action="store_true",
        help="dry run: print pruned-vs-scanned targets and the index "
        "postings the delta would touch, change nothing",
    )
    update.add_argument(
        "--out",
        metavar="FILE",
        help="write the updated corpus back as JSON-lines",
    )
    add_db_options(update)
    add_shard_option(update)
    add_remote_option(update)

    db = commands.add_parser(
        "db", help="manage a durable database directory (WAL + snapshots)"
    )
    db_commands = db.add_subparsers(dest="db_command", required=True)
    compact = db_commands.add_parser(
        "compact",
        help="fold each collection's write-ahead log into a fresh snapshot",
    )
    compact.add_argument("path", help="database directory")
    compact.add_argument(
        "--name", help="compact only this collection (default: all)"
    )
    verify = db_commands.add_parser(
        "verify",
        help="offline integrity check: snapshot checksums, WAL frames, "
        "LSN discipline, replayability (read-only)",
    )
    verify.add_argument("path", help="database directory")
    verify.add_argument(
        "--name", help="verify only this collection (default: all)"
    )
    repair = db_commands.add_parser(
        "repair",
        help="truncate torn WAL tails and quarantine corrupt files "
        "(renames aside, never deletes), then re-verify",
    )
    repair.add_argument("path", help="database directory")
    repair.add_argument(
        "--name", help="repair only this collection (default: all)"
    )

    serve = commands.add_parser(
        "serve",
        help="serve a database over TCP (JSON-lines protocol, "
        "snapshot-isolated reads, group-committed writes)",
    )
    serve.add_argument(
        "path",
        nargs="?",
        help="durable database directory (omit for a volatile "
        "in-memory database)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default: 0 = pick an ephemeral port)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=256,
        metavar="N",
        help="writer group-commit batch ceiling (default: 256)",
    )

    sat = commands.add_parser(
        "sat", help="satisfiability of a JSL/JNL formula or a schema"
    )
    group = sat.add_mutually_exclusive_group(required=True)
    group.add_argument("--jsl", help="a JSL formula or program (text)")
    group.add_argument("--jnl", help="a unary JNL formula (text)")
    group.add_argument("--schema", help="path to a schema JSON file")
    sat.add_argument(
        "--quiet", action="store_true", help="suppress the witness"
    )
    return parser


def _load_tree(path: str):
    from repro.model.tree import JSONTree

    with open(path, encoding="utf-8") as handle:
        return JSONTree.from_json(handle.read())


def _bad_input_combo(args: argparse.Namespace, positional: str) -> bool:
    """Exactly one document source is required.

    The positional file, ``--collection`` (JSON-lines corpus), ``--db``
    (durable database directory) and ``--remote`` (a ``repro serve``
    address) are mutually exclusive.
    """
    remote = getattr(args, "remote", None)
    sources = (
        getattr(args, positional) is not None,
        args.collection is not None,
        getattr(args, "db", None) is not None,
        remote is not None,
    )
    if sum(sources) != 1:
        _fail(
            USAGE_CODE,
            f"give exactly one of a {positional} file, --collection, "
            "--db or --remote",
        )
        return True
    shards = getattr(args, "shards", None)
    if shards is not None:
        if args.collection is None:
            _fail(
                USAGE_CODE,
                "--shards requires --collection "
                "(a JSON-lines corpus to partition)",
            )
            return True
        if shards < 1:
            _fail(USAGE_CODE, "--shards must be at least 1")
            return True
    return False


def _open_corpus(
    args: argparse.Namespace, stack: ExitStack, *, indexed: bool = False
):
    """The collection a command reads and writes, whatever its source.

    ``--remote`` proxies a running server through :mod:`repro.client`;
    ``--db`` recovers the named collection through
    :func:`repro.api.connect`; ``--collection`` loads a JSON-lines
    corpus (strict parsing -- duplicate keys and floats rejected --
    hash-partitioned under ``--shards``); the positional file is a JSON
    array, loaded as a throwaway collection that is ``indexed`` only
    when the command gains from it (for one query, building secondary
    indexes costs more than the single scan they could save).  Whatever
    needs closing -- a connection, a WAL, a worker pool -- is pushed
    onto ``stack``.  Every source answers the same uniform protocol.
    """
    from repro import api

    if getattr(args, "remote", None) is not None:
        from repro.client import connect

        database = stack.enter_context(connect(args.remote))
        return database.collection(args.name)
    if getattr(args, "db", None) is not None:
        database = stack.enter_context(api.connect(args.db))
        return database.collection(args.name)
    if args.collection is not None:
        from repro.model.tree import JSONTree

        with open(args.collection, encoding="utf-8") as handle:
            documents = [
                JSONTree.value_from_json(line)
                for line in handle
                if line.strip()
            ]
        corpus = api.collection(
            documents, shards=getattr(args, "shards", None) or 1
        )
        stack.callback(corpus.close)
        return corpus
    with open(args.documents, encoding="utf-8") as handle:
        documents = json.load(handle)
    if not isinstance(documents, list):
        raise ReproError("the collection file must hold a JSON array")
    return api.collection(documents, indexed=indexed)


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.query import compile_query

    if _bad_input_combo(args, "document"):
        return 2
    if args.jnl:
        query = compile_query(args.jnl, "jnl")
    elif args.jsonpath:
        query = compile_query(args.jsonpath, "jsonpath")
    else:
        query = compile_query(args.path, "jnl-path")

    if args.collection is not None or args.db is not None:
        with ExitStack() as stack:
            return _query_collection(args, query, _open_corpus(args, stack))

    tree = _load_tree(args.document)
    nodes = query.select(tree)  # document order (root first if selected)
    verdict = tree.root in nodes if args.jnl else bool(nodes)
    for node in nodes:
        if args.node_ids:
            print(node)
        else:
            print(tree.to_json(node))
    return 0 if verdict else 1


def _query_collection(args: argparse.Namespace, query, collection) -> int:
    """Per-document matches over a corpus, via the planner."""
    from repro.query import planner

    if args.jnl:
        # A JNL filter matches documents (at the root), like `find`.
        matched = planner.match_ids(collection, query)
        for doc_id in matched:
            if args.node_ids:
                print(doc_id)
            else:
                print(f"{doc_id}\t{collection.get(doc_id).to_json()}")
        return 0 if matched else 1
    any_match = False
    for doc_id, nodes in planner.select_nodes(collection, query):
        tree = collection.get(doc_id) if nodes else None
        for node in nodes:
            any_match = True
            if args.node_ids:
                print(f"{doc_id}\t{node}")
            else:
                print(f"{doc_id}\t{tree.to_json(node)}")
    return 0 if any_match else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.schema.parser import parse_schema

    if args.corpus and args.streaming:
        return _fail(
            USAGE_CODE, "--corpus cannot be combined with --streaming"
        )
    with open(args.schema, encoding="utf-8") as handle:
        schema = parse_schema(handle.read())
    if args.streaming:
        from repro.validate import compile_stream_validator

        validator = compile_stream_validator(schema)
        with open(args.document, encoding="utf-8") as handle:
            verdict = validator.validate_text(handle.read())
    else:
        from repro.validate import compile_schema_validator

        compiled = compile_schema_validator(schema)
        tree = _load_tree(args.document)
        if args.corpus:
            if not tree.is_array(tree.root):
                raise ReproError("--corpus requires a JSON array document")
            verdicts = [
                compiled.validate_tree(tree, child)
                for child in tree.array_children(tree.root)
            ]
            for index, ok in enumerate(verdicts):
                print(f"{index}: {'valid' if ok else 'invalid'}")
            return 0 if all(verdicts) else 1
        verdict = compiled.validate_tree(tree)
    print("valid" if verdict else "invalid")
    return 0 if verdict else 1


def _print_explain(report) -> int:
    """Every ``--explain`` prints one uniform JSON Explain document."""
    print(json.dumps(report.to_json(), indent=2))
    return 0


def _cmd_find(args: argparse.Namespace) -> int:
    if _bad_input_combo(args, "documents"):
        return 2
    filter_doc = _parse_json_arg("--filter", args.filter)
    projection = (
        _parse_json_arg("--project", args.project) if args.project else None
    )
    with ExitStack() as stack:
        corpus = _open_corpus(args, stack)
        if args.explain:
            return _print_explain(corpus.explain(filter_doc))
        if args.collection is not None or args.db is not None:
            # A corpus on local storage has stable ids worth printing.
            rows = corpus.find_rows(filter_doc, projection)
            for doc_id, value in rows:
                print(f"{doc_id}\t{json.dumps(value)}")
        else:
            rows = corpus.find(filter_doc, projection)
            for row in rows:
                print(json.dumps(row))
    return 0 if rows else 1


def _cmd_aggregate(args: argparse.Namespace) -> int:
    if _bad_input_combo(args, "documents"):
        return 2
    pipeline = _parse_json_arg("--pipeline", args.pipeline)
    with ExitStack() as stack:
        corpus = _open_corpus(args, stack)
        if args.explain:
            return _print_explain(corpus.explain_aggregate(pipeline))
        results = corpus.aggregate(pipeline)
    for row in results:
        print(json.dumps(row))
    return 0 if results else 1


def _cmd_update(args: argparse.Namespace) -> int:
    if _bad_input_combo(args, "documents"):
        return 2
    if args.explain and (args.upsert or args.out):
        return _fail(
            USAGE_CODE,
            "--explain is a dry run; it cannot be combined with "
            "--upsert or --out",
        )
    filter_doc = _parse_json_arg("--filter", args.filter)
    update_doc = _parse_json_arg("--update", args.update)
    if args.remote is not None and args.out:
        return _fail(
            USAGE_CODE,
            "--out is a local operation; it cannot be combined "
            "with --remote",
        )
    with ExitStack() as stack:
        corpus = _open_corpus(args, stack, indexed=True)
        if args.explain:
            return _print_explain(
                corpus.explain_update(
                    filter_doc, update_doc, first_only=args.one
                )
            )
        run = corpus.update_one if args.one else corpus.update_many
        result = run(filter_doc, update_doc, upsert=args.upsert)
        upserted = (
            ""
            if result.upserted_id is None
            else f" upserted_id={result.upserted_id}"
        )
        print(
            f"matched={result.matched_count} "
            f"modified={result.modified_count}{upserted}"
        )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                for value in corpus.find({}):
                    handle.write(json.dumps(value) + "\n")
    return 0 if result.matched_count or result.upserted_id is not None else 1


def _print_integrity(report) -> None:
    for check in report.collections:
        docs = "?" if check.documents is None else check.documents
        status = "ok" if check.ok else "CORRUPT"
        print(
            f"{check.name}\t{status} documents={docs} "
            f"wal_frames={check.wal_frames} "
            f"snapshot_lsn={check.snapshot_lsn}"
        )
    for finding in report.findings():
        print(f"  {finding}")


def _cmd_db(args: argparse.Namespace) -> int:
    from repro import api
    from repro.store.fsck import repair, verify

    if args.db_command == "verify":
        report = verify(args.path, args.name)
        _print_integrity(report)
        print("verify: clean" if report.ok else "verify: PROBLEMS FOUND")
        return 0 if report.ok else 1
    if args.db_command == "repair":
        result = repair(args.path, args.name)
        for action in result.actions:
            print(action)
        if not result.actions:
            print("nothing to repair")
        _print_integrity(result.verified)
        print(
            "repair: clean"
            if result.ok
            else "repair: PROBLEMS REMAIN (quarantined files need manual "
            "review)"
        )
        return 0 if result.ok else 1
    with api.connect(args.path) as database:
        reports = database.compact(args.name)
    if not reports:
        print("nothing to compact")
        return 0
    for name, report in sorted(reports.items()):
        print(
            f"{name}\twal_records={report.wal_records} "
            f"wal_bytes={report.wal_bytes} "
            f"snapshot_bytes={report.snapshot_bytes} lsn={report.lsn}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run a server until interrupted (or remotely shut down)."""
    import asyncio

    from repro import api
    from repro.server import serve

    if args.port < 0 or args.port > 65535:
        return _fail(USAGE_CODE, "--port must be in 0..65535")
    if args.max_batch < 1:
        return _fail(USAGE_CODE, "--max-batch must be at least 1")

    def announce(server) -> None:
        host, port = server.address
        where = args.path if args.path is not None else "memory"
        print(f"serving {where} on {host}:{port}", flush=True)

    database = api.connect(args.path)
    try:
        asyncio.run(
            serve(
                database,
                host=args.host,
                port=args.port,
                max_batch=args.max_batch,
                on_ready=announce,
            )
        )
    except KeyboardInterrupt:
        pass
    finally:
        database.close()
    return 0


def _cmd_sat(args: argparse.Namespace) -> int:
    from repro.jsl.satisfiability import jsl_satisfiable

    if args.jsl:
        from repro.jsl.parser import parse_jsl

        result = jsl_satisfiable(parse_jsl(args.jsl))
    elif args.jnl:
        from repro.jnl.parser import parse_jnl
        from repro.jnl.satisfiability import jnl_satisfiable

        result = jnl_satisfiable(parse_jnl(args.jnl))
    else:
        from repro.schema.parser import parse_schema
        from repro.schema.to_jsl import schema_to_jsl

        with open(args.schema, encoding="utf-8") as handle:
            result = jsl_satisfiable(schema_to_jsl(parse_schema(handle.read())))
    if result.satisfiable:
        suffix = "" if result.complete else " (bounded search)"
        print(f"satisfiable{suffix}")
        if not args.quiet and result.witness is not None:
            print(result.witness.to_json())
        return 0
    suffix = "" if result.complete else " (within configured bounds)"
    print(f"unsatisfiable{suffix}")
    return 1


_COMMANDS = {
    "query": _cmd_query,
    "validate": _cmd_validate,
    "find": _cmd_find,
    "aggregate": _cmd_aggregate,
    "update": _cmd_update,
    "db": _cmd_db,
    "serve": _cmd_serve,
    "sat": _cmd_sat,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        if isinstance(exc, ReproError):
            code = error_code(exc)
        elif isinstance(exc, json.JSONDecodeError):
            code = "parse.error"
        else:
            code = "os.error"
        return _fail(code, str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
