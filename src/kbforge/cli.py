"""Command-line entry point: crawl, suite, compare, ensemble, export, popularity.

Configuration comes from an optional JSON file plus flat override flags;
flags win. Paths default to locations under --workspace. Capped crawls are
successful runs (exit 0); only configuration and transport failures exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import crawler, ensemble, export, metrics, popularity
from .embeddings import EmbeddingCache, RemoteEmbedder, TrigramHashEmbedder
from .gateway import BackendDescriptor, GatewayError, MockWorldGateway, RemoteChatGateway
from .model import (
    InputError as CliError,
    KnowledgeBase,
    RunConfig,
    StructuralCategory,
    load_run,
    load_suite,
    load_triples,
    read_input,
    read_json,
    save_run,
    text_value,
    write_atomic,
)

ALL_CATEGORIES = list(StructuralCategory)

CATEGORY_ALIASES = {"ne": StructuralCategory.NAMED_ENTITIES, **{c.value: c for c in ALL_CATEGORIES}}

def _load_config_file(path: Optional[str]) -> dict:
    if not path:
        return {}
    data = read_input("config file", Path(path), read_json)
    if not isinstance(data, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return data


def _pick(cli_value: Optional[str], config: dict, key: str, default: Optional[str]) -> Optional[str]:
    """A text setting: its flag, else its config key, else ``default``."""
    if cli_value is not None:
        return cli_value
    try:
        return text_value(config, key, default)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _run_config(args, config: dict) -> RunConfig:
    # Each crawl flag's dest is the config key it overrides.
    keys = ("topic", "seed", "language", "temperature", "model",
            "max_layers", "max_seconds", "max_triples", "parallelism")
    flat = {**config, **{k: getattr(args, k) for k in keys if getattr(args, k) is not None}}
    if not flat.get("topic") or not flat.get("seed"):
        raise CliError("both a topic and a seed entity are required")
    try:
        run_config = RunConfig.from_flat(flat)
        run_config.validate()
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return run_config


def _gateway(args, config: dict, workspace: Path):
    world = _pick(getattr(args, "world", None), config, "world", None)
    endpoint = _pick(getattr(args, "endpoint", None), config, "endpoint", None)
    audit = _pick(getattr(args, "audit", None), config, "audit", None)
    if world:
        return read_input("world file", Path(world), MockWorldGateway)
    if endpoint:
        # Each crawl sends the model and temperature of its own run config.
        descriptor = BackendDescriptor(endpoint_url=endpoint)
        audit_path = Path(audit) if audit else workspace / "audit.ndjson"
        return RemoteChatGateway(descriptor, audit_path=audit_path)
    raise CliError("select a backend with --world (fixture) or --endpoint (remote)")


def _print_run_summary(record) -> None:
    counts = metrics.yield_counts(record)
    print(f"run_id: {record.run_id}")
    print(f"termination: {record.termination.value}")
    print(f"deepest_layer: {record.deepest_layer}")
    print(f"wall_seconds: {record.wall_seconds:.3f}")
    for category in ALL_CATEGORIES:
        print(f"{category.value}: {counts[category]}")
    if record.degeneracy_events:
        print(f"degeneracy_events: {len(record.degeneracy_events)}")


def cmd_crawl(args) -> int:
    workspace = Path(args.workspace)
    config = _load_config_file(args.config)
    run_config = _run_config(args, config)
    gateway = _gateway(args, config, workspace)

    run_id = args.run_id or crawler.default_run_id(run_config)
    out_dir = Path(args.out) if args.out else workspace / "runs" / run_id
    record = crawler.crawl(run_config, gateway, run_id=run_id)
    save_run(record, out_dir)
    _print_run_summary(record)
    print(f"saved: {out_dir}")
    return 0


def cmd_suite(args) -> int:
    workspace = Path(args.workspace)
    config = _load_config_file(args.config)
    if "runs" not in config or not isinstance(config["runs"], list) or not config["runs"]:
        raise CliError("suite config must define a non-empty 'runs' list")
    dimension = _pick(args.dimension, config, "dimension", "base")
    defaults = config.get("defaults", {})
    if not isinstance(defaults, dict):
        raise CliError("suite 'defaults' must be a JSON object")

    if not all(isinstance(entry, dict) for entry in config["runs"]):
        raise CliError("each suite run entry must be a JSON object")
    # Top-level "model" and "temperature" apply to every run that sets none.
    # Out-of-range values are left to the crawl, which marks that run FAILED.
    base = {key: config[key] for key in ("model", "temperature") if key in config}
    try:
        run_configs = [RunConfig.from_flat({**base, **defaults, **entry}) for entry in config["runs"]]
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    gateway = _gateway(args, config, workspace)
    out_dir = Path(args.out) if args.out else workspace / "suites" / dimension
    try:
        records = crawler.run_suite(run_configs, gateway, out_dir, dimension=dimension)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    ok = sum(1 for r in records if r is not None)
    failed = len(records) - ok
    print(f"suite: {out_dir}")
    print(f"dimension: {dimension}")
    print(f"runs_ok: {ok}")
    if failed:
        print(f"warning: {failed} run(s) failed; see FAILED markers", file=sys.stderr)
    return 0


def _embedding_provider(args):
    # argparse allows only "trigram" and "remote".
    if args.provider != "remote":
        return TrigramHashEmbedder()
    if not args.embed_endpoint:
        raise CliError("remote embedding provider needs --embed-endpoint")
    return RemoteEmbedder(args.embed_endpoint, model_id=args.embed_model)


def _entity_labels(record) -> list[str]:
    return sorted(metrics.category_elements(record, StructuralCategory.NAMED_ENTITIES))


def _bucketize(args, cache: Optional[str], workspace: Path, label_lists) -> list[popularity.BucketAssignment]:
    """Each label list's popularity buckets, from one store and one client.

    ``cache`` is the popularity store's path; it defaults to the workspace's.
    """
    store = read_input("popularity cache", Path(cache) if cache else workspace / popularity.CACHE_NAME,
                       popularity.PopularityStore)
    client = None if args.offline else popularity.WikidataClient(endpoint_url=args.wikidata_endpoint)
    return [
        popularity.bucketize(popularity.resolve_many(labels, client, store, offline=args.offline))
        for labels in label_lists
    ]


def cmd_compare(args) -> int:
    workspace = Path(args.workspace)
    suite_dir = Path(args.suite_dir)
    if not 0.0 < args.tau <= 1.0:
        raise CliError(f"--tau must lie in (0, 1], not {args.tau}")
    records = load_suite(suite_dir)
    if len(records) < 2:
        raise CliError("comparison needs at least two successful runs")

    if args.categories in (None, "all"):
        categories = ALL_CATEGORIES
    else:
        categories = []
        for token in args.categories.split(","):
            token = token.strip().lower()
            if token not in CATEGORY_ALIASES:
                raise CliError(f"unknown category {token!r}")
            if CATEGORY_ALIASES[token] not in categories:
                categories.append(CATEGORY_ALIASES[token])

    provider = _embedding_provider(args)
    cache = read_input("embedding cache", Path(args.cache), EmbeddingCache) if args.cache else None

    assignments = None
    if args.buckets:
        assignments = _bucketize(args, args.popularity_cache, workspace, map(_entity_labels, records))

    try:
        report = metrics.build_stability_report(
            records,
            categories,
            tau=args.tau,
            provider=provider,
            cache=cache,
            suite_id=suite_dir.name or str(suite_dir),
            assignments=assignments,
        )
    except ValueError as exc:  # provider rows of the wrong shape, e.g. not as wide as the cache's
        raise CliError(str(exc)) from exc
    out_dir = Path(args.out) if args.out else suite_dir / "report"
    json_path, csv_path = metrics.write_report(report, out_dir)
    for row in report.rows:
        cv = "n/a" if row.yield_cv is None else f"{row.yield_cv:.4f}"
        print(
            f"{row.category.value}: yield_cv={cv} "
            f"jaccard={row.avg_jaccard:.4f} hausdorff={row.avg_hausdorff:.4f} "
            f"match_pct={row.avg_match_pct:.2f}"
        )
    print(f"report: {json_path}")
    print(f"report: {csv_path}")
    return 0


def cmd_ensemble(args) -> int:
    suite_dir = Path(args.suite_dir)
    records = load_suite(suite_dir)
    if len(records) < 2:
        raise CliError("ensembling needs at least two successful runs")
    if args.k is None and not args.auto:
        raise CliError("choose --k N or --auto")

    curve = ensemble.shared_triple_curve(records)
    if args.auto:
        try:
            k = ensemble.elbow_k(curve)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    else:
        k = args.k
        if not 1 <= k <= len(records):
            raise CliError(f"--k must lie in 1..{len(records)}")

    kb = ensemble.build_ensemble_kb(records, k)
    out_dir = Path(args.out) if args.out else suite_dir / "ensemble"
    ensemble.save_ensemble(out_dir, curve, k, args.auto, len(records), kb)
    print(f"k: {k}")
    print(f"triples: {len(kb)}")
    print(f"saved: {out_dir}")
    return 0


def cmd_export(args) -> int:
    kb_dir = Path(args.kb_dir)
    formats = [f.strip().lower() for f in args.formats.split(",") if f.strip()]
    if not formats:
        raise CliError("no export format given")
    for fmt in formats:
        if fmt not in export.EXPORTERS:
            raise CliError(f"unknown export format {fmt!r} (choose from {', '.join(export.EXPORTERS)})")
    kb = KnowledgeBase(read_input("triples file", kb_dir / "triples.ndjson", load_triples))
    out_dir = Path(args.out) if args.out else kb_dir.parent / (kb_dir.name + "-export")
    try:
        policy = export.IriPolicy(args.namespace) if args.namespace else export.IriPolicy()
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    written = export.export_kb(kb, out_dir, formats, policy=policy)
    for path in written:
        print(f"wrote: {path}")
    return 0


def cmd_popularity(args) -> int:
    workspace = Path(args.workspace)
    if args.labels:
        text = read_input("labels file", Path(args.labels), lambda p: p.read_text(encoding="utf-8"))
        labels = [line.strip() for line in text.splitlines() if line.strip()]
    elif args.run_dir:
        labels = _entity_labels(read_input("run", Path(args.run_dir), load_run))
    else:
        raise CliError("give a run directory or --labels FILE")
    if not labels:
        raise CliError("no entity labels to resolve")

    (assignment,) = _bucketize(args, args.cache, workspace, [labels])
    for name in popularity.BUCKET_NAMES:
        print(f"{name}: {len(assignment.buckets[name])}")
    if args.out:
        payload = {
            name: sorted(members) for name, members in assignment.buckets.items()
        }
        out_path = Path(args.out)
        write_atomic(out_path, [json.dumps(payload, indent=2, ensure_ascii=False) + "\n"])
        print(f"saved: {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbforge",
        description="Materialize topic knowledge bases from a language model and measure their stability.",
    )
    parser.add_argument("--workspace", default=".", help="root for default output paths")
    sub = parser.add_subparsers(dest="command", required=True)

    p_crawl = sub.add_parser("crawl", help="run one knowledge crawl")
    p_crawl.add_argument("--config", help="JSON config file")
    p_crawl.add_argument("--world", help="fixture world file (mock backend)")
    p_crawl.add_argument("--endpoint", help="chat-completions endpoint (remote backend)")
    p_crawl.add_argument("--audit", help="audit log path for remote calls")
    p_crawl.add_argument("--topic", help="topic key for prompt phrasing")
    p_crawl.add_argument("--seed", help="seed entity label")
    p_crawl.add_argument("--language", help="prompt language tag")
    p_crawl.add_argument("--temperature", type=float)
    p_crawl.add_argument("--model", help="model identifier")
    p_crawl.add_argument("--max-layers", type=int, dest="max_layers")
    p_crawl.add_argument("--max-seconds", type=int, dest="max_seconds")
    p_crawl.add_argument("--max-triples", type=int, dest="max_triples")
    p_crawl.add_argument("--parallelism", type=int)
    p_crawl.add_argument("--run-id", dest="run_id")
    p_crawl.add_argument("--out", help="run directory")
    p_crawl.set_defaults(func=cmd_crawl)

    p_suite = sub.add_parser("suite", help="run a suite of crawls")
    p_suite.add_argument("--config", required=True, help="suite JSON config")
    p_suite.add_argument("--world", help="fixture world file (mock backend)")
    p_suite.add_argument("--endpoint", help="chat-completions endpoint")
    p_suite.add_argument("--audit")
    p_suite.add_argument("--dimension", choices=crawler.SUITE_DIMENSIONS)
    p_suite.add_argument("--out", help="suite directory")
    p_suite.set_defaults(func=cmd_suite)

    p_compare = sub.add_parser("compare", help="stability report across a suite")
    p_compare.add_argument("suite_dir")
    p_compare.add_argument("--categories", help="'all' or comma list: ne,literals,predicates,classes,triples")
    p_compare.add_argument("--tau", type=float, default=metrics.DEFAULT_TAU)
    p_compare.add_argument("--provider", choices=["trigram", "remote"])
    p_compare.add_argument("--embed-endpoint", dest="embed_endpoint")
    p_compare.add_argument("--embed-model", dest="embed_model", default="text-embedding-3-small")
    p_compare.add_argument("--cache", help="embedding cache file")
    p_compare.add_argument("--buckets", action="store_true", help="add popularity-bucketed rows")
    p_compare.add_argument("--popularity-cache", dest="popularity_cache")
    p_compare.add_argument("--offline", action="store_true")
    p_compare.add_argument("--wikidata-endpoint", dest="wikidata_endpoint", default=popularity.WIKIDATA_API)
    p_compare.add_argument("--out", help="report directory")
    p_compare.set_defaults(func=cmd_compare)

    p_ens = sub.add_parser("ensemble", help="intersection-ensemble a suite")
    p_ens.add_argument("suite_dir")
    group = p_ens.add_mutually_exclusive_group()
    group.add_argument("--k", type=int)
    group.add_argument("--auto", action="store_true", help="pick k by the elbow heuristic")
    p_ens.add_argument("--out", help="ensemble directory")
    p_ens.set_defaults(func=cmd_ensemble)

    p_export = sub.add_parser("export", help="serialize a run or ensemble KB")
    p_export.add_argument("kb_dir", help="directory containing triples.ndjson")
    p_export.add_argument("--formats", default="csv,sql,ttl,html")
    p_export.add_argument("--namespace", help="base IRI namespace for Turtle")
    p_export.add_argument("--out", help="output directory")
    p_export.set_defaults(func=cmd_export)

    p_pop = sub.add_parser("popularity", help="resolve and bucket entity popularity")
    p_pop.add_argument("run_dir", nargs="?", help="run directory to read entities from")
    p_pop.add_argument("--labels", help="file with one entity label per line")
    p_pop.add_argument("--cache", help="popularity cache file")
    p_pop.add_argument("--offline", action="store_true")
    p_pop.add_argument("--wikidata-endpoint", dest="wikidata_endpoint", default=popularity.WIKIDATA_API)
    p_pop.add_argument("--out", help="write bucket assignment JSON here")
    p_pop.set_defaults(func=cmd_popularity)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, GatewayError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
