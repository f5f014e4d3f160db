import json
import os
import random
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import kbforge
from kbforge import cli, gateway
from kbforge.cli import build_parser, main
from kbforge.gateway import MockWorldGateway, RemoteChatGateway
from kbforge.model import (
    KnowledgeBase,
    RunConfig,
    RunRecord,
    Termination,
    derive_categories,
    load_run,
    load_suite,
    save_run,
)

from conftest import held_bytes, label_objects, synthetic_kb
from fixture_server import LocalServer, chat_ok, closed_port, embeddings_responder


def test_cli_import_leaves_requests_out():
    src = Path(kbforge.__file__).parents[1]
    probe = "import sys, kbforge.cli; print('requests' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


def _invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_one_error_line(code, err, path):
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(path) in err and "Traceback" not in err


def _add_lone_surrogate(run_dir):
    """Give the last triple of a run a subject holding a lone surrogate, which
    ``json.dumps`` writes as the escape "\\udc80"; return the triples file."""
    triples = run_dir / "triples.ndjson"
    lines = triples.read_text(encoding="utf-8").splitlines(keepends=True)
    damaged = json.loads(lines[-1])
    damaged["s"] += "\udc80"
    triples.write_text("".join(lines[:-1]) + json.dumps(damaged) + "\n", encoding="utf-8")
    return triples


def _crawl_args(workspace, world, *extra):
    return (
        "--workspace",
        str(workspace),
        "crawl",
        "--world",
        str(world),
        "--topic",
        "babylon",
        "--seed",
        "Hammurabi",
        "--parallelism",
        "2",
        *extra,
    )


def _write_suite_config(path, world, n_runs=3, seed="Hammurabi"):
    config = {
        "world": str(world),
        "defaults": {"topic": "babylon", "parallelism": 2},
        "runs": [{"seed": seed} for _ in range(n_runs)],
    }
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


@pytest.fixture
def suite_dir(tmp_path, babylon_world_path, capsys):
    config = _write_suite_config(tmp_path / "suite.json", babylon_world_path)
    out = tmp_path / "suites" / "base"
    code, _, _ = _invoke(
        capsys,
        "--workspace",
        str(tmp_path),
        "suite",
        "--config",
        str(config),
        "--out",
        str(out),
    )
    assert code == 0
    return out


class TestCrawlCommand:
    def test_fixture_crawl_reports_organic_run(self, tmp_path, babylon_world_path, capsys):
        code, out, err = _invoke(capsys, *_crawl_args(tmp_path, babylon_world_path))
        assert code == 0
        assert "termination: organic" in out
        assert "named_entities: 37" in out
        saved = [line for line in out.splitlines() if line.startswith("saved: ")]
        assert len(saved) == 1
        run_dir = Path(saved[0].split("saved: ", 1)[1])
        assert run_dir.parent == tmp_path / "runs"
        assert (run_dir / "triples.ndjson").exists()

    def test_capped_crawl_still_exits_zero(self, tmp_path, babylon_world_path, capsys):
        code, out, _ = _invoke(
            capsys, *_crawl_args(tmp_path, babylon_world_path, "--max-layers", "2")
        )
        assert code == 0
        assert "termination: capped_layers" in out

    def test_explicit_out_and_run_id(self, tmp_path, babylon_world_path, capsys):
        out_dir = tmp_path / "here"
        code, out, _ = _invoke(
            capsys,
            *_crawl_args(
                tmp_path, babylon_world_path, "--run-id", "my-run", "--out", str(out_dir)
            ),
        )
        assert code == 0
        assert "run_id: my-run" in out
        assert (out_dir / "triples.ndjson").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["run_id"] == "my-run"

    def test_missing_backend_is_fatal(self, tmp_path, capsys):
        code, _, err = _invoke(
            capsys,
            "--workspace",
            str(tmp_path),
            "crawl",
            "--topic",
            "babylon",
            "--seed",
            "Hammurabi",
        )
        assert code == 1
        assert "--world" in err and "--endpoint" in err

    @pytest.mark.parametrize("given", [[], ["--topic", "babylon"], ["--seed", "Hammurabi"]],
                             ids=["neither", "no-seed", "no-topic"])
    def test_missing_topic_or_seed_is_one_error_line(self, tmp_path, babylon_world_path, capsys, given):
        argv = ["--workspace", str(tmp_path), "crawl", "--world", str(babylon_world_path), *given]
        code, _, err = _invoke(capsys, *argv)
        assert code == 1 and err == "error: both a topic and a seed entity are required\n"
        assert not (tmp_path / "runs").exists()

    def test_remote_without_key_fails_before_writing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("KBFORGE_API_KEY", raising=False)
        code, _, err = _invoke(
            capsys,
            "--workspace",
            str(tmp_path),
            "crawl",
            "--endpoint",
            "http://127.0.0.1:9/v1",
            "--topic",
            "babylon",
            "--seed",
            "Hammurabi",
        )
        assert code == 1
        assert "KBFORGE_API_KEY" in err
        assert not (tmp_path / "runs").exists()

    def test_unreachable_endpoint_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KBFORGE_API_KEY", "test-key")
        code, _, err = _invoke(
            capsys,
            "--workspace",
            str(tmp_path),
            "crawl",
            "--endpoint",
            f"http://127.0.0.1:{closed_port()}",
            "--topic",
            "babylon",
            "--seed",
            "Hammurabi",
        )
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_language_without_templates_sends_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KBFORGE_API_KEY", "test-key")
        with LocalServer(lambda method, path, query, body: chat_ok('{"triples": []}')) as server:
            code, _, err = _invoke(
                capsys,
                "--workspace",
                str(tmp_path),
                "crawl",
                "--endpoint",
                server.url,
                "--language",
                "de",
                "--topic",
                "babylon",
                "--seed",
                "Hammurabi",
            )
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "'de'" in err
        assert server.requests == []
        assert not (tmp_path / "runs").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = _invoke(
            capsys,
            "--workspace",
            str(tmp_path),
            "crawl",
            "--config",
            str(tmp_path / "nope.json"),
        )
        assert code == 1
        assert "config file not found" in err

    def test_config_directory_is_one_error_line(self, tmp_path, capsys):
        code, _, err = _invoke(capsys, "--workspace", str(tmp_path), "crawl", "--config", str(tmp_path))
        _assert_one_error_line(code, err, tmp_path)

    def test_config_file_that_is_not_an_object_is_one_error_line(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text("[1]\n", encoding="utf-8")
        code, _, err = _invoke(capsys, "--workspace", str(tmp_path), "crawl", "--config", str(config))
        assert code == 1 and err == f"error: config file {config} must hold a JSON object\n"

    def test_world_file_that_is_not_json_is_one_error_line(self, tmp_path, capsys):
        world = tmp_path / "world.json"
        world.write_text("facts: none\n", encoding="utf-8")
        code, _, err = _invoke(capsys, *_crawl_args(tmp_path, world))
        _assert_one_error_line(code, err, world)

    def test_world_directory_is_one_error_line(self, tmp_path, capsys):
        code, _, err = _invoke(capsys, *_crawl_args(tmp_path, tmp_path))
        _assert_one_error_line(code, err, tmp_path)

    def test_world_file_that_is_not_an_object_is_one_error_line(self, tmp_path, capsys):
        world = tmp_path / "world.json"
        world.write_text("[1, 2]\n", encoding="utf-8")
        code, _, err = _invoke(capsys, *_crawl_args(tmp_path, world))
        _assert_one_error_line(code, err, world)

    def test_world_file_that_is_not_unicode_is_one_error_line(self, tmp_path, babylon_world_path, capsys):
        world = json.loads(babylon_world_path.read_text(encoding="utf-8"))
        world["facts"]["Hammurabi"].append(["epithet", "Ur\udc80"])
        path = tmp_path / "world.json"
        path.write_text(json.dumps(world), encoding="utf-8")
        code, _, err = _invoke(capsys, *_crawl_args(tmp_path, path))
        _assert_one_error_line(code, err, path)
        assert not (tmp_path / "runs").exists()

    def test_flag_overrides_config_file(self, tmp_path, babylon_world_path, capsys):
        config_path = tmp_path / "c.json"
        config_path.write_text(
            json.dumps(
                {
                    "world": str(babylon_world_path),
                    "topic": "babylon",
                    "seed": "Marduk",
                    "parallelism": 2,
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = _invoke(
            capsys,
            "--workspace",
            str(tmp_path),
            "crawl",
            "--config",
            str(config_path),
            "--seed",
            "Hammurabi",
        )
        assert code == 0
        assert "named_entities: 37" in out

    def test_non_numeric_config_value_is_a_config_error(
        self, tmp_path, babylon_world_path, capsys
    ):
        config_path = tmp_path / "c.json"
        config_path.write_text(
            json.dumps(
                {
                    "world": str(babylon_world_path),
                    "topic": "babylon",
                    "seed": "Hammurabi",
                    "temperature": "hot",
                }
            ),
            encoding="utf-8",
        )
        code, _, err = _invoke(
            capsys, "--workspace", str(tmp_path), "crawl", "--config", str(config_path)
        )
        assert code == 1
        assert err.startswith("error: temperature")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("topic", 5), ("seed", 7), ("language", ["en"]), ("model", 1)],
        ids=["topic", "seed", "language", "model"],
    )
    def test_non_string_config_value_is_a_config_error(
        self, tmp_path, babylon_world_path, capsys, key, value
    ):
        config = {"world": str(babylon_world_path), "topic": "babylon", "seed": "Hammurabi", key: value}
        config_path = tmp_path / "c.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = _invoke(
            capsys, "--workspace", str(tmp_path), "crawl", "--config", str(config_path)
        )
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {key} must be a string")
        assert not (tmp_path / "runs").exists()


class TestBackendSelection:
    def _gateway(self, tmp_path, *argv):
        args = build_parser().parse_args(["--workspace", str(tmp_path), "crawl", *argv])
        return cli._gateway(args, {}, tmp_path)

    def test_world_gives_the_mock_gateway(self, tmp_path, babylon_world_path):
        chosen = self._gateway(tmp_path, "--world", str(babylon_world_path))
        assert isinstance(chosen, MockWorldGateway)
        assert chosen.world_path == babylon_world_path

    def test_endpoint_gives_the_remote_gateway(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KBFORGE_API_KEY", "test-key")
        chosen = self._gateway(tmp_path, "--endpoint", "http://127.0.0.1:9/v1")
        assert isinstance(chosen, RemoteChatGateway)
        assert chosen.session.url == "http://127.0.0.1:9/v1/chat/completions"
        assert chosen.audit.path == tmp_path / "audit.ndjson"

    def test_missing_world_file_is_a_config_error(self, tmp_path):
        with pytest.raises(cli.CliError, match="world file not found"):
            self._gateway(tmp_path, "--world", str(tmp_path / "missing.json"))


class TestBackendKeys:
    """A backend or suite-directory key that is not a string ends in one
    error line, before any request is sent or any run directory written."""

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("crawl", {"world": 5}),
            ("crawl", {"endpoint": 5}),
            ("crawl", {"endpoint": "SERVER", "audit": 5}),
            ("suite", {"endpoint": 5}),
            ("suite", {"endpoint": "SERVER", "dimension": 5}),
            ("suite", {"endpoint": "SERVER", "dimension": ["seed"]}),
        ],
        ids=["crawl-world", "crawl-endpoint", "crawl-audit", "suite-endpoint", "suite-dimension",
             "suite-dimension-list"],
    )
    def test_non_string_key_is_one_error_line(self, tmp_path, capsys, monkeypatch, command, keys):
        monkeypatch.setenv("KBFORGE_API_KEY", "test-key")
        attempts = []
        request = gateway.Session._request
        monkeypatch.setattr(gateway.Session, "_request", lambda *a: attempts.append(a) or request(*a))
        (key, _), = [(k, v) for k, v in keys.items() if not isinstance(v, str)]
        run = {"topic": "babylon", "seed": "Hammurabi"}
        with LocalServer(lambda *_: chat_ok('{"triples": []}')) as server:
            config = {k: server.url if v == "SERVER" else v for k, v in keys.items()}
            config.update(run if command == "crawl" else {"defaults": run, "runs": [{}, {}]})
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            code, _, err = _invoke(capsys, "--workspace", str(tmp_path), command, "--config", str(config_path))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {key} must be a string")
        assert attempts == [] and server.requests == []
        assert not (tmp_path / "runs").exists() and not (tmp_path / "suites").exists()

    @pytest.mark.parametrize("command", ["crawl", "suite"])
    @pytest.mark.parametrize(
        "endpoint, message",
        [
            ("ftp://example.invalid/v1", "not an http(s) URL: 'ftp://example.invalid/v1/chat/completions'"),
            ("http:///v1", "no host in 'http:///v1/chat/completions'"),
            ("http://[::1/v1", "Invalid IPv6 URL"),
            ("http://127.0.0.1:99999/v1", "Port out of range 0-65535"),
        ],
        ids=["ftp", "no-host", "ipv6", "port"],
    )
    def test_malformed_endpoint_is_refused_before_any_request(
        self, tmp_path, capsys, monkeypatch, command, endpoint, message
    ):
        monkeypatch.setenv("KBFORGE_API_KEY", "test-key")
        attempts, slept, opened = [], [], []
        request = gateway.Session._request
        retries = gateway.with_retries
        monkeypatch.setattr(gateway.Session, "_request", lambda *a: attempts.append(a) or request(*a))
        monkeypatch.setattr(
            gateway, "with_retries", lambda attempt, n, sleep, *rest: retries(attempt, n, slept.append, *rest)
        )
        monkeypatch.setattr(socket, "create_connection", lambda address, *a, **kw: opened.append(address))
        config = tmp_path / "suite.json"
        config.write_text(json.dumps({"defaults": {"topic": "babylon", "seed": "Hammurabi"}, "runs": [{}, {}]}))
        run = ["--topic", "babylon", "--seed", "Hammurabi"] if command == "crawl" else ["--config", str(config)]
        code, _, err = _invoke(capsys, "--workspace", str(tmp_path), command, "--endpoint", endpoint, *run)
        assert code == 1
        assert err == f"error: {message}\n"
        assert attempts == [] and slept == [] and opened == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["suite.json"]


class TestSuiteCommand:
    def test_identical_runs_are_byte_identical(self, suite_dir, capsys):
        manifest = json.loads((suite_dir / "suite.json").read_text())
        assert manifest["run_ids"] == ["run-000", "run-001", "run-002"]
        blobs = [
            (suite_dir / rid / "triples.ndjson").read_bytes()
            for rid in manifest["run_ids"]
        ]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_bad_seed_marks_run_failed_but_exits_zero(
        self, tmp_path, babylon_world_path, capsys
    ):
        config = {
            "world": str(babylon_world_path),
            "defaults": {"topic": "babylon", "parallelism": 2},
            "runs": [{"seed": "Hammurabi"}, {"seed": "   "}],
        }
        config_path = tmp_path / "suite.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp_path / "s"
        code, out, err = _invoke(
            capsys,
            "--workspace",
            str(tmp_path),
            "suite",
            "--config",
            str(config_path),
            "--out",
            str(out_dir),
        )
        assert code == 0
        assert "runs_ok: 1" in out
        assert "failed" in err
        assert (out_dir / "run-001" / "FAILED").exists()

    def test_non_numeric_run_value_is_a_config_error(
        self, tmp_path, babylon_world_path, capsys
    ):
        config = {
            "world": str(babylon_world_path),
            "defaults": {"topic": "babylon", "parallelism": 2},
            "runs": [{"seed": "Hammurabi"}, {"seed": "Marduk", "max_layers": "abc"}],
        }
        config_path = tmp_path / "suite.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp_path / "s"
        code, _, err = _invoke(
            capsys,
            "--workspace",
            str(tmp_path),
            "suite",
            "--config",
            str(config_path),
            "--out",
            str(out_dir),
        )
        assert code == 1
        assert err.startswith("error: max_layers")
        assert not out_dir.exists()

    def test_defaults_that_are_not_an_object_are_a_config_error(
        self, tmp_path, babylon_world_path, capsys
    ):
        config = {"world": str(babylon_world_path), "defaults": [1], "runs": [{"seed": "Hammurabi"}]}
        config_path = tmp_path / "suite.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp_path / "s"
        code, _, err = _invoke(
            capsys, "--workspace", str(tmp_path), "suite", "--config", str(config_path), "--out", str(out_dir)
        )
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: suite 'defaults'")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"runs": [{"seed": "Hammurabi"}, 3]}, "each suite run entry must be a JSON object"),
            ({"dimension": "vibes", "runs": [{"seed": "Hammurabi"}]}, "unknown suite dimension 'vibes'"),
        ],
        ids=["run-entry", "dimension"],
    )
    def test_bad_suite_config_is_one_error_line(self, tmp_path, babylon_world_path, capsys, config, message):
        config_path = tmp_path / "suite.json"
        config = {"world": str(babylon_world_path), "defaults": {"topic": "babylon"}, **config}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = _invoke(capsys, "--workspace", str(tmp_path), "suite", "--config", str(config_path))
        assert code == 1 and err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["suite.json"]

    def _remote_suite(self, tmp_path, capsys, monkeypatch, config):
        monkeypatch.setenv("KBFORGE_API_KEY", "test-key")
        with LocalServer(lambda method, path, query, body: chat_ok('{"triples": []}')) as server:
            config = {"endpoint": server.url, "defaults": {"topic": "babylon", "seed": "Hammurabi"}, **config}
            config_path = tmp_path / "suite.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            result = _invoke(
                capsys,
                "--workspace",
                str(tmp_path),
                "suite",
                "--config",
                str(config_path),
                "--out",
                str(tmp_path / "s"),
            )
        sent = [json.loads(body) for _, _, _, body in server.requests]
        return result, [(b["model"], b["temperature"]) for b in sent]

    def test_remote_runs_send_their_own_model_and_temperature(self, tmp_path, capsys, monkeypatch):
        runs = [{"temperature": 0.0}, {"temperature": 1.5, "model": "other-model"}]
        (code, _, _), sent = self._remote_suite(tmp_path, capsys, monkeypatch, {"runs": runs})
        assert code == 0
        # One elicitation per run: the seed answers with no facts. Runs crawl
        # at the same time, so the server sees them in no fixed order.
        expected = [("gpt-4.1-mini", 0.0), ("other-model", 1.5)]
        assert sorted(sent) == sorted(expected)
        assert self._manifest_pairs(tmp_path) == expected

    @staticmethod
    def _manifest_pairs(tmp_path):
        manifests = [json.loads(p.read_text()) for p in sorted((tmp_path / "s").glob("run-*/manifest.json"))]
        return [(m["config"]["model_id"], m["config"]["temperature"]) for m in manifests]

    def test_top_level_model_and_temperature_apply_to_runs_without_their_own(
        self, tmp_path, capsys, monkeypatch
    ):
        config = {"model": "m1", "temperature": 0.7, "runs": [{}, {"temperature": 0.2}]}
        (code, _, _), sent = self._remote_suite(tmp_path, capsys, monkeypatch, config)
        assert code == 0
        expected = [("m1", 0.7), ("m1", 0.2)]
        assert sorted(sent) == sorted(expected)
        assert self._manifest_pairs(tmp_path) == expected

    def test_remote_non_numeric_temperature_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        for config in ({"temperature": "hot", "runs": [{}]}, {"runs": [{"temperature": "hot"}]}):
            (code, _, err), sent = self._remote_suite(tmp_path, capsys, monkeypatch, config)
            assert code == 1
            assert err.startswith("error: temperature")
            assert sent == []

    def test_remote_run_in_a_language_without_templates_is_failed(self, tmp_path, capsys, monkeypatch):
        config = {"runs": [{"language": "de"}]}
        (code, _, err), sent = self._remote_suite(tmp_path, capsys, monkeypatch, config)
        assert code == 0
        assert "failed" in err
        assert "'de'" in (tmp_path / "s" / "run-000" / "FAILED").read_text()
        assert sent == []

    def test_runs_list_is_required(self, tmp_path, capsys):
        config_path = tmp_path / "suite.json"
        config_path.write_text(json.dumps({"runs": []}), encoding="utf-8")
        code, _, err = _invoke(
            capsys,
            "--workspace",
            str(tmp_path),
            "suite",
            "--config",
            str(config_path),
        )
        assert code == 1
        assert "runs" in err


class TestCompareCommand:
    def test_identical_suite_hits_ceilings(self, suite_dir, capsys):
        code, out, _ = _invoke(capsys, "compare", str(suite_dir))
        assert code == 0
        assert "named_entities: yield_cv=0.0000 jaccard=1.0000" in out
        assert "match_pct=100.00" in out
        report = json.loads((suite_dir / "report" / "report.json").read_text())
        assert report["tau"] == 0.95
        ne_row = next(r for r in report["rows"] if r["category"] == "named_entities")
        assert ne_row["yield_cv"] == 0.0
        assert ne_row["avg_jaccard"] == 1.0
        assert ne_row["avg_match_pct"] == 100.0
        assert (suite_dir / "report" / "report.csv").exists()

    def test_category_subset_and_cache(self, suite_dir, tmp_path, capsys):
        cache = tmp_path / "emb.ndjson"
        code, out, _ = _invoke(
            capsys,
            "compare",
            str(suite_dir),
            "--categories",
            "ne,classes",
            "--cache",
            str(cache),
            "--out",
            str(tmp_path / "rep"),
        )
        assert code == 0
        assert cache.exists()
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        assert {r["category"] for r in report["rows"]} == {"named_entities", "classes"}

    def test_a_repeated_category_is_compared_once(self, suite_dir, tmp_path, capsys):
        code, out, _ = _invoke(
            capsys, "compare", str(suite_dir), "--categories", "ne,named_entities,ne", "--out", str(tmp_path / "rep")
        )
        assert code == 0
        assert out.count("named_entities: ") == 1
        report = json.loads((tmp_path / "rep" / "report.json").read_text(encoding="utf-8"))
        assert [r["category"] for r in report["rows"]] == ["named_entities"]
        assert len(report["matrices"]) == 3
        rows = (tmp_path / "rep" / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["category", "named_entities"]]

    def test_unknown_category(self, suite_dir, capsys):
        code, _, err = _invoke(capsys, "compare", str(suite_dir), "--categories", "vibes")
        assert code == 1
        assert "unknown category" in err

    def test_remote_embeddings_embed_each_label_once(self, suite_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KBFORGE_API_KEY", "test-key")
        with LocalServer(embeddings_responder()) as server:
            code, _, err = _invoke(
                capsys, "compare", str(suite_dir), "--provider", "remote",
                "--embed-endpoint", server.url, "--embed-model", "emb-test", "--out", str(tmp_path / "rep"),
            )
        assert code == 0, err
        report = json.loads((tmp_path / "rep" / "report.json").read_text(encoding="utf-8"))
        assert report["provider_id"] == "remote-emb-test"
        sent = [text for _, _, _, body in server.requests for text in json.loads(body)["input"]]
        labels = set().union(
            *(elements for run in ("run-000", "run-001", "run-002")
              for elements in derive_categories(load_run(suite_dir / run).kb).values())
        )
        assert sorted(sent) == sorted(labels)

    def test_remote_embeddings_need_an_endpoint(self, suite_dir, capsys):
        code, _, err = _invoke(capsys, "compare", str(suite_dir), "--provider", "remote")
        assert code == 1
        assert err.splitlines() == ["error: remote embedding provider needs --embed-endpoint"]

    @pytest.mark.parametrize("tau", ["0", "1.5"])
    def test_tau_out_of_range_is_one_error_line(self, suite_dir, capsys, tau):
        code, _, err = _invoke(capsys, "compare", str(suite_dir), "--tau", tau)
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: --tau must lie in (0, 1]")
        assert not (suite_dir / "report").exists()

    def test_single_run_suite_is_rejected(self, tmp_path, babylon_world_path, capsys):
        config = _write_suite_config(tmp_path / "one.json", babylon_world_path, n_runs=1)
        out_dir = tmp_path / "solo"
        code, _, _ = _invoke(
            capsys,
            "--workspace",
            str(tmp_path),
            "suite",
            "--config",
            str(config),
            "--out",
            str(out_dir),
        )
        assert code == 0
        code, _, err = _invoke(capsys, "compare", str(out_dir))
        assert code == 1
        assert "at least two" in err

    def test_offline_buckets_from_prebuilt_cache(self, suite_dir, tmp_path, capsys):
        # Preload a popularity cache so bucketing needs no network.
        cache_path = tmp_path / "pop.ndjson"
        rows = [
            {"entity": "Hammurabi", "qid": "Q36359", "statement_count": 37,
             "resolved_at": "2026-01-01T00:00:00+00:00"},
            {"entity": "Babylon", "qid": "Q5684", "statement_count": 120,
             "resolved_at": "2026-01-01T00:00:00+00:00"},
        ]
        cache_path.write_text(
            "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
        )
        code, out, _ = _invoke(
            capsys,
            "compare",
            str(suite_dir),
            "--categories",
            "ne",
            "--buckets",
            "--offline",
            "--popularity-cache",
            str(cache_path),
            "--out",
            str(tmp_path / "rep"),
        )
        assert code == 0
        report = json.loads((tmp_path / "rep" / "report.json").read_text())
        buckets = {row["bucket"] for row in report["bucket_rows"]}
        assert "NotFound" in buckets
        not_found = next(r for r in report["bucket_rows"] if r["bucket"] == "NotFound")
        assert not_found["pair_count"] == 6

    @pytest.mark.parametrize("flags", [["--cache"], ["--buckets", "--offline", "--popularity-cache"]],
                             ids=["embedding", "popularity"])
    def test_damaged_cache_is_one_error_line(self, suite_dir, tmp_path, capsys, flags):
        cache = tmp_path / "cache.ndjson"
        cache.write_text("{not json\n", encoding="utf-8")
        code, _, err = _invoke(capsys, "compare", str(suite_dir), *flags, str(cache), "--out", str(tmp_path / "rep"))
        _assert_one_error_line(code, err, cache)
        assert not (tmp_path / "rep").exists()

    def test_embedding_cache_line_without_text_is_one_error_line(self, suite_dir, tmp_path, capsys):
        cache = tmp_path / "emb.ndjson"
        cache.write_text(json.dumps({"provider": "trigram-384", "vector": [1.0]}) + "\n", encoding="utf-8")
        code, _, err = _invoke(capsys, "compare", str(suite_dir), "--cache", str(cache))
        _assert_one_error_line(code, err, cache)

    def test_missing_suite_dir(self, tmp_path, capsys):
        code, _, err = _invoke(capsys, "compare", str(tmp_path / "missing"))
        assert code == 1
        assert "suite manifest" in err

    def test_unparsable_suite_manifest_is_one_error_line(self, suite_dir, capsys):
        manifest = suite_dir / "suite.json"
        manifest.write_text("{not json", encoding="utf-8")
        code, _, err = _invoke(capsys, "compare", str(suite_dir), "--offline")
        _assert_one_error_line(code, err, manifest)

    def test_missing_run_directory_is_one_error_line(self, suite_dir, capsys):
        shutil.rmtree(suite_dir / "run-001")
        code, _, err = _invoke(capsys, "compare", str(suite_dir), "--offline")
        _assert_one_error_line(code, err, suite_dir / "run-001")

    @pytest.mark.parametrize(
        "field, value",
        [("s", 5), ("o", None), ("layer", 3.7), ("layer", True), ("o_kind", "x")],
    )
    def test_damaged_triple_line_is_one_error_line(self, suite_dir, capsys, field, value):
        triples = suite_dir / "run-001" / "triples.ndjson"
        lines = triples.read_text(encoding="utf-8").splitlines(keepends=True)
        damaged = json.loads(lines[-1])
        damaged[field] = value
        triples.write_text("".join(lines[:-1]) + json.dumps(damaged) + "\n", encoding="utf-8")
        code, _, err = _invoke(capsys, "compare", str(suite_dir), "--offline")
        _assert_one_error_line(code, err, suite_dir / "run-001")
        assert not (suite_dir / "report").exists()


    @pytest.mark.parametrize("command", [("compare", "--offline"), ("ensemble", "--k", "1")])
    def test_label_that_is_not_unicode_is_one_error_line(self, suite_dir, capsys, command):
        triples = _add_lone_surrogate(suite_dir / "run-001")
        code, _, err = _invoke(capsys, command[0], str(suite_dir), *command[1:])
        _assert_one_error_line(code, err, triples)
        assert not (suite_dir / "report").exists() and not (suite_dir / "ensemble").exists()


def _mark_run_001_failed(suite_dir):
    """List run-001 under the manifest's ``failed`` map, leaving its files whole."""
    manifest = suite_dir / "suite.json"
    payload = json.loads(manifest.read_text(encoding="utf-8"))
    payload["failed"] = {"run-001": "boom"}
    manifest.write_text(json.dumps(payload), encoding="utf-8")


class TestFailedRuns:
    """``compare`` and ``ensemble`` read a suite's runs from its manifest."""

    def test_compare_skips_the_runs_the_manifest_lists_as_failed(self, suite_dir, capsys):
        _mark_run_001_failed(suite_dir)
        code, _, err = _invoke(capsys, "compare", str(suite_dir), "--categories", "ne")
        assert code == 0, err
        report = json.loads((suite_dir / "report" / "report.json").read_text(encoding="utf-8"))
        assert [row["run_ids"] for row in report["rows"]] == [["run-000", "run-002"]]

    def test_ensemble_skips_the_runs_the_manifest_lists_as_failed(self, suite_dir, capsys):
        _mark_run_001_failed(suite_dir)
        code, _, err = _invoke(capsys, "ensemble", str(suite_dir), "--k", "2")
        assert code == 0, err
        assert json.loads((suite_dir / "ensemble" / "ensemble.json").read_text(encoding="utf-8"))["n_runs"] == 2

    @pytest.mark.parametrize("command", [["compare"], ["ensemble", "--k", "1"]], ids=["compare", "ensemble"])
    def test_manifest_without_failed_is_one_error_line(self, suite_dir, capsys, command):
        manifest = suite_dir / "suite.json"
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        del payload["failed"]
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = _invoke(capsys, command[0], str(suite_dir), *command[1:])
        _assert_one_error_line(code, err, manifest)


class TestSuiteLoading:
    """``load_suite``, which ``compare`` and ``ensemble`` use, loads a suite's
    runs through one label table."""

    @staticmethod
    def _overlapping_suite(suite_dir, size, n_runs=4):
        """Runs that each keep a seeded ~80% of one synthetic KB's facts,
        as repeated crawls of one topic overlap."""
        facts = synthetic_kb(size).triples
        run_ids = [f"run-{i:03d}" for i in range(n_runs)]
        for i, run_id in enumerate(run_ids):
            rng = random.Random(i)
            kb = KnowledgeBase(t for t in facts if rng.random() < 0.8)
            config = RunConfig(topic="babylon", seed_entity="Hammurabi")
            save_run(RunRecord(run_id, config, kb, Termination.ORGANIC, 0.0, 0), suite_dir / run_id)
        (suite_dir / "suite.json").write_text(json.dumps({"run_ids": run_ids, "failed": {}}), encoding="utf-8")

    def test_runs_share_one_string_per_label(self, tmp_path):
        self._overlapping_suite(tmp_path, size=500)
        objects = label_objects(run.kb for run in load_suite(tmp_path))
        assert {label: len(ids) for label, ids in objects.items() if len(ids) > 1} == {}

    # Set on CPython 3.11, where this suite (19.1k triples) measures 87 B per
    # triple; with a label table per run and a dedupe index per KB it
    # measured 145 B.
    def test_loaded_suite_fits_its_byte_budget(self, tmp_path):
        self._overlapping_suite(tmp_path, size=6000)
        runs, used = held_bytes(lambda: load_suite(tmp_path))
        assert used / sum(len(run.kb) for run in runs) < 105


class TestEnsembleCommand:
    def test_fixed_k_equals_union_for_identical_runs(self, suite_dir, capsys):
        code, out, _ = _invoke(capsys, "ensemble", str(suite_dir), "--k", "1")
        assert code == 0
        assert "k: 1" in out
        payload = json.loads((suite_dir / "ensemble" / "ensemble.json").read_text())
        assert payload["k"] == 1
        assert payload["n_runs"] == 3
        run_count = sum(
            1
            for _ in (suite_dir / "run-000" / "triples.ndjson")
            .read_text(encoding="utf-8")
            .splitlines()
        )
        assert payload["triple_count"] == run_count
        elbow = (suite_dir / "ensemble" / "elbow.csv").read_text(encoding="utf-8")
        assert elbow.splitlines()[0] == "k,shared_count"

    def test_auto_on_flat_curve_picks_one(self, suite_dir, tmp_path, capsys):
        code, out, _ = _invoke(
            capsys, "ensemble", str(suite_dir), "--auto", "--out", str(tmp_path / "ens")
        )
        assert code == 0
        payload = json.loads((tmp_path / "ens" / "ensemble.json").read_text())
        # Identical runs give a flat curve; ties resolve to the smallest k.
        assert payload["k"] == 1
        assert payload["auto"] is True

    def test_k_out_of_range(self, suite_dir, capsys):
        code, _, err = _invoke(capsys, "ensemble", str(suite_dir), "--k", "9")
        assert code == 1
        assert "--k must lie" in err

    def test_requires_a_choice(self, suite_dir, capsys):
        code, _, err = _invoke(capsys, "ensemble", str(suite_dir))
        assert code == 1
        assert "--k N or --auto" in err

    @pytest.mark.parametrize(
        "n_runs, flags, message",
        [
            (1, ["--k", "1"], "ensembling needs at least two successful runs"),
            (2, ["--auto"], "elbow needs at least three points"),
        ],
        ids=["one-run", "auto-two-runs"],
    )
    def test_too_few_runs_is_one_error_line(self, tmp_path, babylon_world_path, capsys, n_runs, flags, message):
        config = _write_suite_config(tmp_path / "suite.json", babylon_world_path, n_runs=n_runs)
        out_dir = tmp_path / "s"
        assert _invoke(capsys, "suite", "--config", str(config), "--out", str(out_dir))[0] == 0
        code, _, err = _invoke(capsys, "ensemble", str(out_dir), *flags)
        assert code == 1 and err == f"error: {message}\n"
        assert not (out_dir / "ensemble").exists()

    def test_suite_manifest_without_run_ids_is_one_error_line(self, suite_dir, capsys):
        manifest = suite_dir / "suite.json"
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        del payload["run_ids"]
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = _invoke(capsys, "ensemble", str(suite_dir), "--k", "1")
        _assert_one_error_line(code, err, manifest)


class TestExportCommand:
    def test_exports_run_directory(self, suite_dir, tmp_path, capsys):
        run_dir = suite_dir / "run-000"
        out_dir = tmp_path / "exported"
        code, out, _ = _invoke(
            capsys, "export", str(run_dir), "--out", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "kb.csv").exists()
        assert (out_dir / "kb.sql").exists()
        assert (out_dir / "kb.ttl").exists()
        assert (out_dir / "html" / "index.html").exists()
        assert out.count("wrote: ") == 4

    def test_default_out_is_sibling_directory(self, suite_dir, capsys):
        run_dir = suite_dir / "run-001"
        code, _, _ = _invoke(capsys, "export", str(run_dir), "--formats", "csv")
        assert code == 0
        assert (suite_dir / "run-001-export" / "kb.csv").exists()

    def test_unknown_format(self, suite_dir, capsys):
        code, _, err = _invoke(
            capsys, "export", str(suite_dir / "run-000"), "--formats", "pdf"
        )
        assert code == 1
        assert "unknown export format" in err

    def test_directory_without_triples(self, tmp_path, capsys):
        code, _, err = _invoke(capsys, "export", str(tmp_path))
        assert code == 1
        assert "triples.ndjson" in err

    def test_truncated_triple_line_is_one_error_line(self, suite_dir, capsys):
        triples = suite_dir / "run-000" / "triples.ndjson"
        lines = triples.read_text(encoding="utf-8").splitlines(keepends=True)
        triples.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2], encoding="utf-8")
        code, _, err = _invoke(capsys, "export", str(suite_dir / "run-000"))
        _assert_one_error_line(code, err, triples)

    def test_label_that_is_not_unicode_is_one_error_line(self, suite_dir, tmp_path, capsys):
        run_dir, out_dir = suite_dir / "run-000", tmp_path / "exported"
        assert _invoke(capsys, "export", str(run_dir), "--formats", "csv", "--out", str(out_dir))[0] == 0
        before = (out_dir / "kb.csv").read_bytes()
        triples = _add_lone_surrogate(run_dir)
        code, out, err = _invoke(capsys, "export", str(run_dir), "--formats", "csv", "--out", str(out_dir))
        _assert_one_error_line(code, err, triples)
        assert out == "" and (out_dir / "kb.csv").read_bytes() == before

    def test_no_format_is_one_error_line(self, suite_dir, tmp_path, capsys):
        out_dir = tmp_path / "exported"
        code, out, err = _invoke(capsys, "export", str(suite_dir / "run-000"), "--formats", ",", "--out", str(out_dir))
        assert code == 1
        assert err == "error: no export format given\n" and out == ""
        assert not out_dir.exists()

    def test_bad_namespace(self, suite_dir, capsys):
        code, _, err = _invoke(
            capsys,
            "export",
            str(suite_dir / "run-000"),
            "--namespace",
            "not-an-iri",
        )
        assert code == 1
        assert "error" in err


class TestPopularityCommand:
    def test_offline_bucketing_of_run_entities(self, suite_dir, tmp_path, capsys):
        out_path = tmp_path / "buckets.json"
        code, out, _ = _invoke(
            capsys,
            "--workspace",
            str(tmp_path),
            "popularity",
            str(suite_dir / "run-000"),
            "--offline",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert "NotFound: 37" in out
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert len(payload["NotFound"]) == 37
        assert payload["Q1"] == []

    def test_labels_file_with_cache(self, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("Hammurabi\nBabylon\n", encoding="utf-8")
        cache = tmp_path / "pop.ndjson"
        rows = [
            {"entity": "Hammurabi", "qid": "Q36359", "statement_count": 37,
             "resolved_at": "2026-01-01T00:00:00+00:00"},
            {"entity": "Babylon", "qid": "Q5684", "statement_count": 120,
             "resolved_at": "2026-01-01T00:00:00+00:00"},
        ]
        cache.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        code, out, _ = _invoke(
            capsys,
            "popularity",
            "--labels",
            str(labels),
            "--cache",
            str(cache),
            "--offline",
        )
        assert code == 0
        assert "NotFound: 0" in out
        assert "Q1: 1" in out

    def test_missing_run_directory_is_one_error_line(self, tmp_path, capsys):
        code, _, err = _invoke(capsys, "popularity", str(tmp_path / "missing"), "--offline")
        _assert_one_error_line(code, err, tmp_path / "missing")

    def test_damaged_run_directory_is_one_error_line(self, suite_dir, capsys):
        manifest = suite_dir / "run-000" / "manifest.json"
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        del payload["termination"]
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = _invoke(capsys, "popularity", str(suite_dir / "run-000"), "--offline")
        _assert_one_error_line(code, err, suite_dir / "run-000")

    def test_labels_file_of_blank_lines_is_one_error_line(self, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("\n  \n\t\n", encoding="utf-8")
        code, _, err = _invoke(capsys, "--workspace", str(tmp_path), "popularity", "--labels", str(labels), "--offline")
        assert code == 1 and err == "error: no entity labels to resolve\n"
        assert [p.name for p in tmp_path.iterdir()] == ["labels.txt"]

    def test_labels_directory_is_one_error_line(self, tmp_path, capsys):
        code, _, err = _invoke(capsys, "popularity", "--labels", str(tmp_path), "--offline")
        _assert_one_error_line(code, err, tmp_path)

    def test_damaged_cache_is_one_error_line(self, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("Hammurabi\n", encoding="utf-8")
        cache = tmp_path / "pop.ndjson"
        cache.write_text("{not json\n", encoding="utf-8")
        code, _, err = _invoke(capsys, "popularity", "--labels", str(labels), "--cache", str(cache), "--offline")
        _assert_one_error_line(code, err, cache)

    def test_out_that_is_a_directory_is_one_error_line(self, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("Hammurabi\n", encoding="utf-8")
        code, _, err = _invoke(
            capsys, "--workspace", str(tmp_path), "popularity", "--labels", str(labels), "--offline", "--out", str(tmp_path)
        )
        _assert_one_error_line(code, err, tmp_path)

    def test_a_failed_out_write_keeps_the_previous_file(self, tmp_path, capsys, monkeypatch):
        labels = tmp_path / "labels.txt"
        labels.write_text("Hammurabi\n", encoding="utf-8")
        out_path = tmp_path / "buckets.json"
        args = ("--workspace", str(tmp_path), "popularity", "--labels", str(labels), "--offline", "--out", str(out_path))
        assert _invoke(capsys, *args)[0] == 0
        before = out_path.read_bytes()
        labels.write_text("Babylon\n", encoding="utf-8")
        # A disk that fills up: a file opened for writing takes no text.
        real_open = Path.open

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

            def write(self, text):
                raise OSError("disk full")

            writelines = write

        def open_(path, mode="r", *args, **kwargs):
            handle = real_open(path, mode, *args, **kwargs)
            return FullDisk(handle) if "w" in mode else handle

        monkeypatch.setattr(Path, "open", open_)
        code, _, err = _invoke(capsys, *args)
        assert code == 1 and err == "error: disk full\n"
        assert out_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["buckets.json", "labels.txt"]

    def test_requires_some_input(self, tmp_path, capsys):
        code, _, err = _invoke(capsys, "--workspace", str(tmp_path), "popularity")
        assert code == 1
        assert "run directory" in err
