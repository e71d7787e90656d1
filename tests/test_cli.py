import http.client
import json
import os
import re
import select
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import doorsim
from doorsim import cli
from doorsim.backends import DEFAULT_PROFILES
from doorsim.cli import main
from doorsim.cloud import CloudService
from doorsim.cloud.httpd import CloudHTTPServer
from doorsim.cloud.service import ApiRequest
from doorsim.dataset import load_manifest
from doorsim.model import canonical_json


@pytest.fixture()
def dataset_path(tmp_path):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({
        "scenarios": ["animal_detection", "unsafe_content"],
        "positives": 15,
        "seed": 5,
    }))
    out = tmp_path / "data.ndjson"
    assert main(["gen-dataset", "--config", str(config), "--out", str(out)]) == 0
    return out


def experiment_config(tmp_path, dataset_path, **overrides):
    payload = {
        "dataset": str(dataset_path),
        "backend_id": "aws-saas",
        "threshold": 70.0,
        "seed": 9,
        **overrides,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    return path


class TestGenDataset:
    def test_writes_manifest(self, dataset_path):
        lines = dataset_path.read_text().strip().splitlines()
        assert len(lines) == 60  # 15 positives + 15 negatives per scenario
        assert all("frame_id" in json.loads(line) for line in lines)

    def test_missing_config_is_validation_error(self, tmp_path, capsys):
        assert main(["gen-dataset", "--config", str(tmp_path / "missing.json")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("document,named", [
        ({"positives": "abc"}, "positives must be an integer"),
        ({"scenarios": "animal_detection"}, "scenarios must be an array"),
        ({"scenarios": ["animal"]}, "an item of scenarios must be one of"),
        ({"devices": "door-1"}, "devices must be an array"),
        ([1], "must be a JSON object"),
        ({"positive": 3, "scenarios": ["animal_detection"]}, "unknown key 'positive'"),
    ], ids=["positives_not_a_number", "scenarios_a_string", "unknown_scenario",
            "devices_a_string", "top_level_array", "unknown_key"])
    def test_malformed_config_exits_1_with_message(self, tmp_path, capsys, document, named):
        config = tmp_path / "gen.json"
        config.write_text(json.dumps(document))
        out = tmp_path / "data.ndjson"
        assert main(["gen-dataset", "--config", str(config), "--out", str(out),
                     "--seed", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad generator config: ") and named in err
        assert "Traceback" not in err
        assert not out.exists()


class TestEvaluate:
    def test_writes_report_and_csv(self, tmp_path, dataset_path, capsys):
        config = experiment_config(tmp_path, dataset_path)
        report = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        code = main(["evaluate", "--config", str(config),
                     "--out", str(report), "--csv", str(csv_path)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["backend_id"] == "aws-saas"
        assert set(doc["scenario_metrics"]) == {"animal_detection", "unsafe_content"}
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",")[:6] == ["backend", "scenario", "tp", "fn", "fp", "tn"]
        assert "accuracy" in capsys.readouterr().out

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["evaluate", "--config", str(tmp_path / "missing.json")]) == 1

    @pytest.mark.parametrize("overrides,named", [
        ({"threshold": "abc"}, "threshold must be a finite number"),
        ({"retry": {"tries": 2}}, "'tries'"),
        ({"sampling": {"rate": 2}}, "'rate'"),
        ({"network": {"delay": 2}}, "'delay'"),
        ({"enroll": {"alice": "boss"}}, "enroll.alice must be one of family"),
        ({"scripts": [{"entries": [{"at": 0, "frame_id": "f0"}]}]}, "device_id is required"),
        ({"network": {"seed": 5}}, "'seed'"),
        ({"thresold": 10}, "'thresold'"),
    ], ids=["threshold_not_a_number", "unknown_retry_key", "unknown_sampling_key",
            "unknown_network_key", "unknown_enroll_category", "script_without_device_id",
            "network_seed", "unknown_top_level_key"])
    def test_malformed_config_exits_1_with_message(self, tmp_path, dataset_path, capsys,
                                                   overrides, named):
        config = experiment_config(tmp_path, dataset_path, **overrides)
        report = tmp_path / "report.json"
        assert main(["evaluate", "--config", str(config), "--out", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad experiment config: ") and named in err
        assert "Traceback" not in err
        assert not report.exists()

    @pytest.mark.parametrize("content,message", [
        (b'{"dataset": ', "Expecting value: line 1 column 13 (char 12)"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["truncated", "not_utf8"])
    def test_unreadable_config_exits_1_naming_the_file(self, tmp_path, capsys, content, message):
        config = tmp_path / "exp.json"
        config.write_bytes(content)
        report = tmp_path / "report.json"
        assert main(["evaluate", "--config", str(config), "--out", str(report)]) == 1
        assert capsys.readouterr().err == f"error: bad experiment config: {config}: {message}\n"
        assert not report.exists()

    @pytest.mark.parametrize("command,what", [("evaluate", "experiment config"),
                                              ("gen-dataset", "generator config")])
    def test_config_that_is_a_directory_exits_1_naming_it(self, tmp_path, capsys, command, what):
        config = tmp_path / "config.json"
        config.mkdir()
        out = tmp_path / "out.json"
        assert main([command, "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: bad {what}: {config}: [Errno 21] Is a directory: '{config}'\n")
        assert not out.exists()
        assert main([command, "--config", str(tmp_path / "missing.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: config file not found: {tmp_path / 'missing.json'}\n")

    @pytest.mark.parametrize("content,message", [
        (b'{"device_id": "door-1", "entries": [', "Expecting value: line 1 column 37 (char 36)"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["truncated", "not_utf8"])
    def test_unreadable_script_file_exits_1_naming_it(self, tmp_path, dataset_path, capsys,
                                                      content, message):
        script = tmp_path / "script.json"
        script.write_bytes(content)
        config = experiment_config(tmp_path, dataset_path, scripts=[str(script)])
        report = tmp_path / "report.json"
        assert main(["evaluate", "--config", str(config), "--out", str(report)]) == 1
        assert capsys.readouterr().err == (
            f"error: bad experiment config: bad motion script: {script}: {message}\n")
        assert not report.exists()

    @pytest.mark.parametrize("make", [lambda path: None, Path.mkdir], ids=["missing", "directory"])
    def test_unreadable_dataset_exits_2_naming_it(self, tmp_path, capsys, make):
        data = tmp_path / "nope.ndjson"
        make(data)
        config = experiment_config(tmp_path, data)
        report = tmp_path / "report.json"
        assert main(["evaluate", "--config", str(config), "--out", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: [Errno ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not report.exists()

    def test_top_level_array_exits_1_with_message(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps([{"backend_id": "haar"}]))
        assert main(["evaluate", "--config", str(config), "--out",
                     str(tmp_path / "report.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad experiment config: ") and "JSON object" in err

    def test_malformed_network_with_seed_flag_exits_1_with_message(self, tmp_path,
                                                                    dataset_path, capsys):
        config = experiment_config(tmp_path, dataset_path, network=5)
        report = tmp_path / "report.json"
        assert main(["evaluate", "--config", str(config), "--out", str(report),
                     "--seed", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad experiment config: ") and "network must be an object" in err
        assert "Traceback" not in err
        assert not report.exists()

    def test_same_argv_is_byte_identical(self, tmp_path, dataset_path):
        config = experiment_config(tmp_path, dataset_path)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["evaluate", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["evaluate", "--config", str(config), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path, dataset_path):
        config = experiment_config(tmp_path, dataset_path)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["evaluate", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["evaluate", "--config", str(config), "--out", str(out_b),
                     "--seed", "77"]) == 0
        assert json.loads(out_a.read_text()) != json.loads(out_b.read_text())


class TestSimulate:
    def test_prints_counters(self, tmp_path, dataset_path, capsys):
        config = experiment_config(tmp_path, dataset_path, backend_id="haar")
        assert main(["simulate", "--config", str(config)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["counters"]["events"] == 60
        assert summary["counters"]["ingested"] == 60


class TestCompare:
    def test_writes_sorted_table(self, tmp_path, dataset_path, capsys):
        config = tmp_path / "compare.json"
        config.write_text(json.dumps({
            "dataset": str(dataset_path),
            "backend_ids": ["haar", "aws-saas"],
            "threshold": 70.0,
            "seed": 9,
        }))
        out = tmp_path / "compare.csv"
        assert main(["compare", "--config", str(config), "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0].startswith("backend,scenario")
        assert len(rows) == 3
        assert rows[1].startswith("aws-saas")

    def test_needs_two_backends(self, tmp_path, dataset_path):
        config = tmp_path / "compare.json"
        config.write_text(json.dumps({
            "dataset": str(dataset_path), "backend_ids": ["haar"],
        }))
        assert main(["compare", "--config", str(config)]) == 1

    @pytest.mark.parametrize("document", [[1], "compare", None],
                             ids=["array", "string", "null"])
    def test_non_object_config_exits_1_with_message(self, tmp_path, capsys, document):
        config = tmp_path / "compare.json"
        config.write_text(json.dumps(document))
        out = tmp_path / "compare.csv"
        assert main(["compare", "--config", str(config), "--out", str(out),
                     "--seed", "3"]) == 1
        err = capsys.readouterr().err
        assert err == "error: bad config: the document must be a JSON object\n"
        assert not out.exists()


class TestServerCommands:
    @pytest.fixture()
    def server(self):
        service = CloudService(seed=3)
        httpd = CloudHTTPServer(("127.0.0.1", 0), service)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{httpd.server_address[1]}", service
        httpd.shutdown()
        httpd.server_close()

    def test_enroll_then_query_against_server(self, tmp_path, server, capsys):
        base, service = server
        enroll_config = tmp_path / "enroll.json"
        enroll_config.write_text(json.dumps({
            "faces": {"alice": "family", "bob": "friend"},
        }))
        assert main(["enroll", "--config", str(enroll_config), "--server", base]) == 0
        assert len(service.collections["default"]) == 2
        assert "enrolled alice as family" in capsys.readouterr().out

        assert main(["query", "--kind", "daily-snapshot", "--device", "door-1",
                     "--server", base]) == 0
        assert "No activity" in capsys.readouterr().out

    def test_range_query_over_http(self, server, capsys):
        base, _ = server
        assert main(["query", "--kind", "range-query", "--device", "door-1",
                     "--from", "0", "--to", "5000", "--server", base]) == 0
        assert "0 records at door-1 in [0, 5000] ms." in capsys.readouterr().out

    def test_range_query_without_to_ends_at_service_clock(self, server, capsys):
        base, service = server
        service.advance_clock(9000)
        assert main(["query", "--kind", "range-query", "--device", "door-1",
                     "--from", "100", "--server", base]) == 0
        assert "0 records at door-1 in [100, 9000] ms." in capsys.readouterr().out

    def test_range_query_without_from_starts_at_zero(self, server, capsys):
        base, _ = server
        assert main(["query", "--kind", "range-query", "--device", "door-1",
                     "--to", "700", "--server", base]) == 0
        assert "0 records at door-1 in [0, 700] ms." in capsys.readouterr().out

    def test_rejected_query_exits_1_with_server_message(self, server, capsys):
        base, _ = server
        assert main(["query", "--kind", "range-query", "--device", "door-1",
                     "--from", "5000", "--to", "100", "--server", base]) == 1
        assert "range from must be <= to" in capsys.readouterr().err

    def test_a_body_nested_too_deep_for_json_is_a_protocol_error(self, server):
        base, _ = server
        depth = 100_000  # json.loads raises RecursionError, not ValueError
        request = urllib.request.Request(base + "/ingest", data=b"[" * depth + b"]" * depth,
                                         headers={"content-type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request)
        with caught.value as reply:
            assert reply.code == 400
            assert json.loads(reply.read()) == {
                "ok": False, "error": {"code": "protocol", "message": "body is not JSON"}}

    @pytest.mark.parametrize("query,parsed", [
        ("device=door-1&to=x&to=700", {"device": "door-1", "to": "700"}),
        ("device=%ff&to=700", {"device": "\ufffd", "to": "700"}),
    ], ids=["a-repeated-key-keeps-its-last-value", "a-non-utf8-escape-is-u+fffd"])
    def test_a_query_string_is_answered_as_handle_answers_its_parse(self, server, query,
                                                                     parsed):
        base, service = server
        received, real_handle = [], service.handle

        def recording(request):
            received.append(request.query)
            return real_handle(request)

        service.handle = recording
        expected = CloudService(seed=3).handle(ApiRequest("GET", "/activities", query=parsed))
        assert expected.status == 200
        with urllib.request.urlopen(f"{base}/activities?{query}") as reply:
            assert reply.status == expected.status
            assert json.loads(reply.read()) == expected.body
        assert received == [parsed]

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH"])
    def test_every_method_gets_the_in_process_envelope(self, server, method):
        base, _ = server
        expected = CloudService(seed=3).handle(ApiRequest(method, "/ingest"))
        assert expected.status == 404
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(urllib.request.Request(base + "/ingest", method=method))
        with caught.value as reply:
            assert reply.code == expected.status
            assert reply.headers["content-type"] == "application/json"
            assert json.loads(reply.read()) == expected.body

    def test_head_gets_the_envelope_headers_and_no_body(self, server):
        base, _ = server
        expected = CloudService(seed=3).handle(ApiRequest("HEAD", "/activities"))
        connection = http.client.HTTPConnection(base.removeprefix("http://"))
        try:
            connection.request("HEAD", "/activities")
            reply = connection.getresponse()
            assert reply.status == expected.status == 404
            assert reply.getheader("content-type") == "application/json"
            assert int(reply.getheader("content-length")) == len(
                canonical_json(expected.body).encode("utf-8"))
            assert reply.read() == b""
        finally:
            connection.close()

    @pytest.mark.parametrize("command", ["enroll", "serve-cloud"])
    def test_non_object_config_exits_1_with_message(self, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_text(json.dumps([{"port": 0}]))
        assert main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == "error: bad config: the document must be a JSON object\n"

    def test_query_unreachable_server_exits_2(self):
        assert main(["query", "--kind", "latest-activity", "--device", "door-1",
                     "--server", "http://127.0.0.1:1"]) == 2


class TestUsage:
    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "gen-dataset" in capsys.readouterr().out


def _profile(**changes):
    """The shipped aws-saas profile as a registry entry, with ``changes``."""
    entry = DEFAULT_PROFILES["aws-saas"].to_dict()
    entry.update(changes)
    return entry


def _no_category():
    entry = _profile()
    del entry["category"]
    return entry


def _script(**entry):
    return {"device_id": "door-1", "entries": [{"at": 0, "frame_id": "f0", **entry}]}


MISSING_FILE = "no-such-directory/missing.json"  # relative: the message names it as written

# (command, config document, profile registry or None, the whole of stderr).
# The evaluate and compare documents also get the fixture dataset's path.
MALFORMED_DOCUMENTS = {
    "threshold_a_string": ("evaluate", {"threshold": "70"}, None,
                           "bad experiment config: threshold must be a finite number"),
    "seed_true": ("evaluate", {"seed": True}, None,
                  "bad experiment config: seed must be an integer"),
    "seed_a_fraction": ("evaluate", {"seed": 1.9}, None,
                        "bad experiment config: seed must be an integer"),
    "debounce_a_string": ("evaluate", {"debounce_ms": "5"}, None,
                          "bad experiment config: debounce_ms must be an integer"),
    "dataset_a_number": ("evaluate", {"dataset": 5}, None,
                         "bad experiment config: dataset must be a string"),
    "profiles_a_number": ("evaluate", {"profiles": 5}, None,
                          "bad experiment config: profiles must be a string"),
    "retry_attempts_a_string": ("evaluate", {"retry": {"max_attempts": "3"}}, None,
                                "bad experiment config: max_attempts must be an integer"),
    "network_delay_a_fraction": ("evaluate", {"network": {"base_delay_ms": 1.5}}, None,
                                 "bad experiment config: base_delay_ms must be an integer"),
    "network_delay_negative": ("evaluate", {"network": {"base_delay_ms": -1}}, None,
                               "bad experiment config: delays must be non-negative"),
    "sampling_interval_a_string": ("evaluate", {"sampling": {"min_interval_ms": "0"}}, None,
                                   "bad experiment config: min_interval_ms must be an integer"),
    "script_a_number": ("evaluate", {"scripts": [5]}, None,
                        "bad experiment config: a motion script must be a JSON object"),
    "script_time_a_string": ("evaluate", {"scripts": [_script(at="5")]}, None,
                             "bad experiment config: at must be an integer"),
    "script_entry_unknown_key": ("evaluate", {"scripts": [_script(when=5)]}, None,
                                 "bad experiment config: unknown key 'when' in an item of entries"),
    "script_file_missing": (
        "evaluate", {"scripts": [MISSING_FILE]}, None,
        f"bad experiment config: bad motion script: {MISSING_FILE}: "
        f"[Errno 2] No such file or directory: '{MISSING_FILE}'"),
    "two_scripts_for_one_device": (
        "evaluate", {"scripts": [_script(), _script(at=5)]}, None,
        "bad experiment config: scripts: more than one motion script for device door-1"),
    "enroll_an_array": ("evaluate", {"enroll": [1]}, None,
                        "bad experiment config: enroll must be an object"),
    "enroll_unknown": ("evaluate", {"enroll": {"alice": "unknown"}}, None,
                       "bad experiment config: enroll.alice: cannot enroll an identity as unknown"),
    "threshold_out_of_range": ("evaluate", {"threshold": 150}, None,
                               "bad experiment config: threshold out of [0, 100]: 150.0"),
    "profile_without_category": (
        "evaluate", {}, [_no_category()],
        "bad experiment config: bad profile registry: category is required"),
    "profile_a_number": (
        "evaluate", {}, [5],
        "bad experiment config: bad profile registry: a profile must be a JSON object"),
    "profile_unknown_key": (
        "evaluate", {}, [_profile(speed=1)],
        "bad experiment config: bad profile registry: unknown key 'speed' in a profile"),
    "confidence_unknown_key": (
        "evaluate", {}, [_profile(confidence_model={"mean": 80.0})],
        "bad experiment config: bad profile registry: unknown key 'mean' in confidence_model"),
    "profiles_file_missing": (
        "evaluate", {"profiles": MISSING_FILE}, None,
        f"bad experiment config: bad profile registry: {MISSING_FILE}: "
        f"[Errno 2] No such file or directory: '{MISSING_FILE}'"),
    "recall_out_of_range": (
        "evaluate", {}, [_profile(per_scenario_recall={"face_recognition": 1.5})],
        "bad experiment config: bad profile registry: "
        "recall out of [0, 1] for face_recognition: 1.5"),
    "compare_profiles_file_missing": (
        "compare", {"profiles": MISSING_FILE, "backend_ids": ["haar", "aws-saas"]}, None,
        f"bad config: bad profile registry: {MISSING_FILE}: "
        f"[Errno 2] No such file or directory: '{MISSING_FILE}'"),
    "positives_a_fraction": ("gen-dataset", {"positives": 2.9}, None,
                             "bad generator config: positives must be an integer"),
    "positives_true": ("gen-dataset", {"positives": True}, None,
                       "bad generator config: positives must be an integer"),
    "negatives_a_string": ("gen-dataset", {"negatives": "2"}, None,
                           "bad generator config: negatives must be an integer"),
    "known_face_fraction_a_string": (
        "gen-dataset", {"known_face_fraction": "0.3"}, None,
        "bad generator config: known_face_fraction must be a finite number"),
    "port_a_string": ("serve-cloud", {"port": "x"}, None, "bad config: port must be an integer"),
    "port_out_of_range": ("serve-cloud", {"port": 65536}, None,
                          "bad config: port must be in [0, 65535]"),
    "host_a_number": ("serve-cloud", {"host": 5}, None, "bad config: host must be a string"),
    "serve_seed_a_string": ("serve-cloud", {"seed": "7"}, None,
                            "bad config: seed must be an integer"),
    "faces_an_array": ("enroll", {"faces": ["a"]}, None, "bad config: faces must be an object"),
    "server_a_number": ("enroll", {"server": 5, "faces": {"alice": "family"}}, None,
                        "bad config: server must be a string"),
    "backend_ids_a_string": ("compare", {"backend_ids": "ab"}, None,
                             "bad config: backend_ids must be an array"),
}


def _refuse(*args, **kwargs):
    raise AssertionError("a malformed config reached the network")


@pytest.mark.parametrize("command,document,registry,message", MALFORMED_DOCUMENTS.values(),
                         ids=MALFORMED_DOCUMENTS.keys())
def test_malformed_document_exits_1_naming_the_field(tmp_path, dataset_path, capsys, monkeypatch,
                                                     command, document, registry, message):
    monkeypatch.setattr(cli, "CloudHTTPServer", _refuse)
    monkeypatch.setattr(cli, "_post", _refuse)
    work = tmp_path / "probe"
    work.mkdir()
    if command in ("evaluate", "compare"):
        document = {"dataset": str(dataset_path), **document}
    if registry is not None:
        (work / "profiles.json").write_text(json.dumps(registry))
        document = {**document, "profiles": str(work / "profiles.json")}
    config = work / "config.json"
    config.write_text(json.dumps(document))
    argv = [command, "--config", str(config)]
    if command in ("evaluate", "gen-dataset", "compare"):
        argv += ["--out", str(work / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert {path.name for path in work.iterdir()} <= {"config.json", "profiles.json"}


DEEP = "[" * 100_000 + "]" * 100_000  # beyond the JSON decoder's recursion limit


@pytest.mark.parametrize("nested", ["config", "profiles", "scripts"])
def test_a_document_nested_too_deep_exits_1_naming_it(tmp_path, dataset_path, capsys, nested):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": str(dataset_path), "backend_id": "haar",
                                  nested: str(deep) if nested == "profiles" else [str(deep)]}))
    where, what = {"config": (deep, ""), "profiles": (config, "bad profile registry: "),
                   "scripts": (config, "bad motion script: ")}[nested]
    out = tmp_path / "report.json"
    assert main(["evaluate", "--config", str(where), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad experiment config: {what}{deep}: maximum recursion depth")
    assert err.count("\n") == 1
    assert not out.exists()


def test_a_manifest_line_nested_too_deep_exits_2_naming_it(tmp_path, capsys):
    manifest = tmp_path / "deep.ndjson"
    manifest.write_text(DEEP + "\n")
    config = experiment_config(tmp_path, manifest)
    out = tmp_path / "report.json"
    assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}:1: bad manifest line: maximum recursion depth")
    assert err.count("\n") == 1
    assert not out.exists()


def test_a_profile_registry_is_read_once_with_the_config(tmp_path, dataset_path, monkeypatch):
    from doorsim import backends

    registry = tmp_path / "profiles.json"
    registry.write_text(json.dumps([profile.to_dict() for profile in DEFAULT_PROFILES.values()]))
    reads = []
    decode = backends._profiles

    def counting(document):
        reads.append(document)
        return decode(document)

    monkeypatch.setattr(backends, "_profiles", counting)
    config = tmp_path / "cmp.json"
    config.write_text(json.dumps({"dataset": str(dataset_path), "profiles": str(registry),
                                  "backend_ids": ["haar", "aws-saas"], "seed": 5}))
    assert main(["compare", "--config", str(config), "--out", str(tmp_path / "cmp.csv")]) == 0
    assert len(reads) == 1


# Configs that a run would refuse before its first event: (command, config
# document, profile registry or None, the whole of stderr). Each names a
# dataset that does not exist, so only a refusal on reading exits 1.
REFUSED_ON_READING = {
    "unknown_backend": ("evaluate", {"backend_id": "nope"}, None,
                        "bad experiment config: unknown backend profile: nope"),
    "compare_unknown_backend": ("compare", {"backend_ids": ["haar", "nope"]}, None,
                                "bad config: unknown backend profile: nope"),
    "registry_without_the_remote_backend": (
        "evaluate", {"backend_id": "haar"}, [DEFAULT_PROFILES["haar"].to_dict()],
        "bad experiment config: profile 'aws-saas' must be registered"),
    "spacing_within_debounce": (
        "evaluate", {"event_spacing_ms": 1000}, None,
        "bad experiment config: event_spacing_ms must exceed debounce_ms to cover all frames"),
}


def _must_not_run(*args, **kwargs):
    raise AssertionError("a config the run would refuse reached the dataset or a run")


@pytest.mark.parametrize("command,document,registry,message", REFUSED_ON_READING.values(),
                         ids=REFUSED_ON_READING.keys())
def test_a_config_the_run_would_refuse_exits_1_on_reading(tmp_path, capsys, monkeypatch,
                                                          command, document, registry, message):
    monkeypatch.setattr(cli, "load_manifest", _must_not_run)
    monkeypatch.setattr(cli, "run_experiment", _must_not_run)
    work = tmp_path / "probe"
    work.mkdir()
    document = {"dataset": str(work / "missing.ndjson"), **document}
    if registry is not None:
        (work / "profiles.json").write_text(json.dumps(registry))
        document = {**document, "profiles": str(work / "profiles.json")}
    config = work / "config.json"
    config.write_text(json.dumps(document))
    assert main([command, "--config", str(config), "--out", str(work / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert {path.name for path in work.iterdir()} <= {"config.json", "profiles.json"}


def test_spacing_is_not_checked_against_debounce_when_scripts_are_given(tmp_path, dataset_path,
                                                                        capsys):
    frame = next(iter(load_manifest(dataset_path)))
    config = experiment_config(tmp_path, dataset_path, event_spacing_ms=1000, scripts=[
        {"device_id": frame.device_id, "entries": [{"at": 0, "frame_id": frame.frame_id}]}])
    assert main(["simulate", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["counters"]["events"] == 1


def test_serve_cloud_prints_the_address_it_bound(tmp_path):
    config = tmp_path / "serve.json"
    config.write_text(json.dumps({"port": 0, "seed": 4}))
    source = str(Path(doorsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [source, *filter(None, [os.environ.get("PYTHONPATH")])])}
    process = subprocess.Popen(
        [sys.executable, "-m", "doorsim.cli", "serve-cloud", "--config", str(config)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env)
    try:
        ready, _, _ = select.select([process.stdout], [], [], 10)
        assert ready, "no banner within 10 s"
        banner = process.stdout.readline()
        bound = re.fullmatch(r"serving mock cloud on (http://127\.0\.0\.1:(\d+)) \(seed 4\)\n",
                             banner)
        assert bound and int(bound[2]) != 0, banner
        expected = CloudService(seed=4).handle(
            ApiRequest("GET", "/activities", query={"device": "door-1"}))
        with urllib.request.urlopen(f"{bound[1]}/activities?device=door-1", timeout=10) as reply:
            assert reply.status == expected.status == 200
            assert reply.headers["content-type"] == "application/json"
            assert json.loads(reply.read()) == expected.body
    finally:
        process.terminate()
        process.wait(timeout=10)
        process.stdout.close()
