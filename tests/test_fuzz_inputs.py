"""Fuzzing of every outside input.

Arbitrary JSON values, raw bytes, and valid documents with one field
replaced or dropped go to each file loader, to read_records, to RemoteModel
as hello and response lines from a stub socket, wire-6 row and ids lines
among them, and to ModelServer as request lines: wire-6 and prefix lines,
and the forms of the older wires, which it no longer serves.
Only ConfigError, ModelFileError and ProtocolError may escape, and the CLI
reading the same input exits with a code in 0..4.

Run with CI=1 to replay the derandomized examples a CI failure reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cntp import (
    ConfigError,
    DecodeConfig,
    ModelFileError,
    ModelServer,
    ProtocolError,
    RemoteModel,
    config_to_dict,
    load_config,
    load_fixture,
    load_kgram_model,
    load_scripted_model,
    train_kgram,
)
from cntp.core import read_text
from cntp.harness import build_fixture_suite, load_tasks, read_records, run_one
from cntp.harness.cli import main
from cntp.models import save_kgram_model

FILE_ERRORS = (ConfigError, ModelFileError)
# Decode flags that keep any config a fuzzed file holds to a few tokens.
SMALL = ["--n-max", "2", "--branch-cap", "2", "--global-cap", "4", "--out", ""]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=10,
)


def documents(valid: dict):
    """File or line bytes: arbitrary JSON, raw bytes, or the valid document
    with one field replaced, dropped or added."""
    keys = sorted(valid) + ["extra"]
    replaced = st.tuples(st.sampled_from(keys), json_values).map(
        lambda kv: {**valid, kv[0]: kv[1]})
    dropped = st.sampled_from(keys).map(lambda key: {k: v for k, v in valid.items() if k != key})
    as_json = st.one_of(json_values, replaced, dropped).map(lambda v: json.dumps(v).encode())
    return as_json | st.binary(max_size=48)


def _valid_inputs():
    model, tasks, config = build_fixture_suite()
    record, _ = run_one(model, tasks[0], "greedy", config, model_spec="bundled:suite")
    kgram = {"k": 1, "alpha": 0.5, "tokens": ["a", "b", ""], "eos": 2,
             "counts": {"0": {"0": 2, "1": 1}, "1": {"0": 1}}}
    scripted = {"tokens": ["a.", "b.", ""], "eos": 2, "default": [0.0, 0.0, 1.0],
                "rows": [{"prefix": [], "probs": [0.5, 0.25, 0.25]}]}
    task = {"id": "t", "prompt": "Q00", "reference_answer": tasks[0].reference_answer,
            "extractor": "full_text"}
    return {"config": config_to_dict(DecodeConfig()), "record": record.to_dict(),
            "kgram": kgram, "scripted": scripted, "task": task}


VALID = _valid_inputs()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _load_and_run(load, path, argv) -> None:
    try:
        load(path)
    except FILE_ERRORS:
        pass
    assert _exit_code(argv) in range(5)


@settings(max_examples=60, deadline=None)
@given(documents(VALID["config"]))
def test_config_files(workdir, content):
    path = workdir / "c.json"
    path.write_bytes(content)
    _load_and_run(load_config, str(path),
                  ["decode", "--model", "bundled:suite", "--prompt", "Q00", "--config", str(path),
                   *SMALL])


@settings(max_examples=60, deadline=None)
@given(documents(VALID["scripted"]))
def test_scripted_model_files(workdir, content):
    path = workdir / "m.model"
    path.write_bytes(content)
    _load_and_run(load_scripted_model, str(path),
                  ["decode", "--model", str(path), "--prompt", "a.", *SMALL])


@settings(max_examples=60, deadline=None)
@given(documents(VALID["kgram"]))
def test_kgram_model_files(workdir, content):
    path = workdir / "m.kgram"
    path.write_bytes(content)
    _load_and_run(load_kgram_model, str(path),
                  ["decode", "--model", str(path), "--prompt", "a", *SMALL])


@settings(max_examples=40, deadline=None)
@given(documents({"tokens": [0, 1]}))
def test_fixture_reference_files(workdir, content):
    base = workdir / "fixture"
    (workdir / "fixture.model").write_text(json.dumps(VALID["scripted"]), encoding="utf-8")
    (workdir / "fixture.config.json").write_text(json.dumps(VALID["config"]), encoding="utf-8")
    (workdir / "fixture.ref").write_bytes(content)
    _load_and_run(load_fixture, f"{base}.model",
                  ["theorem", "--fixture", f"{base}.model", "--node-budget", "2000"])


@settings(max_examples=60, deadline=None)
@given(st.lists(documents(VALID["task"]), min_size=1, max_size=3))
def test_task_files(workdir, lines):
    path = workdir / "t.tasks"
    path.write_bytes(b"\n".join(lines))
    _load_and_run(load_tasks, str(path),
                  ["suite", "--model", "bundled:suite", "--tasks", str(path), "--seeds", "0",
                   "--strategy", "greedy", *SMALL])


@settings(max_examples=60, deadline=None)
@given(st.lists(documents(VALID["record"]), min_size=1, max_size=2))
def test_record_files(workdir, lines):
    path = workdir / "r.jsonl"
    path.write_bytes(b"\n".join(lines))
    # --model keeps a fuzzed model spec from naming a file or a host.
    _load_and_run(read_records, str(path),
                  ["replay", "--record", str(path), "--model", "bundled:suite"])


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=48))
def test_corpus_files(workdir, content):
    path = workdir / "corpus.txt"
    path.write_bytes(content)
    try:
        save_kgram_model(train_kgram(read_text(str(path)), 2, 0.5), str(workdir / "c.kgram"))
    except ValueError:  # ModelFileError, or train_kgram's empty corpus
        pass
    assert _exit_code(["train-kgram", "--corpus", str(path), "--out",
                       str(workdir / "c.kgram")]) in range(5)


@contextlib.contextmanager
def _stub_server(payload: bytes):
    """A one-connection server that sends payload, ends its side of the
    stream, and drains what the client sends until it hangs up."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener:
            conn, _ = listener.accept()
            with conn:
                conn.sendall(payload)
                conn.shutdown(socket.SHUT_WR)
                while conn.recv(4096):
                    pass

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"127.0.0.1:{listener.getsockname()[1]}"
    finally:
        thread.join(timeout=10)


def _line(content: bytes) -> bytes:
    return content.replace(b"\n", b" ") + b"\n"


_HELLO = json.dumps({"tokens": ["a.", "b.", ""], "eos": 2, "wire": 6}).encode()


@settings(max_examples=40, deadline=None)
@given(documents({"tokens": ["a.", "b.", ""], "eos": 2, "wire": 6})
       | documents({"tokens": ["a.", "b.", ""], "eos": 2, "wire": 5}))
def test_remote_hello_lines(hello):
    with _stub_server(_line(hello)) as address:
        try:
            RemoteModel(address).close()
        except ProtocolError:
            pass


@settings(max_examples=40, deadline=None)
@given(documents({"probs": [0.5, 0.25, 0.25]}))
def test_remote_response_lines(response):
    with _stub_server(_line(_HELLO) + _line(response)) as address:
        with RemoteModel(address) as remote:
            try:
                remote.next_distribution(())
            except ProtocolError:
                pass
    with _stub_server(_line(_HELLO) + _line(response)) as address:
        assert _exit_code(["decode", "--model", f"remote:{address}", "--prompt", "a.",
                           *SMALL]) in range(5)


@settings(max_examples=60, deadline=None)
@given(st.lists(documents({"probs": [0.5, 0.25, 0.25]}) | documents({"rows": [0, 0], "at": 0}),
                min_size=1, max_size=3))
def test_remote_wire_5_reply_lines(lines):
    """Row lines and ids lines, each valid, mangled or missing, answering a
    two-branch wire-6 request: one branch off the slot of a row read before,
    and one whole prefix. Wire 6 kept wire 5's reply lines."""
    read = b'{"probs": [0.5, 0.25, 0.25]}\n{"rows": [0], "at": 0}\n'
    payload = _line(_HELLO) + read + b"".join(map(_line, lines))
    with _stub_server(payload) as address:
        with RemoteModel(address) as remote:
            root = remote.start(())
            remote.next_distributions([root])
            try:
                remote.next_distributions([*remote.advance([root], [0]), remote.start((1,))])
            except ProtocolError:
                pass
    with _stub_server(payload) as address:
        assert _exit_code(["decode", "--model", f"remote:{address}", "--prompt", "a.",
                           *SMALL]) in range(5)


@pytest.fixture(scope="module")
def served(workdir):
    """A connection to a ModelServer for the valid k-gram model, past its hello."""
    path = workdir / "served.kgram"
    path.write_text(json.dumps(VALID["kgram"]), encoding="utf-8")
    with ModelServer(load_kgram_model(str(path))) as server:
        host, port = server.address.rsplit(":", 1)
        with socket.create_connection((host, int(port))) as conn, conn.makefile("rwb") as fh:
            fh.readline()
            yield fh


@settings(max_examples=160, deadline=None)
@given(documents({"prefix": [0, 1]}) | documents({"keep": 1, "append": [0]})
       | documents({"keep": 1, "branches": [[0], [1, 0]]})
       | documents({"slots": [-1, 0], "branches": [[0], [1, 0]]})
       | documents({"slots": [-1, 0], "branches": [[0], [1, 0]], "rows": True})
       | documents({"slots": [-1, 0, -1], "tokens": [1], "prefixes": [[0], [1, 0]]}))
def test_server_request_lines(served, request):
    served.write(_line(request))
    served.flush()
    reply = json.loads(served.readline())
    if "error" in reply:
        assert list(reply) == ["error"]
        return
    # The server parsed the line: a prefix line gets its row, and a wire-6
    # request its new rows and then one id per branch.
    record = json.loads(_line(request))
    if "prefix" in record:
        assert list(reply) == ["probs"]
        return
    branches = len(record["slots"])
    new = 0
    while list(reply) == ["probs"]:
        new += 1
        reply = json.loads(served.readline())
    assert sorted(reply) == ["at", "rows"] and len(reply["rows"]) == branches
    assert new <= branches and max(reply["rows"]) < reply["at"] + new
