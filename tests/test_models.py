"""Model backends: scripted lookup tables and their file format, k-gram
training and smoothing, and the line-delimited remote protocol."""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from cntp import (
    DecodeConfig,
    Distribution,
    KGramModel,
    ModelFileError,
    ModelServer,
    ProtocolError,
    RemoteModel,
    ScriptedModel,
    Sequence,
    Vocabulary,
    greedy_decode,
    load_kgram_model,
    load_scripted_model,
    save_kgram_model,
    save_scripted_model,
    train_kgram,
)


@pytest.fixture
def tiny_model():
    vocab = Vocabulary(("a", "b", ""), 2)
    table = {(): Distribution([0.7, 0.3, 0.0]), (0,): Distribution([0.2, 0.2, 0.6])}
    return ScriptedModel(vocab, table, Distribution([0.0, 0.0, 1.0]))


def test_scripted_lookup_and_default(tiny_model):
    assert tiny_model.next_distribution(()).probs.tolist() == [0.7, 0.3, 0.0]
    assert tiny_model.next_distribution((0,)).probs.tolist() == [0.2, 0.2, 0.6]
    # unlisted prefixes fall back to the default row
    assert tiny_model.next_distribution((1, 1)).probs.tolist() == [0.0, 0.0, 1.0]


def test_scripted_accepts_prefix_in_any_shape(tiny_model):
    as_tuple = tiny_model.next_distribution((0,))
    assert tiny_model.next_distribution([0]) is as_tuple
    assert tiny_model.next_distribution(Sequence((0,), "a")) is as_tuple


def test_scripted_returns_bitwise_identical_rows(tiny_model):
    first = tiny_model.next_distribution(()).probs
    second = tiny_model.next_distribution(()).probs
    assert np.array_equal(first, second)


def test_scripted_validates_row_shapes():
    vocab = Vocabulary(("a", ""), 1)
    with pytest.raises(ValueError, match="default row has"):
        ScriptedModel(vocab, {}, Distribution([1.0]))
    with pytest.raises(ValueError, match="entries"):
        ScriptedModel(vocab, {(): Distribution([1.0])}, Distribution([0.0, 1.0]))
    with pytest.raises(ValueError, match="outside the vocabulary"):
        ScriptedModel(vocab, {(5,): Distribution([0.5, 0.5])}, Distribution([0.0, 1.0]))


def test_scripted_model_file_round_trip(tiny_model, tmp_path):
    path = str(tmp_path / "round.model")
    save_scripted_model(tiny_model, path)
    loaded = load_scripted_model(path)
    assert loaded.vocabulary.tokens == tiny_model.vocabulary.tokens
    assert loaded.vocabulary.eos_id == tiny_model.vocabulary.eos_id
    for prefix, dist in tiny_model.table.items():
        assert np.array_equal(loaded.table[prefix].probs, dist.probs)
    assert np.array_equal(loaded.default.probs, tiny_model.default.probs)


def test_scripted_file_errors_carry_context(tmp_path):
    missing = str(tmp_path / "nope.model")
    with pytest.raises(ModelFileError):
        load_scripted_model(missing)

    bad_json = tmp_path / "bad.model"
    bad_json.write_text("{\n  broken\n")
    with pytest.raises(ModelFileError, match="line 2"):
        load_scripted_model(str(bad_json))

    incomplete = tmp_path / "incomplete.model"
    incomplete.write_text(json.dumps({"tokens": ["a", ""], "eos": 1}))
    with pytest.raises(ModelFileError, match="missing required field"):
        load_scripted_model(str(incomplete))

    denormalized = tmp_path / "denorm.model"
    denormalized.write_text(json.dumps({
        "tokens": ["a", "b", ""],
        "eos": 2,
        "rows": [{"prefix": [0], "probs": [0.49, 0.49, 0.0]}],
        "default": [0.0, 0.0, 1.0],
    }))
    with pytest.raises(ModelFileError, match=r"row 0 \(prefix \[0\]\)"):
        load_scripted_model(str(denormalized))


@pytest.mark.parametrize("prefix", [[0.0], "a"])  # ["z"] and [true]: see test_cli
def test_scripted_rows_need_integer_prefixes(tmp_path, prefix):
    path = tmp_path / "bad_prefix.model"
    path.write_text(json.dumps({
        "tokens": ["a", "b", ""], "eos": 2,
        "rows": [{"prefix": prefix, "probs": [0.5, 0.5, 0.0]}],
        "default": [0.0, 0.0, 1.0],
    }))
    with pytest.raises(ModelFileError, match="prefix"):
        load_scripted_model(str(path))


@pytest.mark.parametrize("field", ["probs", "default"])
def test_scripted_rows_must_be_probability_lists(tmp_path, field):
    data = {"tokens": ["a", "b", ""], "eos": 2,
            "rows": [{"prefix": [0], "probs": [0.5, 0.5, 0.0]}],
            "default": [0.0, 0.0, 1.0]}
    if field == "probs":
        data["rows"][0]["probs"] = {"a": 1}
    else:
        data["default"] = {"a": 1}
    path = tmp_path / "object_row.model"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelFileError, match="row"):
        load_scripted_model(str(path))


def test_scripted_empty_table_is_valid(tmp_path):
    path = tmp_path / "default_only.model"
    path.write_text(json.dumps({
        "tokens": ["a", ""], "eos": 1, "rows": [], "default": [0.25, 0.75],
    }))
    model = load_scripted_model(str(path))
    assert model.next_distribution((0, 0, 0)).probs.tolist() == [0.25, 0.75]


def test_train_kgram_counts_windows():
    model = train_kgram("aa", k=1, alpha=1.0)
    a = model.vocabulary.encode("a")[0]
    assert model.counts == {(a,): {a: 1}}

    model = train_kgram("ababab", k=1, alpha=1.0)
    a, b = model.vocabulary.encode("a")[0], model.vocabulary.encode("b")[0]
    assert model.counts[(a,)] == {b: 3}
    assert model.counts[(b,)] == {a: 2}


def test_kgram_add_alpha_probabilities():
    model = train_kgram("ababab", k=1, alpha=1.0)
    vocab = model.vocabulary
    a, b = vocab.encode("a")[0], vocab.encode("b")[0]
    dist = model.next_distribution((a,))
    # context 'a' saw b three times; |V| = 3 including eos
    assert dist.probs[b] == pytest.approx((3 + 1) / (3 + 3), abs=1e-12)
    assert dist.probs[b] == pytest.approx(0.6667, abs=1e-4)
    assert dist.probs[a] == pytest.approx(1 / 6, abs=1e-12)
    assert dist.probs[vocab.eos_id] == pytest.approx(1 / 6, abs=1e-12)


def test_kgram_context_longer_than_corpus_is_uniform():
    model = train_kgram("ab", k=3, alpha=1.0)
    assert model.counts == {}
    dist = model.next_distribution(model.vocabulary.encode("ab"))
    assert dist.probs.tolist() == pytest.approx([1 / 3] * 3, abs=1e-12)


def test_kgram_large_alpha_approaches_uniform():
    distances = []
    for alpha in (0.01, 1.0, 100.0):
        model = train_kgram("ababab", k=1, alpha=alpha)
        a = model.vocabulary.encode("a")[0]
        probs = model.next_distribution((a,)).probs
        distances.append(float(np.abs(probs - 1 / 3).max()))
    assert distances[0] > distances[1] > distances[2]


def test_kgram_unseen_contexts_share_one_row():
    model = train_kgram("ababab", k=2, alpha=0.5)
    a, b = model.vocabulary.encode("a")[0], model.vocabulary.encode("b")[0]
    unseen = model.next_distribution((a, a))
    assert model.next_distribution((b, b)) is unseen
    assert model.next_distribution(()) is unseen
    assert unseen.probs.tolist() == pytest.approx([1 / 3] * 3, abs=1e-12)
    model.next_distribution((a, b))
    assert set(model._cache) == {(a, b)}  # only trained contexts are cached


def test_kgram_uses_last_k_tokens_only():
    model = train_kgram("abcabcabc", k=2, alpha=0.5)
    ids = model.vocabulary.encode("abcab")
    short = model.next_distribution(ids[-2:])
    assert model.next_distribution(ids) is short


def test_kgram_training_input_validation():
    with pytest.raises(ValueError, match="non-empty"):
        train_kgram("", 1, 1.0)
    with pytest.raises(ValueError, match="k"):
        train_kgram("ab", 0, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        train_kgram("ab", 1, 0.0)


def test_kgram_file_round_trip(tmp_path):
    model = train_kgram("the cat sat on the mat", k=2, alpha=0.25)
    path = str(tmp_path / "round.kgram")
    save_kgram_model(model, path)
    loaded = load_kgram_model(path)
    assert isinstance(loaded, KGramModel)
    assert loaded.k == 2 and loaded.alpha == 0.25
    assert loaded.vocabulary.tokens == model.vocabulary.tokens
    assert loaded.counts == model.counts
    prefix = model.vocabulary.encode("he")
    assert np.array_equal(
        loaded.next_distribution(prefix).probs, model.next_distribution(prefix).probs
    )


def test_kgram_file_errors(tmp_path):
    path = tmp_path / "bad.kgram"
    path.write_text("not json")
    with pytest.raises(ModelFileError, match="invalid JSON"):
        load_kgram_model(str(path))
    path.write_text(json.dumps({"k": 1}))
    with pytest.raises(ModelFileError, match="bad k-gram file"):
        load_kgram_model(str(path))


def test_detokenize_surfaces():
    vocab = Vocabulary((".", "\n", "x", ""), 3)
    assert vocab.surface(0) == "."
    assert vocab.surface(1) == "\n"
    assert vocab.surface(3) == ""


def test_remote_model_round_trips_rows(tiny_model):
    with ModelServer(tiny_model) as server:
        with RemoteModel(server.address) as remote:
            assert remote.vocabulary.tokens == tiny_model.vocabulary.tokens
            assert remote.vocabulary.eos_id == tiny_model.vocabulary.eos_id
            for prefix in ((), (0,), (1, 1)):
                local = tiny_model.next_distribution(prefix).probs
                # floats survive the JSON hop bit-exactly via repr round-trip
                assert np.array_equal(remote.next_distribution(prefix).probs, local)


def test_remote_decode_matches_local(tiny_model):
    prompt = Sequence((), "")
    config = DecodeConfig(global_cap=4)
    local = greedy_decode(tiny_model, prompt, config)
    with ModelServer(tiny_model) as server:
        with RemoteModel(server.address) as remote:
            over_wire = greedy_decode(remote, prompt, config)
    assert over_wire.sequence == local.sequence
    assert over_wire.cost == local.cost


def test_server_close_stops_the_accept_thread(tiny_model):
    server = ModelServer(tiny_model)
    with RemoteModel(server.address) as remote:
        remote.next_distribution(())
    closer = threading.Thread(target=server.close, daemon=True)
    closer.start()
    closer.join(timeout=2.0)
    assert not closer.is_alive()
    assert not server._thread.is_alive()
    host, port = server.address.rsplit(":", 1)
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((host, int(port)), timeout=2.0)


def test_remote_rejects_bad_addresses():
    with pytest.raises(ProtocolError, match="host:port"):
        RemoteModel("nohost")
    # a bound-then-closed port refuses connections
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(ProtocolError, match="cannot connect"):
        RemoteModel(f"127.0.0.1:{port}", timeout=2.0)


def _raw_server(lines):
    """One-shot server that sends the given lines and echoes nothing else."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def serve():
        conn, _ = listener.accept()
        with conn:
            for line in lines:
                conn.sendall(line)
            conn.recv(4096)  # absorb one request, then hang up
        listener.close()

    threading.Thread(target=serve, daemon=True).start()
    return f"127.0.0.1:{port}"


def test_remote_validates_hello_and_responses():
    with pytest.raises(ProtocolError, match="malformed record"):
        RemoteModel(_raw_server([b"not json\n"]))

    with pytest.raises(ProtocolError, match="hello record"):
        RemoteModel(_raw_server([b'{"greeting": "hi"}\n']))

    hello = json.dumps({"tokens": ["a", ""], "eos": 1}).encode() + b"\n"
    with RemoteModel(_raw_server([hello, b'{"probs": [0.9, 0.2]}\n'])) as remote:
        with pytest.raises(ProtocolError, match="failed validation"):
            remote.next_distribution(())

    with RemoteModel(_raw_server([hello, b'{"probs": [0.5, 0.25, 0.25]}\n'])) as remote:
        with pytest.raises(ProtocolError, match="entries"):
            remote.next_distribution(())

    with RemoteModel(_raw_server([hello, b'{"error": "no such row"}\n'])) as remote:
        with pytest.raises(ProtocolError, match="server error"):
            remote.next_distribution(())


def test_remote_rejects_a_bool_eos_in_hello():
    hello = json.dumps({"tokens": ["a", ""], "eos": True}).encode() + b"\n"
    with pytest.raises(ProtocolError, match="eos id must be an integer"):
        RemoteModel(_raw_server([hello]))


def test_server_reports_bad_requests_and_keeps_serving(tiny_model):
    with ModelServer(tiny_model) as server:
        host, port = server.address.rsplit(":", 1)
        with socket.create_connection((host, int(port))) as conn:
            fh = conn.makefile("rwb")
            hello = json.loads(fh.readline())
            assert hello["eos"] == 2
            fh.write(b"garbage\n")
            fh.flush()
            assert "error" in json.loads(fh.readline())
            fh.write(json.dumps({"prefix": []}).encode() + b"\n")
            fh.flush()
            reply = json.loads(fh.readline())
            assert reply["probs"] == [0.7, 0.3, 0.0]
