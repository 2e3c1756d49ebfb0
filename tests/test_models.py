"""Model backends: scripted lookup tables and their file format, k-gram
training and smoothing, and the line-delimited remote protocol."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import socket
import struct
import sys
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cntp import (
    DecodeConfig,
    Distribution,
    KGramModel,
    ModelFileError,
    ModelSource,
    ModelServer,
    ProtocolError,
    RemoteModel,
    Rng,
    ScriptedModel,
    Sequence,
    Vocabulary,
    beam_search_decode,
    cntp_decode,
    greedy_decode,
    load_kgram_model,
    load_scripted_model,
    save_kgram_model,
    save_scripted_model,
    stochastic_decode,
    train_kgram,
)
from cntp import models
from cntp.core import load_config
from cntp.engine import _grow_trials, stop_mask
from cntp.harness import bundled_path, load_tasks
from cntp.harness.cli import main
from cntp.harness.runner import run_suite
from cntp.models import BRANCHES_CAP, CONNECTION_CAP, LINE_CAP, ROW_CACHE

from conftest import make_random_scripted, serve_wire


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


def _read(model, cursor):
    """The distribution at one of model's cursors."""
    return model.next_distributions([cursor])[0]


def _stepped(model, cursor, *tokens):
    """One of model's cursors stepped on by tokens, one advance call each."""
    for tok in tokens:
        cursor, = model.advance([cursor], [tok])
    return cursor


# Cursors are checked against next_distribution on: a random scripted model
# whose rows run three tokens deep, the bundled k-gram model (k=3) and a
# k=2 model trained here, whose unseen contexts share one row.
_CURSOR_MODELS = (
    make_random_scripted(np.random.default_rng(8), width=3, depth=3),
    load_kgram_model(bundled_path("kgram.kgram")),
    train_kgram("abcab. bca? cab.", 2, 0.5),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(range(len(_CURSOR_MODELS))), st.data())
def test_cursor_reads_what_next_distribution_reads(which, data):
    model = _CURSOR_MODELS[which]
    ids = st.integers(0, len(model.vocabulary) - 1)
    prefix = tuple(data.draw(st.lists(ids, max_size=8), label="prefix"))
    walk = data.draw(st.lists(ids, min_size=1, max_size=8), label="walk")
    assert _read(model, model.start(prefix)) is model.next_distribution(prefix)
    # start accepts a prefix in any shape, as next_distribution does
    assert _read(model, model.start(list(prefix))) is model.next_distribution(prefix)
    cursor = model.start(prefix)
    for tok in walk:
        advanced, forked = model.advance([cursor, cursor], [tok, tok])
        prefix += (tok,)
        assert _read(model, advanced) is model.next_distribution(prefix)
        # immutable: forks agree, read alone or in one batch
        assert model.next_distributions([forked, advanced]) == [_read(model, advanced)] * 2
        assert _read(model, forked) is _read(model, advanced)
        cursor = advanced


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
    for prefix in [(5,), (-1,), (2,), (0, 2), (1, -1, 0)]:  # -1 and the vocabulary size
        message = f"prefix {list(prefix)} holds token ids outside the vocabulary"
        with pytest.raises(ValueError, match=re.escape(message)):
            ScriptedModel(vocab, {prefix: Distribution([0.5, 0.5])}, Distribution([0.0, 1.0]))


def test_scripted_accepts_the_empty_prefix_and_both_edge_ids():
    vocab = Vocabulary(("a", ""), 1)
    table = {(): Distribution([0.5, 0.5]), (0, 1): Distribution([1.0, 0.0])}
    model = ScriptedModel(vocab, table, Distribution([0.0, 1.0]))
    assert model.next_distribution(()) is table[()]
    assert model.next_distribution((0, 1)) is table[(0, 1)]


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

    twice = tmp_path / "twice.model"
    row = {"prefix": [0], "probs": [0.5, 0.5, 0.0]}
    twice.write_text(json.dumps({"tokens": ["a", "b", ""], "eos": 2, "rows": [row, row],
                                 "default": [0.0, 0.0, 1.0]}))
    with pytest.raises(ModelFileError, match=r"row 1: prefix \[0\] is listed twice"):
        load_scripted_model(str(twice))


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
    # A 3072-token stochastic decode of a longgen prompt, read through
    # cursors, meets unseen contexts and keeps nothing for them: the model
    # holds a row and a code for each trained context, and nothing per
    # unseen one.
    model = load_kgram_model(bundled_path("kgram.kgram"))
    vocab, k = model.vocabulary, model.k
    prompt = vocab.sequence(vocab.encode(load_tasks(bundled_path("kgram.tasks"))[0].prompt))
    config = dataclasses.replace(load_config(bundled_path("kgram.config.json")), global_cap=3072)
    tokens = stochastic_decode(model, prompt, config).sequence.tokens
    assert len(tokens) == len(prompt.tokens) + 3072
    met = {tokens[i - k:i] for i in range(k, len(tokens))}
    assert len(met - set(model.counts)) > 100
    assert set(model._cache) == set(model.counts)
    assert set(model._code_rows) == {model._code(context) for context in model.counts}
    assert len(model._rows) <= len(model.counts) + 1  # with the unseen row


_CODE_CORPUS = "abcab. bca? cab. ab ba  a.b"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_kgram_cursor_codes_read_the_context_they_stand_for(k, data):
    """A k-gram cursor codes its last k tokens, digit tok + 1 each: one
    stepped on by a token reads next_distribution of the prefix plus that
    token, for a prefix that is empty, shorter than k, starts with id 0 or
    is longer than k. Id 0 starts trained contexts here, so a code without
    the + 1 would read one of them for a prefix shorter than k."""
    model = train_kgram(_CODE_CORPUS, k, 0.5)
    ids = st.integers(0, len(model.vocabulary) - 1)
    corpus = model.vocabulary.encode(_CODE_CORPUS)
    window = st.builds(lambda at, n: tuple(corpus[at:at + n]),
                       st.integers(0, len(corpus) - 1), st.integers(0, 2 * k))
    prefix = data.draw(st.one_of(st.lists(ids, max_size=2 * k).map(tuple), window,
                                 window.map(lambda p: (0,) + p)), label="prefix")
    tok = data.draw(ids, label="tok")
    cursor = model.start(prefix)
    assert model.next_distributions([cursor])[0] is model.next_distribution(prefix)
    stepped = model.advance([cursor], [tok])
    assert model.next_distributions(stepped)[0] is model.next_distribution(prefix + (tok,))


def test_kgram_start_rejects_ids_outside_the_vocabulary():
    model = train_kgram(_CODE_CORPUS, 2, 0.5)
    size = len(model.vocabulary)
    for prefix in ((size,), (0, -1), (size, 0, 1)):
        with pytest.raises(ValueError, match=rf"outside 0\.\.{size - 1}"):
            model.start(prefix)


def test_kgram_contexts_with_equal_counts_share_one_row():
    """Rows are interned by their bytes: contexts with equal counts, and a
    context whose counts are all 0 and the unseen row, return one object."""
    model = train_kgram("acbcd", k=1, alpha=0.5)
    a, b, c = (model.vocabulary.encode(ch)[0] for ch in "abc")
    row = model.next_distribution((a,))
    assert model.next_distribution((b,)) is row
    assert model.next_distribution((c,)) is not row
    assert row.probs.tolist() == model._row({c: 1}).probs.tolist()
    zero = KGramModel(model.vocabulary, 1, 0.5, {(a,): {b: 0}})
    assert zero.next_distribution((a,)) is zero.next_distribution((b,))
    bundled = load_kgram_model(bundled_path("kgram.kgram"))
    rows = [bundled.next_distribution(context) for context in bundled.counts]
    assert len(rows) == 186
    assert len({id(row) for row in rows}) == len({row.probs.tobytes() for row in rows}) == 94


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
    with pytest.raises(ModelFileError, match="missing required field 'alpha'"):
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


def test_server_answers_a_connection_past_its_cap_with_an_error(tiny_model):
    with ModelServer(tiny_model) as server, contextlib.ExitStack() as stack:
        clients = [stack.enter_context(RemoteModel(server.address))
                   for _ in range(CONNECTION_CAP)]
        with pytest.raises(ProtocolError, match=f"server error: .*cap of {CONNECTION_CAP}"):
            RemoteModel(server.address)
        # Every client under the cap is still served.
        assert clients[-1].next_distribution((0,)) is not None
        clients[0].close()  # hanging up frees a slot once the server sees it
        for _ in range(200):
            try:
                late = stack.enter_context(RemoteModel(server.address))
                break
            except ProtocolError:
                time.sleep(0.01)
        else:
            pytest.fail("closing a client never freed a connection slot")
        assert np.array_equal(late.next_distribution(()).probs,
                              tiny_model.next_distribution(()).probs)


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
    with pytest.raises(ProtocolError, match="invalid JSON"):
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
    with pytest.raises(ProtocolError, match="eos must be an integer"):
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


@pytest.mark.parametrize("response, message", [
    (b'{"probs": {"a": 1}}\n', "probs must be a list of real numbers"),
    (b'{"probs": [true, false]}\n', "probs must be a list of real numbers"),
    (b'[0.5, 0.5]\n', "expected a JSON object"),
    (b'{"probs": [0.5, \xff]}\n', "invalid JSON"),
], ids=["object", "bools", "bare-list", "not-utf8"])
def test_remote_rejects_mistyped_responses(response, message):
    hello = json.dumps({"tokens": ["a", ""], "eos": 1}).encode() + b"\n"
    with RemoteModel(_raw_server([hello, response])) as remote:
        with pytest.raises(ProtocolError, match=message):
            remote.next_distribution(())


def test_remote_reports_a_reset_connection_as_a_backend_error():
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def serve():
        conn, _ = listener.accept()
        conn.sendall(json.dumps({"tokens": ["a", ""], "eos": 1}).encode() + b"\n")
        conn.recv(4096)
        # Zero linger: close() sends a reset instead of a clean shutdown.
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        conn.close()
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    with RemoteModel(f"127.0.0.1:{port}") as remote:
        with pytest.raises(ProtocolError):
            remote.next_distribution(())
    thread.join()


def test_remote_closes_its_connection_when_the_server_hangs_up():
    hello = json.dumps({"tokens": ["a", ""], "eos": 1}).encode() + b"\n"
    with RemoteModel(_raw_server([hello])) as remote:
        with pytest.raises(ProtocolError, match="connection closed by server"):
            remote.next_distribution(())
        assert remote._sock.fileno() == -1
        with pytest.raises(ProtocolError, match="connection failed"):
            remote.next_distribution(())


def test_server_answers_mistyped_or_out_of_range_ids_with_an_error(tiny_model):
    with ModelServer(tiny_model) as server:
        host, port = server.address.rsplit(":", 1)
        with socket.create_connection((host, int(port))) as conn, conn.makefile("rwb") as fh:
            fh.readline()  # hello
            for prefix in (["0"], [True], [0.0], [2.7], [3], [-1], "0", None):
                fh.write(json.dumps({"prefix": prefix}).encode() + b"\n")
                fh.flush()
                reply = json.loads(fh.readline())
                assert list(reply) == ["error"], prefix
            for request in (b"[0]\n", b'{"prefix": [0]\xff}\n', b"{}\n"):
                fh.write(request)
                fh.flush()
                assert list(json.loads(fh.readline())) == ["error"], request
            fh.write(json.dumps({"prefix": [0]}).encode() + b"\n")
            fh.flush()
            assert json.loads(fh.readline()) == {"probs": [0.2, 0.2, 0.6]}


@pytest.mark.parametrize("counts, message", [
    ({(0, 5): {0: 1}}, "all below 3"),
    ({(0,): {0: 1}}, "k=2"),
    ({(0, 1): {-1: 1}}, "all below 3"),
    ({(0, 1): {0: -1}}, "counts must be integers"),
    ({(0, 1): {0: 1.0}}, "counts must be integers"),
    ({(0, 1): {0: 2**53 + 1}}, "counts must be integers"),
], ids=["context-id", "context-length", "next-token-id", "negative", "real", "past-2**53"])
def test_kgram_rejects_counts_outside_its_vocabulary_and_k(counts, message):
    with pytest.raises(ValueError, match=message):
        KGramModel(Vocabulary(("a", "b", ""), 2), 2, 0.5, counts)


class _PrefixHashModel(ModelSource):
    """Rows keyed by a checksum of the whole prefix: a server that applied a
    delta to the wrong prefix would almost always answer another row."""

    vocabulary = Vocabulary(("a", "b", "c", ""), 3)
    rows = [Distribution(row) for row in np.random.default_rng(8).dirichlet(np.ones(4), 64)]

    def next_distribution(self, prefix):
        return self.rows[zlib.crc32(bytes(tuple(prefix))) % len(self.rows)]


# One walk: each move extends the last prefix, forks back to a shorter one
# and extends it, repeats it, or starts over from the empty prefix.
_moves = st.lists(st.one_of(
    st.tuples(st.just("extend"), st.lists(st.integers(0, 3), min_size=1, max_size=4)),
    st.tuples(st.just("fork"), st.integers(0, 40), st.integers(0, 3)),
    st.tuples(st.just("repeat")),
    st.tuples(st.just("empty")),
), max_size=40)


@settings(max_examples=60, deadline=None)
@given(_moves)
def test_one_v2_connection_answers_every_walk_as_the_local_model(moves):
    model = _PrefixHashModel()
    with ModelServer(model) as server, RemoteModel(server.address) as remote:
        assert remote._wire == 5
        prefix = ()
        for move in moves:
            if move[0] == "extend":
                prefix += tuple(move[1])
            elif move[0] == "fork":
                prefix = prefix[:min(move[1], max(len(prefix) - 1, 0))] + (move[2],)
            elif move[0] == "empty":
                prefix = ()
            got = remote.next_distribution(prefix)
            assert got.probs.tobytes() == model.next_distribution(prefix).probs.tobytes()


def _recording_server(replies, hello=None, hang_up=False):
    """A one-connection server that sends hello (a wire-2 one by default),
    answers each request line with the next of replies and appends the
    requests it read, parsed, to the list it returns with its address.
    Past the replies it waits for the client to hang up, or with hang_up
    closes the connection itself."""
    listener = socket.create_server(("127.0.0.1", 0))
    requests = []
    hello = hello or {"tokens": ["a", "b", ""], "eos": 2, "wire": 2}

    def serve():
        with listener:
            conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as fh:
            fh.write(json.dumps(hello).encode() + b"\n")
            fh.flush()
            for reply in replies:
                line = fh.readline()
                if not line:
                    return
                requests.append(json.loads(line))
                fh.write(reply)
                fh.flush()
            if not hang_up:
                fh.readline()  # until the client hangs up

    threading.Thread(target=serve, daemon=True).start()
    return f"127.0.0.1:{listener.getsockname()[1]}", requests


_ROW = b'{"probs": [0.5, 0.25, 0.25]}\n'


def test_client_sends_deltas_on_the_prefix_last_answered():
    address, requests = _recording_server([_ROW] * 6)
    with RemoteModel(address) as remote:
        for prefix in ((0, 1), (0, 1, 1, 0), (0, 1, 0), (0, 1, 0), (), (1,)):
            remote.next_distribution(prefix)
    assert requests == [
        {"prefix": [0, 1]},
        {"keep": 2, "append": [1, 0]},  # extend
        {"keep": 2, "append": [0]},  # fork one token back
        {"keep": 3, "append": []},  # repeat
        {"keep": 0, "append": []},  # the empty prefix
        {"keep": 0, "append": [1]},
    ]


def test_client_speaks_wire_1_to_a_hello_without_a_version():
    address, requests = _recording_server([_ROW] * 3, {"tokens": ["a", "b", ""], "eos": 2})
    with RemoteModel(address) as remote:
        assert remote._wire == 1
        for prefix in ((0,), (0, 1), (0, 1)):
            remote.next_distribution(prefix)
    assert requests == [{"prefix": [0]}, {"prefix": [0, 1]}, {"prefix": [0, 1]}]


@pytest.mark.parametrize("bad_reply, error", [
    (b'{"error": "no row"}\n', "server error"),
    (b'{"probs": [0.5, 0.5]}\n', "entries"),
    (b'{"probs": [0.5, 0.25]}\n', "failed validation"),
    (b"not json\n", "invalid JSON"),
], ids=["error-record", "short-row", "bad-row", "not-json"])
def test_client_resends_the_whole_prefix_after_an_error(bad_reply, error):
    address, requests = _recording_server([_ROW, bad_reply, _ROW, _ROW])
    with RemoteModel(address) as remote:
        remote.next_distribution((0,))
        with pytest.raises(ProtocolError, match=error):
            remote.next_distribution((0, 1))
        remote.next_distribution((0, 1, 1))
        remote.next_distribution((0, 1, 1, 0))
    assert requests == [{"prefix": [0]}, {"keep": 1, "append": [1]}, {"prefix": [0, 1, 1]},
                        {"keep": 3, "append": [0]}]


def test_equal_reply_lines_give_the_same_distribution(tiny_model):
    address, _ = _recording_server([_ROW, _ROW, b'{"probs": [0.5, 0.25, 0.25] }\n'])
    with RemoteModel(address) as remote:
        first, again, spaced = (remote.next_distribution(p) for p in ((0,), (1,), (0,)))
    assert again is first
    assert spaced is not first and spaced.probs.tobytes() == first.probs.tobytes()
    with ModelServer(tiny_model) as server, RemoteModel(server.address) as remote:
        # Two prefixes that share the default row, which is prepared once.
        assert remote.next_distribution((1, 1)) is remote.next_distribution((0, 0))
        assert remote.next_distribution(()) is not remote.next_distribution((1,))


def _raw_connection(server):
    host, port = server.address.rsplit(":", 1)
    conn = socket.create_connection((host, int(port)), timeout=10)
    fh = conn.makefile("rwb")
    return conn, fh, json.loads(fh.readline())


def _ask(fh, request) -> dict:
    fh.write(json.dumps(request).encode() + b"\n")
    fh.flush()
    return json.loads(fh.readline())


def test_server_serves_wire_1_and_wire_2_requests_on_one_connection():
    model = _PrefixHashModel()

    def row(prefix):
        return {"probs": model.next_distribution(prefix).probs.tolist()}

    with ModelServer(model) as server:
        conn, fh, hello = _raw_connection(server)
        with conn, fh:
            assert hello == {"tokens": ["a", "b", "c", ""], "eos": 3, "wire": 5}
            assert _ask(fh, {"prefix": [0, 1, 2]}) == row((0, 1, 2))
            assert _ask(fh, {"keep": 3, "append": [2, 2]}) == row((0, 1, 2, 2, 2))
            assert _ask(fh, {"keep": 1, "append": [0]}) == row((0, 0))
            assert _ask(fh, {"prefix": [1]}) == row((1,))  # replaces the held prefix
            assert _ask(fh, {"keep": 1, "append": []}) == row((1,))
            assert _ask(fh, {"keep": 0, "append": []}) == row(())


@pytest.mark.parametrize("request_, message", [
    ({"keep": -1, "append": [0]}, "keep must be in 0..2"),
    ({"keep": True, "append": [0]}, "keep must be an integer"),
    ({"keep": 3, "append": [0]}, "keep must be in 0..2"),
    ({"keep": 1.0, "append": [0]}, "keep must be an integer"),
    ({"keep": 1}, "missing required field 'append'"),
    ({"keep": 1, "append": [4]}, "prefix ids outside 0..3"),
    ({"keep": 1, "append": [True]}, "append must be a list of integers"),
    ({"keep": 1, "append": [0], "prefix": [0]}, "unknown field 'prefix'"),
], ids=["negative", "bool", "past-the-held-prefix", "real", "no-append", "id-out-of-range",
        "bool-id", "with-prefix"])
def test_server_rejects_bad_deltas_and_keeps_serving(request_, message):
    model = _PrefixHashModel()
    with ModelServer(model) as server:
        conn, fh, _ = _raw_connection(server)
        with conn, fh:
            assert "error" in _ask(fh, {"keep": 0, "append": [0]})  # no prefix answered yet
            assert "probs" in _ask(fh, {"prefix": [0, 1]})
            reply = _ask(fh, request_)
            assert list(reply) == ["error"] and message in reply["error"], reply
            # An error drops the held prefix, so only a whole prefix is served next.
            assert "answered request" in _ask(fh, {"keep": 0, "append": []})["error"]
            assert _ask(fh, {"prefix": [2]})["probs"] == model.next_distribution((2,)).probs.tolist()


class _FailingModel(_PrefixHashModel):
    def next_distribution(self, prefix):
        if tuple(prefix) == (1, 1):
            raise ValueError("no row for 1 1")
        return super().next_distribution(prefix)


def test_client_recovers_from_a_model_error_with_the_whole_prefix():
    model = _FailingModel()
    with ModelServer(model) as server, RemoteModel(server.address) as remote:
        assert remote.next_distribution((1,)) is remote.next_distribution((1,))
        with pytest.raises(ProtocolError, match="no row for 1 1"):
            remote.next_distribution((1, 1))
        for prefix in ((1, 2), (1, 2, 0), (1,)):
            assert remote.next_distribution(prefix).probs.tobytes() == \
                model.next_distribution(prefix).probs.tobytes()


def test_server_closes_a_connection_whose_request_line_is_over_the_cap(tiny_model):
    # Valid JSON but for its length: the parent served it. Exactly LINE_CAP + 1
    # bytes, so that the server reads all of it before it closes.
    head, tail = b'{"prefix": [', b"0]}"
    request = head + b" " * (LINE_CAP + 1 - len(head) - len(tail)) + tail
    with ModelServer(tiny_model) as server:
        conn, fh, _ = _raw_connection(server)
        with conn, fh:
            conn.sendall(request)
            conn.shutdown(socket.SHUT_WR)
            reply = json.loads(fh.readline())
            assert list(reply) == ["error"] and "longer than" in reply["error"]
            assert fh.readline() == b""
        with RemoteModel(server.address) as remote:  # other connections are served
            assert remote.next_distribution((0,)).probs.tolist() == [0.2, 0.2, 0.6]


def test_client_rejects_a_reply_line_over_the_cap():
    # A one-token vocabulary's row, valid JSON but for its length, sent
    # without a newline: the client reads exactly LINE_CAP + 1 bytes of it.
    head, tail = b'{"probs": [1.', b"]}"
    reply = head + b"0" * (LINE_CAP + 1 - len(head) - len(tail)) + tail
    hello = json.dumps({"tokens": [""], "eos": 0, "wire": 2}).encode() + b"\n"
    with RemoteModel(_raw_server([hello, reply])) as remote:
        with pytest.raises(ProtocolError, match=f"longer than {LINE_CAP} bytes"):
            remote.next_distribution(())
        with pytest.raises(ProtocolError, match="connection failed"):
            remote.next_distribution(())  # the rest of the line was never read
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["decode", "--model", f"remote:{_raw_server([hello, reply])}",
                     "--prompt", "", "--strategy", "greedy", "--out", ""])
    assert code == 3 and "longer than" in err.getvalue()


class _ManyRowsModel(_PrefixHashModel):
    """More distinct rows than ROW_CACHE, so both sides' caches evict."""

    rows = [Distribution(row) for row in np.random.default_rng(9).dirichlet(np.ones(4), 1500)]


def test_threads_sharing_a_server_and_a_client_read_the_local_rows():
    model = _ManyRowsModel()
    errors = []

    def walk(remote, seed):
        rng = np.random.default_rng(seed)
        prefix = ()
        try:
            for _ in range(400):
                prefix = prefix[:int(rng.integers(0, len(prefix) + 1))] + (int(rng.integers(4)),)
                got = remote.next_distribution(prefix).probs.tobytes()
                if got != model.next_distribution(prefix).probs.tobytes():
                    errors.append(prefix)
        except Exception as exc:  # reported below: a thread cannot fail the test itself
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ModelServer(model) as server, RemoteModel(server.address) as shared:
            own = [RemoteModel(server.address) for _ in range(3)]
            try:
                threads = [threading.Thread(target=walk, args=(remote, i))
                           for i, remote in enumerate(own + [shared] * 3)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
            finally:
                for remote in own:
                    remote.close()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def test_row_caches_drop_their_oldest_rows_past_row_cache(monkeypatch):
    """Past ROW_CACHE distinct rows a wire-5 connection's row ids start again
    at 0; the server's line cache, and the line interning of a client of an
    older server, drop their oldest rows."""
    model = _ManyRowsModel()
    # Prefixes with distinct rows, 100 more than either cache holds.
    prefixes, seen = [], set()
    for n in range(4**6):
        prefix = tuple(n >> shift & 3 for shift in range(0, 12, 2))
        row = id(model.next_distribution(prefix))
        if row not in seen:
            seen.add(row)
            prefixes.append(prefix)
        if len(prefixes) == ROW_CACHE + 100:
            break
    with ModelServer(model) as server, RemoteModel(server.address) as remote:
        first = remote.next_distribution(prefixes[0])
        for prefix in prefixes[1:]:
            remote.next_distribution(prefix)
        assert len(remote._by_id) == 100 and remote._rows == {}
        assert first not in remote._by_id and len(server._lines) == ROW_CACHE
        again = remote.next_distribution(prefixes[0])
        assert again is not first and again is remote._by_id[100]
        assert again.probs.tobytes() == model.next_distribution(prefixes[0]).probs.tobytes()
    serve_wire(monkeypatch, 4)
    with ModelServer(model) as server, RemoteModel(server.address) as remote:
        first = remote.next_distribution(prefixes[0])
        for prefix in prefixes[1:]:
            remote.next_distribution(prefix)
        assert len(remote._rows) == len(server._lines) == ROW_CACHE
        assert first not in remote._rows.values()
        assert model.next_distribution(prefixes[0]) not in server._lines
        again = remote.next_distribution(prefixes[0])
        assert again is not first
        assert again.probs.tobytes() == model.next_distribution(prefixes[0]).probs.tobytes()
        assert len(remote._rows) == len(server._lines) == ROW_CACHE


# -- wire 3: a batch of branches per request ---------------------------------


def _rows_of(model, prefixes):
    return [{"probs": model.next_distribution(p).probs.tolist()} for p in prefixes]


def _ask_batch(fh, request, count) -> list[dict]:
    """Send request and read count reply lines, or one if the first is an error."""
    replies = [_ask(fh, request)]
    while "error" not in replies[0] and len(replies) < count:
        replies.append(json.loads(fh.readline()))
    return replies


def test_server_answers_branches_off_the_kept_prefix_and_holds_it():
    model = _PrefixHashModel()
    with ModelServer(model) as server:
        conn, fh, hello = _raw_connection(server)
        with conn, fh:
            assert hello["wire"] == 5
            assert _ask(fh, {"prefix": [0, 1, 2]}) == _rows_of(model, [(0, 1, 2)])[0]
            request = {"keep": 2, "branches": [[2], [], [0, 1]]}
            assert _ask_batch(fh, request, 3) == _rows_of(model, [(0, 1, 2), (0, 1), (0, 1, 0, 1)])
            # The connection now holds (0, 1): keep 2 is its whole length.
            assert "keep must be in 0..2" in _ask(fh, {"keep": 3, "append": []})["error"]
            assert _ask(fh, {"prefix": [0, 1]}) == _rows_of(model, [(0, 1)])[0]
            request = {"keep": 2, "branches": [[3]] * BRANCHES_CAP}
            rows = _rows_of(model, [(0, 1, 3)]) * BRANCHES_CAP
            assert _ask_batch(fh, request, BRANCHES_CAP) == rows
            assert _ask(fh, {"keep": 2, "append": [3, 3]}) == _rows_of(model, [(0, 1, 3, 3)])[0]


@pytest.mark.parametrize("request_, message", [
    ({"keep": -1, "branches": [[0]]}, "keep must be in 0..2"),
    ({"keep": 3, "branches": [[0]]}, "keep must be in 0..2"),
    ({"keep": True, "branches": [[0]]}, "keep must be an integer"),
    ({"keep": 1.0, "branches": [[0]]}, "keep must be an integer"),
    ({"branches": [[0]]}, "missing required field 'keep'"),
    ({"keep": 1, "branches": [[0], [True]]}, "branches must be lists of integers"),
    ({"keep": 1, "branches": [[0.0]]}, "branches must be lists of integers"),
    ({"keep": 1, "branches": [["0"]]}, "branches must be lists of integers"),
    ({"keep": 1, "branches": [[4]]}, "prefix ids outside 0..3"),
    ({"keep": 1, "branches": [[0], [-1]]}, "prefix ids outside 0..3"),
    ({"keep": 1, "branches": [0]}, "branches must be a list of lists"),
    ({"keep": 1, "branches": "0"}, "branches must be a list of lists"),
    ({"keep": 1, "branches": []}, f"branches must hold 1..{BRANCHES_CAP} lists, got 0"),
    ({"keep": 1, "branches": [[0]] * (BRANCHES_CAP + 1)}, f"got {BRANCHES_CAP + 1}"),
    ({"keep": 1, "branches": [[0]], "append": [0]}, "unknown field 'append'"),
    ({"keep": 1, "branches": [[0]], "prefix": [0]}, "unknown field 'prefix'"),
], ids=["negative-keep", "keep-past-the-held-prefix", "bool-keep", "real-keep", "no-keep",
        "bool-id", "real-id", "string-id", "id-past-the-vocabulary", "negative-id",
        "branch-not-a-list", "branches-not-a-list", "no-branches", "over-the-cap",
        "with-append", "with-prefix"])
def test_server_rejects_bad_branches_with_one_line_and_keeps_serving(request_, message):
    model = _PrefixHashModel()
    with ModelServer(model) as server:
        conn, fh, _ = _raw_connection(server)
        with conn, fh:
            # Before any answered request there is no prefix to keep.
            assert "answered request" in _ask(fh, {"keep": 0, "branches": [[0]]})["error"]
            assert "probs" in _ask(fh, {"prefix": [0, 1]})
            reply = _ask(fh, request_)
            assert list(reply) == ["error"] and message in reply["error"], reply
            # One error line, and the held prefix is gone.
            assert "answered request" in _ask(fh, {"keep": 0, "branches": [[0]]})["error"]
            assert _ask_batch(fh, {"prefix": [2]}, 1) == _rows_of(model, [(2,)])


def test_server_answers_a_batch_whose_model_fails_on_a_branch_with_one_error_line():
    model = _FailingModel()
    with ModelServer(model) as server:
        conn, fh, _ = _raw_connection(server)
        with conn, fh:
            assert "probs" in _ask(fh, {"prefix": [1]})
            reply = _ask(fh, {"keep": 1, "branches": [[0], [1], [2]]})
            assert list(reply) == ["error"] and "no row for 1 1" in reply["error"]
            assert _ask(fh, {"prefix": [2]}) == _rows_of(model, [(2,)])[0]


_HELLO_3 = {"tokens": ["a", "b", ""], "eos": 2, "wire": 3}


def _cursors(model, keys):
    return [model.start(key) for key in keys]


def test_client_sends_one_branches_request_per_batch_to_a_wire_3_server():
    address, requests = _recording_server([_ROW, _ROW * 2, _ROW, _ROW * 3, _ROW], _HELLO_3)
    with RemoteModel(address) as remote:
        assert remote._wire == 3
        # Nothing held yet: the first prefix goes whole, the rest as branches.
        rows = remote.next_distributions(_cursors(remote, [(0, 1), (0, 1, 1), (0, 0)]))
        assert len(rows) == 3 and rows[0] is rows[1] is rows[2]
        remote.next_distribution((0, 1, 1))  # held is (0,) after the batch
        remote.next_distributions(_cursors(remote, [(0, 1, 1, 0), (0, 1, 1, 1), (0, 1)]))
        remote.next_distributions(_cursors(remote, [(0, 1, 0)]))  # one cursor: a delta
    assert requests == [
        {"prefix": [0, 1]},
        {"keep": 1, "branches": [[1, 1], [0]]},
        {"keep": 1, "append": [1, 1]},
        {"keep": 2, "branches": [[1, 0], [1, 1], []]},
        {"keep": 2, "append": [0]},
    ]


def test_client_splits_batches_past_the_branch_cap():
    count = 2 * BRANCHES_CAP + 5
    address, requests = _recording_server(
        [_ROW, _ROW * BRANCHES_CAP, _ROW * BRANCHES_CAP, _ROW * 4], _HELLO_3)
    with RemoteModel(address) as remote:
        keys = [(0,) + (1,) * i for i in range(count)]
        assert len(remote.next_distributions(_cursors(remote, keys))) == count
    assert requests[0] == {"prefix": [0]}
    assert [len(r["branches"]) for r in requests[1:]] == [BRANCHES_CAP, BRANCHES_CAP, 4]
    assert [r["keep"] for r in requests[1:]] == [1, 1, 1]
    assert [b for r in requests[1:] for b in r["branches"]] == [[1] * i for i in range(1, count)]


@pytest.mark.parametrize("wire", [1, 2])
def test_client_sends_one_request_per_cursor_to_an_older_server(wire):
    hello = {"tokens": ["a", "b", ""], "eos": 2, **({"wire": 2} if wire == 2 else {})}
    address, requests = _recording_server([_ROW] * 3, hello)
    with RemoteModel(address) as remote:
        remote.next_distributions(_cursors(remote, [(0,), (0, 1), (1,)]))
    if wire == 1:
        assert requests == [{"prefix": [0]}, {"prefix": [0, 1]}, {"prefix": [1]}]
    else:
        assert requests == [{"prefix": [0]}, {"keep": 1, "append": [1]},
                            {"keep": 0, "append": [1]}]


def test_client_keeps_the_connection_after_an_error_line_to_a_batch():
    address, requests = _recording_server(
        [_ROW, b'{"error": "no rows"}\n', _ROW, _ROW * 2], _HELLO_3)
    with RemoteModel(address) as remote:
        remote.next_distribution((0,))
        with pytest.raises(ProtocolError, match="server error: no rows"):
            remote.next_distributions(_cursors(remote, [(0, 1), (0, 0)]))
        remote.next_distributions(_cursors(remote, [(1,), (1, 0), (1, 1)]))
    assert requests == [{"prefix": [0]}, {"keep": 1, "branches": [[1], [0]]},
                        {"prefix": [1]}, {"keep": 1, "branches": [[0], [1]]}]


@pytest.mark.parametrize("reply, error", [
    (_ROW + b'{"error": "late"}\n' + _ROW, "server error: late"),
    (b'{"probs": [0.5, 0.5]}\n' + _ROW * 2, "entries"),
    (b"not json\n" + _ROW * 2, "invalid JSON"),
], ids=["error-after-a-row", "short-first-row", "first-line-not-json"])
def test_client_closes_the_connection_when_batch_reply_lines_would_be_left(reply, error):
    address, _ = _recording_server([_ROW, reply, _ROW], _HELLO_3)
    with RemoteModel(address) as remote:
        remote.next_distribution((0,))
        with pytest.raises(ProtocolError, match=error):
            remote.next_distributions(_cursors(remote, [(0, 1), (0, 0), (1,)]))
        with pytest.raises(ProtocolError, match="connection failed"):
            remote.next_distribution((0,))


def test_client_takes_a_short_batch_reply_as_a_closed_connection():
    address, _ = _recording_server([_ROW, _ROW], _HELLO_3, hang_up=True)
    with RemoteModel(address) as remote:
        remote.next_distribution((0,))
        with pytest.raises(ProtocolError, match="connection closed by server"):
            remote.next_distributions(_cursors(remote, [(0, 1), (0, 0)]))
    # The CLI exits 3. Every step of this decode is at high entropy, so its
    # first step reads the empty prefix, then its trials' second tokens in
    # one batch, which gets one row of three.
    row = b'{"probs": [0.5, 0.5, 0.0]}\n'
    address, _ = _recording_server([row, row], _HELLO_3, hang_up=True)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["decode", "--model", f"remote:{address}", "--prompt", "", "--strategy",
                     "cntp", "--h-min", "0.01", "--h-max", "0.1", "--n-max", "3",
                     "--global-cap", "3", "--out", ""])
    assert code == 3 and "connection closed by server" in err.getvalue()


# -- wire 4: branches off numbered slots -------------------------------------


def test_server_numbers_a_slot_per_answered_row_and_reads_branches_off_them():
    model = _PrefixHashModel()
    with ModelServer(model) as server:
        conn, fh, _ = _raw_connection(server)
        with conn, fh:
            # Slot 0; the older forms answer rows into the table too (slot 1).
            assert _ask(fh, {"slots": [-1], "branches": [[0, 1]]}) == _rows_of(model, [(0, 1)])[0]
            assert _ask(fh, {"prefix": [2]}) == _rows_of(model, [(2,)])[0]
            request = {"slots": [0, 0, 1, -1], "branches": [[2], [], [0, 0], [1]]}
            prefixes = [(0, 1, 2), (0, 1), (2, 0, 0), (1,)]
            assert _ask_batch(fh, request, 4) == _rows_of(model, prefixes)  # slots 2-5
            assert _ask(fh, {"slots": [2], "branches": [[3, 3]]}) == \
                _rows_of(model, [(0, 1, 2, 3, 3)])[0]
            assert "slots must be in -1..6" in _ask(fh, {"slots": [7], "branches": [[0]]})["error"]


def test_server_clears_its_slot_table_before_a_batch_that_would_pass_the_cap(monkeypatch):
    monkeypatch.setattr(models, "SLOT_CAP", 3)
    model = _PrefixHashModel()
    with ModelServer(model) as server:
        conn, fh, _ = _raw_connection(server)
        with conn, fh:
            _ask_batch(fh, {"slots": [-1, -1], "branches": [[0], [1]]}, 2)  # slots 0-1
            # 2 + 2 > 3: read off the old slots, then (0, 2) and (1, 2) take 0 and 1.
            request = {"slots": [0, 1], "branches": [[2], [2]]}
            assert _ask_batch(fh, request, 2) == _rows_of(model, [(0, 2), (1, 2)])
            assert _ask(fh, {"slots": [1], "branches": [[0]]}) == \
                _rows_of(model, [(1, 2, 0)])[0]  # slot 2: 3 slots, at the cap
            assert _ask(fh, {"slots": [2], "branches": [[]]}) == _rows_of(model, [(1, 2, 0)])[0]
            assert "slots must be in -1..0" in _ask(fh, {"slots": [1], "branches": [[]]})["error"]


@pytest.mark.parametrize("request_, message", [
    ({"slots": [1], "branches": [[0]]}, "slots must be in -1..0"),
    ({"slots": [-2], "branches": [[0]]}, "slots must be in -1..0"),
    ({"slots": [True], "branches": [[0]]}, "slots must be a list of integers"),
    ({"slots": [0.0], "branches": [[0]]}, "slots must be a list of integers"),
    ({"slots": ["0"], "branches": [[0]]}, "slots must be a list of integers"),
    ({"slots": 0, "branches": [[0]]}, "slots must be a list of integers"),
    ({"slots": [0, 0], "branches": [[0]]}, "slots and branches must be as long, got 2 and 1"),
    ({"slots": [0], "branches": [[0], [1]]}, "slots and branches must be as long, got 1 and 2"),
    ({"slots": [], "branches": []}, f"branches must hold 1..{BRANCHES_CAP} lists, got 0"),
    ({"slots": [-1] * (BRANCHES_CAP + 1), "branches": [[0]] * (BRANCHES_CAP + 1)},
     f"got {BRANCHES_CAP + 1}"),
    ({"slots": [0]}, "missing required field 'branches'"),
    ({"slots": [0], "branches": [[4]]}, "prefix ids outside 0..3"),
    ({"slots": [0], "branches": [[True]]}, "branches must be lists of integers"),
    ({"slots": [0], "branches": [0]}, "branches must be a list of lists"),
    ({"slots": [0], "branches": [[0]], "keep": 0}, "unknown field 'keep'"),
], ids=["slot-past-the-table", "slot-below-minus-one", "bool-slot", "real-slot", "string-slot",
        "slots-not-a-list", "more-slots", "more-branches", "no-branches", "over-the-cap",
        "branches-missing", "id-past-the-vocabulary", "bool-id", "branch-not-a-list",
        "extra-field"])
def test_server_rejects_bad_slot_requests_with_one_line_and_drops_every_slot(request_, message):
    model = _PrefixHashModel()
    with ModelServer(model) as server:
        conn, fh, _ = _raw_connection(server)
        with conn, fh:
            assert "probs" in _ask(fh, {"slots": [-1], "branches": [[0, 1]]})
            reply = _ask(fh, request_)
            assert list(reply) == ["error"] and message in reply["error"], reply
            # One error line, every slot gone, and whole prefixes still served.
            assert "slots must be in -1..-1" in _ask(fh, {"slots": [0], "branches": [[]]})["error"]
            assert _ask_batch(fh, {"slots": [-1], "branches": [[0, 1, 2]]}, 1) == \
                _rows_of(model, [(0, 1, 2)])


# -- wire 5: rows sent once per connection, named by id ----------------------


def _raw_lines(fh, request) -> list[dict]:
    """Send a wire-5 request and read its reply: row lines up to the ids
    line, or one error line."""
    replies = [_ask(fh, request)]
    while "probs" in replies[-1]:
        replies.append(json.loads(fh.readline()))
    return replies


def test_server_sends_each_row_once_per_connection_and_names_rows_by_id():
    model = _PrefixHashModel()
    rows = _rows_of(model, [(0,), (1,), (2,)])
    assert len({json.dumps(row) for row in rows}) == 3
    with ModelServer(model) as server:
        conn, fh, _ = _raw_connection(server)
        with conn, fh:
            request = {"slots": [-1, -1, -1, -1], "branches": [[1], [0], [1], [2]], "rows": True}
            # New rows in first-use order take ids 0-2, then the ids line.
            assert _raw_lines(fh, request) == [rows[1], rows[0], rows[2],
                                               {"rows": [0, 1, 0, 2], "at": 0}]
            # Sent rows go by id alone; the branches read off slots 0-3.
            request = {"slots": [3, 1, 0], "branches": [[], [], []], "rows": True}
            assert _raw_lines(fh, request) == [{"rows": [2, 1, 0], "at": 3}]
            # The older forms still get whole rows, and number no row.
            assert _ask(fh, {"slots": [0], "branches": [[]]}) == rows[1]
            request = {"slots": [-1, -1], "branches": [[0, 0], [0]], "rows": True}
            new = _rows_of(model, [(0, 0)])[0]
            assert _raw_lines(fh, request) == [new, {"rows": [3, 1], "at": 3}]


def test_server_clears_its_row_ids_before_new_rows_would_pass_row_cache(monkeypatch):
    monkeypatch.setattr(models, "ROW_CACHE", 3)
    model = _PrefixHashModel()
    rows = _rows_of(model, [(0,), (1,), (2,), (0, 0)])
    assert len({json.dumps(row) for row in rows}) == 4
    with ModelServer(model) as server:
        conn, fh, _ = _raw_connection(server)
        with conn, fh:
            request = {"slots": [-1, -1], "branches": [[0], [1]], "rows": True}
            assert _raw_lines(fh, request) == [rows[0], rows[1], {"rows": [0, 1], "at": 0}]
            request = {"slots": [-1, -1], "branches": [[2], [0]], "rows": True}
            assert _raw_lines(fh, request) == [rows[2], {"rows": [2, 0], "at": 2}]  # 3: full
            # One new row past 3: the ids clear, and every row of the request
            # is sent again from id 0.
            request = {"slots": [-1, -1, -1], "branches": [[1], [0, 0], [1]], "rows": True}
            assert _raw_lines(fh, request) == [rows[1], rows[3], {"rows": [0, 1, 0], "at": 0}]


@pytest.mark.parametrize("request_, message", [
    ({"slots": [-1], "branches": [[0]], "rows": False}, "rows must be true"),
    ({"slots": [-1], "branches": [[0]], "rows": 1}, "rows must be true"),
    ({"slots": [-1], "branches": [[0]], "rows": "true"}, "rows must be true"),
    ({"slots": [-1], "branches": [[0]], "rows": None}, "rows must be true"),
    ({"slots": [-1], "branches": [[0]], "rows": [0]}, "rows must be true"),
    ({"slots": [-1], "branches": [[0]], "rows": True, "at": 0}, "unknown field 'at'"),
    ({"slots": [1], "branches": [[0]], "rows": True}, "slots must be in -1..0"),
    ({"prefix": [0], "rows": True}, "rows goes only with slots"),
    ({"keep": 0, "append": [0], "rows": True}, "rows goes only with slots"),
    ({"keep": 0, "branches": [[0]], "rows": True}, "rows goes only with slots"),
], ids=["false", "one", "string", "null", "list", "extra-field", "slot-past-the-table",
        "on-prefix", "on-append", "on-branches"])
def test_server_rejects_bad_wire_5_requests_and_drops_every_slot_and_row_id(request_, message):
    model = _PrefixHashModel()
    first, second = _rows_of(model, [(0, 1), (0, 1, 2)])
    with ModelServer(model) as server:
        conn, fh, _ = _raw_connection(server)
        with conn, fh:
            request = {"slots": [-1], "branches": [[0, 1]], "rows": True}
            assert _raw_lines(fh, request) == [first, {"rows": [0], "at": 0}]
            reply = _ask(fh, request_)
            assert list(reply) == ["error"] and message in reply["error"], reply
            # One error line; every slot and every row id is gone.
            assert "slots must be in -1..-1" in _ask(fh, {"slots": [0], "branches": [[]],
                                                          "rows": True})["error"]
            request = {"slots": [-1, -1], "branches": [[0, 1, 2], [0, 1]], "rows": True}
            assert _raw_lines(fh, request) == [second, first, {"rows": [0, 1], "at": 0}]


_HELLO_5 = {"tokens": ["a", "b", ""], "eos": 2, "wire": 5}


def _ids_line(ids, at) -> bytes:
    return json.dumps({"rows": ids, "at": at}).encode() + b"\n"


def test_client_names_each_cursor_by_its_parents_slot():
    address, requests = _recording_server(
        [_ROW + _ids_line([0], 0)] + [_ids_line([0] * n, 1) for n in (3, 1, 1, 1)], _HELLO_5)
    with RemoteModel(address) as remote:
        assert remote._wire == 5
        root = remote.start((0, 1))
        row = _read(remote, root)  # slot 0
        one, zero = remote.advance([root, root], [1, 0])
        rows = remote.next_distributions([one, zero, remote.start((1,))])  # slots 1-3
        assert rows == [row] * 3 and rows[0] is row  # one Distribution per row id
        _read(remote, _stepped(remote, one, 0))  # slot 4
        remote.next_distribution((1,))  # a prefix starts a cursor of its own: whole
        _read(remote, _stepped(remote, one, 0, 1))  # its parent was never read: whole
    assert requests == [
        {"slots": [-1], "branches": [[0, 1]], "rows": True},
        {"slots": [0, 0, -1], "branches": [[1], [0], [1]], "rows": True},
        {"slots": [1], "branches": [[0]], "rows": True},
        {"slots": [-1], "branches": [[1]], "rows": True},
        {"slots": [-1], "branches": [[0, 1, 1, 0, 1]], "rows": True},
    ]


def test_client_starts_a_slot_generation_when_the_servers_table_clears(monkeypatch):
    monkeypatch.setattr(models, "SLOT_CAP", 3)
    address, requests = _recording_server(
        [_ROW + _ids_line([0], 0)] + [_ids_line([0] * n, 1) for n in (2, 1, 1, 1)], _HELLO_5)
    with RemoteModel(address) as remote:
        root = remote.start((0,))
        _read(remote, root)
        one, zero = remote.advance([root, root], [1, 0])
        remote.next_distributions([one, zero])  # 3 slots: the cap
        grown = _stepped(remote, one, 1)
        _read(remote, grown)  # past it: a new generation, in which this takes slot 0
        _read(remote, _stepped(remote, zero, 0))  # zero's slot is of the old generation
        _read(remote, _stepped(remote, grown, 1))
    assert requests == [
        {"slots": [-1], "branches": [[0]], "rows": True},
        {"slots": [0, 0], "branches": [[1], [0]], "rows": True},
        {"slots": [1], "branches": [[1]], "rows": True},
        {"slots": [-1], "branches": [[0, 0, 0]], "rows": True},
        {"slots": [0], "branches": [[1]], "rows": True},
    ]


def test_client_drops_its_slots_and_row_ids_on_an_error_line_and_closes_on_a_bad_row():
    address, requests = _recording_server(
        [_ROW + _ids_line([0], 0), b'{"error": "no rows"}\n', _ROW + _ids_line([0], 0),
         b'{"probs": [0.5, 0.25]}\n' + _ids_line([1], 1)], _HELLO_5)
    with RemoteModel(address) as remote:
        root = remote.start((0,))
        _read(remote, root)
        with pytest.raises(ProtocolError, match="server error: no rows"):
            remote.next_distributions(remote.advance([root, root], [1, 0]))
        assert remote._by_id == []  # the server dropped its row ids too
        one = _stepped(remote, root, 1)
        _read(remote, one)  # root's slot went with the error: whole again
        # A new row the client cannot hold leaves the row table out of step.
        with pytest.raises(ProtocolError, match="failed validation"):
            _read(remote, _stepped(remote, one, 1))
        with pytest.raises(ProtocolError, match="connection failed"):
            _read(remote, _stepped(remote, one, 0))
    assert requests == [
        {"slots": [-1], "branches": [[0]], "rows": True},
        {"slots": [0, 0], "branches": [[1], [0]], "rows": True},
        {"slots": [-1], "branches": [[0, 1]], "rows": True},
        {"slots": [0], "branches": [[1]], "rows": True},
    ]


_NAN_ROW = b'{"probs": [NaN, 0.5, 0.5]}\n'


@pytest.mark.parametrize("reply, error", [
    (_ROW + _ids_line([1, 0], 0), r"rows must be 2 ids in 0\.\.0"),
    (_ROW + _ids_line([0, -1], 0), r"rows must be 2 ids in 0\.\.0"),
    (_ids_line([0, 0], 0), r"rows must be 2 ids in 0\.\.-1"),
    (_ROW + _ids_line([0], 0), r"rows must be 2 ids"),
    (_ROW + _ids_line([0, 0, 0], 0), r"rows must be 2 ids"),
    (_ROW + _ids_line([1, 1], 1), "at must be 0 or 0"),
    (_ROW + _ids_line([0, True], 0), "rows must be a list of integers"),
    (_ROW + _ids_line([0, 0], 0.0), "at must be an integer"),
    (_ROW * 3, "unknown field 'probs'"),
    (_ROW + b'{"rows": [0, 0]}\n', "missing required field 'at'"),
    (_ROW + b'{"rows": [0, 0], "at": 0, "ok": 1}\n', "unknown field 'ok'"),
    (b'{"probs": [0.5, 0.5]}\n' + _ids_line([0, 0], 0), "entries"),
    (_NAN_ROW + _ids_line([0, 0], 0), "failed validation"),
    (_ROW + b'{"error": "late"}\n', "server error: late"),
    (_ROW + b"not json\n", "invalid JSON"),
], ids=["id-past-the-table", "negative-id", "id-without-a-row", "fewer-ids", "more-ids",
        "wrong-at", "bool-id", "real-at", "no-ids-line", "no-at", "extra-field", "short-row",
        "nan-row", "error-after-a-row", "ids-line-not-json"])
def test_client_closes_the_connection_on_a_bad_wire_5_reply(reply, error):
    address, _ = _recording_server([reply], _HELLO_5)
    with RemoteModel(address) as remote:
        root = remote.start((0,))
        with pytest.raises(ProtocolError, match=error):
            remote.next_distributions([root, _stepped(remote, root, 1)])
        with pytest.raises(ProtocolError, match="connection failed"):
            _read(remote, root)


def test_client_checks_that_new_rows_keep_the_table_within_row_cache(monkeypatch):
    monkeypatch.setattr(models, "ROW_CACHE", 2)
    address, _ = _recording_server(
        [_ROW + _ids_line([0], 0), _ROW + _ids_line([1], 1), _ROW + _ids_line([2], 2)], _HELLO_5)
    with RemoteModel(address) as remote:
        for tok in (0, 1):
            remote.next_distribution((tok,))
        with pytest.raises(ProtocolError, match="at most 2, got 2"):
            remote.next_distribution((2,))
    # The CLI exits 3 on a bad wire-5 reply.
    address, _ = _recording_server([_ROW + _ids_line([1], 0)], _HELLO_5, hang_up=True)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["decode", "--model", f"remote:{address}", "--prompt", "", "--strategy",
                     "greedy", "--out", ""])
    assert code == 3 and "rows must be 1 ids in 0..0" in err.getvalue()


def test_a_deep_cursor_whose_parent_is_stale_sends_its_whole_prefix(monkeypatch):
    """A cursor 5 000 tokens deep builds its prefix in a loop: a recursive
    walk up its parents would pass Python's recursion limit."""
    monkeypatch.setattr(models, "SLOT_CAP", 1)
    model = load_kgram_model(bundled_path("kgram.kgram"))
    tokens = tuple(i % len(model.vocabulary) for i in range(5000))
    with ModelServer(model) as server, RemoteModel(server.address) as remote:
        parent = _stepped(remote, remote.start(()), *tokens[:-1])
        _read(remote, parent)  # slot 0, the whole table
        remote.next_distribution(())  # the table clears: parent's slot is stale
        sent = []
        exchange = remote._exchange
        remote._exchange = lambda request=b"": sent.append(request) or exchange(request)
        row = _read(remote, _stepped(remote, parent, tokens[-1]))
    assert row.probs.tobytes() == model.next_distribution(tokens).probs.tobytes()
    assert json.loads(sent[0]) == {"slots": [-1], "branches": [list(tokens)], "rows": True}


def _remote_suite_pass() -> tuple[list[int], list[int]]:
    """The byte lengths of the requests RemoteModel writes, and of the reply
    lines it reads, over the remote benchmark's set: the 20 bundled k-gram
    tasks under greedy, stochastic and cntp with global_cap 128 at suite
    seed 0, decoded through a loopback server."""
    model, _, config = _kgram_cases(128)
    tasks = load_tasks(bundled_path("kgram.tasks"))
    sent, read = [], []
    with ModelServer(model) as server, RemoteModel(server.address) as remote:
        exchange = remote._exchange

        def counted(request=b""):
            if request:
                sent.append(len(request))
            read.append(len(line := exchange(request)))
            return line

        remote._exchange = counted
        for strategy in ("greedy", "stochastic", "cntp"):
            run_suite(remote, tasks, strategy, config, [0])
    return sent, read


def test_a_remote_suite_pass_sends_at_most_wire_2s_request_bytes():
    """The pass's requests take at most the 609 188 bytes that wire 2 sent
    (wire 3's cross-lane batches sent 4 777 383), in no more than the 868
    requests that wire 3 made."""
    sent, _ = _remote_suite_pass()
    assert sum(sent) <= 609_188 and len(sent) <= 868, (sum(sent), len(sent))


def test_a_remote_suite_pass_reads_each_row_once_and_ids_after():
    """Over wire 5 the pass reads at most one ids line per request and one
    row line per row of the model (868 + 187 lines), and at most 1 MB.
    Wire 4 sent a row line per branch: 12 163 027 bytes in 20 898 lines."""
    _, read = _remote_suite_pass()
    assert len(read) <= 868 + 187 and sum(read) <= 1_000_000, (sum(read), len(read))


def _kgram_cases(global_cap: int):
    """The bundled k-gram model, and each bundled task's prompt under the
    bundled config capped at global_cap."""
    model = load_kgram_model(bundled_path("kgram.kgram"))
    config = dataclasses.replace(load_config(bundled_path("kgram.config.json")),
                                 global_cap=global_cap)
    vocab = model.vocabulary
    prompts = [vocab.sequence(vocab.encode(task.prompt))
               for task in load_tasks(bundled_path("kgram.tasks"))]
    return model, prompts, config


def _beam_4(model, prompt, config):
    return beam_search_decode(model, prompt, config, 4)


def _exact(outcome):
    """An outcome's tokens, ledger and trace, every float spelled exactly."""
    def hexed(x):
        return None if x is None else float.hex(x)
    trace = [(hexed(t.confidence), t.n_trials, hexed(t.chosen_ppl), hexed(t.chosen_prob))
             for t in outcome.per_step_trace]
    return outcome.sequence.tokens, outcome.cost, trace


def _assert_cntp_and_beam_decode_through_a_server_as_locally(wire):
    model, prompts, config = _kgram_cases(64)
    multi_trial_steps = 0
    with ModelServer(model) as server, RemoteModel(server.address) as remote:
        assert remote._wire == wire
        for prompt in prompts:
            for decode, seeds in ((cntp_decode, (0, 1)), (_beam_4, (0,))):
                for seed in seeds:
                    seeded = config.with_seed(seed)
                    local, over_wire = (decode(m, prompt, seeded) for m in (model, remote))
                    assert _exact(over_wire) == _exact(local)
                    multi_trial_steps += local.cost.high_entropy_steps
    assert multi_trial_steps > 0


@pytest.mark.parametrize("wire", [5, 4, 3, 2])
def test_cntp_and_beam_decode_through_a_server_as_locally(monkeypatch, wire):
    """cntp and beam:4 over a wire-5 ModelServer, whose slots and row ids
    they use, and over stubs that speak only wire 4 (spoken to as wire 3),
    wire 3 or wire 2, equal the local decodes."""
    serve_wire(monkeypatch, wire)
    _assert_cntp_and_beam_decode_through_a_server_as_locally(wire)


def test_cntp_and_beam_decode_as_locally_while_the_slot_table_rolls_over(monkeypatch):
    """With a 5-slot table, cleared every few requests, both ends still agree
    on every slot: the decodes equal the local ones."""
    monkeypatch.setattr(models, "SLOT_CAP", 5)
    generations = set()
    named = RemoteModel._named
    monkeypatch.setattr(RemoteModel, "_named",
                        lambda self, batch: generations.add(id(self._generation))
                        or named(self, batch))
    _assert_cntp_and_beam_decode_through_a_server_as_locally(5)
    assert len(generations) > 2


def test_cntp_and_beam_decode_as_locally_while_slots_and_row_ids_roll_over(monkeypatch):
    """With 8 row ids, 8 branches a request and 5 slots, both tables clear
    every few requests, and both ends still agree on every slot and every
    row id: the decodes equal the local ones."""
    monkeypatch.setattr(models, "ROW_CACHE", 8)
    monkeypatch.setattr(models, "BRANCHES_CAP", 8)
    monkeypatch.setattr(models, "SLOT_CAP", 5)
    tables = []
    ask = RemoteModel._ask_ids
    monkeypatch.setattr(RemoteModel, "_ask_ids",
                        lambda self, batch: tables.append(len(self._by_id)) or ask(self, batch))
    _assert_cntp_and_beam_decode_through_a_server_as_locally(5)
    clears = sum(later < earlier for earlier, later in zip(tables, tables[1:]))
    assert max(tables) == 8 and clears > 2


def _longest_trials_less_one(model, prompt, config, outcome) -> int:
    """Sum over the multi-trial steps of outcome of its longest trial's
    length less one, each trial regrown alone from its own stream."""
    vocab = model.vocabulary
    stops = stop_mask(vocab, config.punctuation)
    base = Rng(config.seed)
    tokens, start = outcome.sequence.tokens, len(prompt.tokens)
    at = start
    total = 0
    for step, trace in enumerate(outcome.per_step_trace):
        if trace.n_trials == 1:
            at += 1
            continue
        cursor = model.start(tokens[:at])
        row = _read(model, cursor)
        trials = [_grow_trials(model, cursor, row, config, [base.derive(step, i)],
                               at - start, vocab.eos_id, stops)[::2]
                  for i in range(trace.n_trials)]
        total += max(reads for _, reads in trials)
        best = min(range(len(trials)), key=lambda i: (trials[i][0].ppl, i))
        chosen = trials[best][0].tokens
        assert tokens[at:at + len(chosen)] == chosen
        at += len(chosen)
    assert at == len(tokens)
    return total


def test_a_cntp_decode_makes_one_request_per_step_and_per_lockstep_round(monkeypatch):
    """Over wire 4, as over wire 3, a cntp decode makes total_steps + the sum
    over its multi-trial steps of (longest trial - 1) requests, and a beam:4
    decode one per round, both fewer than their forward passes."""
    requests = []
    original = models._requested_cursors
    monkeypatch.setattr(models, "_requested_cursors",
                        lambda *args: requests.append(args) or original(*args))
    model, prompts, config = _kgram_cases(128)
    config = config.with_seed(3)
    rounds = 0
    with ModelServer(model) as server, RemoteModel(server.address) as remote:
        assert remote._wire == 5
        for prompt in prompts[:6]:
            before = len(requests)
            out = cntp_decode(remote, prompt, config)
            made = len(requests) - before
            extra = _longest_trials_less_one(model, prompt, config, out)
            assert made == out.cost.total_steps + extra
            assert made < out.cost.forward_passes
            rounds += extra
            # beam:4 reads each round's live beams in one request.
            before = len(requests)
            out = _beam_4(remote, prompt, config)
            assert len(requests) - before == out.cost.total_steps < out.cost.forward_passes
    assert rounds > 0


def test_both_ends_send_without_delay_and_a_32_branch_batch_is_fast(monkeypatch):
    """RemoteModel and every ModelServer connection set TCP_NODELAY. Without
    it a wire-3 reply past one segment waits on the client's delayed ACK,
    and a 32-branch round trip took about 44 ms."""
    conns = []
    serve = ModelServer._serve_one
    monkeypatch.setattr(ModelServer, "_serve_one",
                        lambda self, conn: conns.append(conn) or serve(self, conn))
    # A wire-4 server sends every row line on each request, so each reply
    # stays long; a wire-5 one would send them once.
    serve_wire(monkeypatch, 4)
    model = load_kgram_model(bundled_path("kgram.kgram"))
    prompt = model.vocabulary.encode("the ca")
    with ModelServer(model) as server, RemoteModel(server.address) as remote:
        size = len(model.vocabulary)
        branches = [remote.start(prompt + (i % size, i // size)) for i in range(32)]
        remote.next_distributions(branches)  # answered: the server set its option
        for sock in (remote._sock, conns[0]):
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        times = []
        for _ in range(15):
            start = time.perf_counter()
            rows = remote.next_distributions(branches)
            times.append(time.perf_counter() - start)
    # The reply lines fill more than the server's 8 KiB write buffer.
    assert sum(len(json.dumps({"probs": row.probs.tolist()})) + 1 for row in rows) > 8192
    assert sorted(times)[len(times) // 2] < 0.020
