"""Model backends: scripted lookup tables, add-alpha k-gram character
models, and a remote client speaking newline-delimited JSON.

Every backend exposes the same two members: a vocabulary and a
deterministic next_distribution(prefix). Backends emit probabilities
directly; nothing here applies temperature or truncation.
"""

from __future__ import annotations

import json
import math
import socket
import threading
from abc import ABC, abstractmethod

import numpy as np

from .core import Distribution, Sequence, TokenId, Vocabulary


class ModelFileError(ValueError):
    """A model or task file failed to parse or validate."""


class ProtocolError(RuntimeError):
    """The remote backend misbehaved: connection failure, malformed record,
    or a response distribution that fails validation."""


def _prefix_key(prefix) -> tuple[TokenId, ...]:
    if isinstance(prefix, Sequence):
        return prefix.tokens
    if isinstance(prefix, tuple):
        return prefix
    return tuple(prefix)


class ModelSource(ABC):
    """Deterministic next-token distribution source.

    next_distribution must return an identical distribution for identical
    prefixes, and must stay consistent under concurrent calls.
    """

    vocabulary: Vocabulary

    @abstractmethod
    def next_distribution(self, prefix) -> Distribution:
        """Full-vocabulary distribution after the given token prefix."""

    def close(self) -> None:
        """Release what the backend holds open; local backends hold nothing."""

    def __enter__(self) -> "ModelSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ScriptedModel(ModelSource):
    """Finite lookup-table model: rows keyed by exact token prefix, with a
    required default row for anything unlisted."""

    def __init__(self, vocabulary: Vocabulary, table: dict, default: Distribution):
        size = len(vocabulary)
        if len(default) != size:
            raise ValueError(f"default row has {len(default)} entries, vocabulary has {size}")
        normalized: dict[tuple[TokenId, ...], Distribution] = {}
        for prefix, dist in table.items():
            key = _prefix_key(prefix)
            if any(not 0 <= t < size for t in key):
                raise ValueError(f"prefix {list(key)} holds token ids outside the vocabulary")
            if len(dist) != size:
                raise ValueError(
                    f"row for prefix {list(key)} has {len(dist)} entries, vocabulary has {size}"
                )
            normalized[key] = dist
        self.vocabulary = vocabulary
        self.table = normalized
        self.default = default

    def next_distribution(self, prefix) -> Distribution:
        return self.table.get(_prefix_key(prefix), self.default)


def load_scripted_model(path: str) -> ScriptedModel:
    """Parse a .model JSON file; errors carry line or row context."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelFileError(f"{path}: model file must hold a JSON object")
    for field in ("tokens", "eos", "rows", "default"):
        if field not in data:
            raise ModelFileError(f"{path}: missing required field {field!r}")
    try:
        vocab = Vocabulary(data["tokens"], data["eos"])
    except (ValueError, TypeError) as exc:
        raise ModelFileError(f"{path}: bad vocabulary: {exc}") from exc
    try:
        default = Distribution(data["default"])
    except (ValueError, TypeError) as exc:
        raise ModelFileError(f"{path}: default row: {exc}") from exc
    table: dict[tuple[TokenId, ...], Distribution] = {}
    for i, row in enumerate(data["rows"]):
        if not isinstance(row, dict) or "prefix" not in row or "probs" not in row:
            raise ModelFileError(f"{path}: row {i} must hold 'prefix' and 'probs'")
        prefix = row["prefix"]
        if not isinstance(prefix, list) or any(type(t) is not int for t in prefix):
            raise ModelFileError(f"{path}: row {i}: prefix must be a list of integer token ids")
        prefix = tuple(prefix)
        try:
            table[prefix] = Distribution(row["probs"])
        except (ValueError, TypeError) as exc:
            raise ModelFileError(f"{path}: row {i} (prefix {list(prefix)}): {exc}") from exc
    try:
        return ScriptedModel(vocab, table, default)
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc


def save_scripted_model(model: ScriptedModel, path: str) -> None:
    data = {
        "tokens": list(model.vocabulary.tokens),
        "eos": model.vocabulary.eos_id,
        "rows": [
            {"prefix": list(prefix), "probs": dist.probs.tolist()}
            for prefix, dist in sorted(model.table.items())
        ],
        "default": model.default.probs.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


class KGramModel(ModelSource):
    """Character k-gram model with add-alpha smoothing.

    P(w | context) = (count + alpha) / (total + alpha * |V|) over the last k
    tokens of the prefix. Unseen contexts fall back to the uniform smoothed
    distribution. eos never occurs in a corpus, so its probability is always
    the smoothing floor; every context can terminate.
    """

    def __init__(self, vocabulary: Vocabulary, k: int, alpha: float,
                 counts: dict[tuple[TokenId, ...], dict[TokenId, int]]):
        if type(k) is not int or k < 1:
            raise ValueError(f"k must be an integer ≥ 1, got {k!r}")
        if (not isinstance(alpha, float) and type(alpha) is not int) or not 0 < alpha < math.inf:
            raise ValueError(f"alpha must be a finite real number > 0, got {alpha!r}")
        self.vocabulary = vocabulary
        self.k = k
        self.alpha = alpha
        self.counts = counts
        # Trained contexts only: every unseen context shares one row.
        self._cache: dict[tuple[TokenId, ...], Distribution] = {}
        self._unseen = self._row({})

    def _row(self, bucket: dict[TokenId, int]) -> Distribution:
        size = len(self.vocabulary)
        row = np.full(size, self.alpha, dtype=np.float64)
        total = self.alpha * size
        for token, count in bucket.items():
            row[token] += count
            total += count
        return Distribution(row / total)

    def next_distribution(self, prefix) -> Distribution:
        context = _prefix_key(prefix)[-self.k:]
        dist = self._cache.get(context)
        if dist is None:
            bucket = self.counts.get(context)
            if bucket is None:
                return self._unseen
            dist = self._cache[context] = self._row(bucket)
        return dist


def train_kgram(corpus: str, k: int, alpha: float) -> KGramModel:
    """Count (k+1)-windows of a character corpus. The vocabulary is the
    corpus's distinct characters (sorted) plus eos."""
    if not corpus:
        raise ValueError("corpus must be non-empty")
    chars = sorted(set(corpus))
    vocab = Vocabulary(tuple(chars) + ("",), eos_id=len(chars))
    ids = [vocab.encode(c)[0] for c in corpus]
    counts: dict[tuple[TokenId, ...], dict[TokenId, int]] = {}
    for i in range(len(ids) - k):
        context = tuple(ids[i : i + k])
        nxt = ids[i + k]
        bucket = counts.setdefault(context, {})
        bucket[nxt] = bucket.get(nxt, 0) + 1
    return KGramModel(vocab, k, alpha, counts)


def save_kgram_model(model: KGramModel, path: str) -> None:
    data = {
        "k": model.k,
        "alpha": model.alpha,
        "tokens": list(model.vocabulary.tokens),
        "eos": model.vocabulary.eos_id,
        "counts": {
            ",".join(map(str, ctx)): {str(t): n for t, n in sorted(bucket.items())}
            for ctx, bucket in sorted(model.counts.items())
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def load_kgram_model(path: str) -> KGramModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc
    try:
        vocab = Vocabulary(data["tokens"], data["eos"])
        counts = {
            tuple(int(t) for t in ctx.split(",")): {int(t): int(n) for t, n in bucket.items()}
            for ctx, bucket in data["counts"].items()
        }
        return KGramModel(vocab, data["k"], data["alpha"], counts)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise ModelFileError(f"{path}: bad k-gram file: {exc}") from exc


class RemoteModel(ModelSource):
    """Client for the line-delimited JSON protocol.

    On connect the server sends one hello record with the vocabulary; after
    that each request {"prefix": [ids]} is answered by {"probs": [...]}.
    Requests are serialized per connection. Responses are trusted except for
    distribution validation.
    """

    def __init__(self, address: str, timeout: float = 10.0):
        host, sep, port = address.rpartition(":")
        if not sep or not port.isdigit():
            raise ProtocolError(f"remote address must be host:port, got {address!r}")
        self.address = address
        try:
            self._sock = socket.create_connection((host, int(port)), timeout=timeout)
        except OSError as exc:
            raise ProtocolError(f"cannot connect to {address}: {exc}") from exc
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()
        try:
            hello = self._read_record()
            if "tokens" not in hello or "eos" not in hello:
                raise ProtocolError(f"{address}: hello record must carry 'tokens' and 'eos'")
            try:
                self.vocabulary = Vocabulary(hello["tokens"], hello["eos"])
            except (ValueError, TypeError) as exc:
                raise ProtocolError(f"{address}: bad vocabulary in hello: {exc}") from exc
        except BaseException:
            # The caller never gets an object it could close.
            self.close()
            raise

    def _read_record(self) -> dict:
        line = self._file.readline()
        if not line:
            raise ProtocolError(f"{self.address}: connection closed by server")
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"{self.address}: malformed record: {exc.msg}") from exc
        if not isinstance(record, dict):
            raise ProtocolError(f"{self.address}: record must be a JSON object")
        if "error" in record:
            raise ProtocolError(f"{self.address}: server error: {record['error']}")
        return record

    def next_distribution(self, prefix) -> Distribution:
        key = _prefix_key(prefix)
        with self._lock:
            try:
                self._file.write(json.dumps({"prefix": list(key)}).encode() + b"\n")
                self._file.flush()
            except OSError as exc:
                raise ProtocolError(f"{self.address}: send failed: {exc}") from exc
            record = self._read_record()
        if "probs" not in record:
            raise ProtocolError(f"{self.address}: response record must carry 'probs'")
        try:
            dist = Distribution(record["probs"])
        except ValueError as exc:
            raise ProtocolError(f"{self.address}: response failed validation: {exc}") from exc
        if len(dist) != len(self.vocabulary):
            raise ProtocolError(
                f"{self.address}: response has {len(dist)} entries, vocabulary has "
                f"{len(self.vocabulary)}"
            )
        return dist

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


class ModelServer:
    """Stub server exposing any ModelSource over the wire protocol. Meant
    for tests and the serve-stub CLI command, not production serving."""

    def __init__(self, model: ModelSource, host: str = "127.0.0.1", port: int = 0):
        self._model = model
        self._listener = socket.create_server((host, port))
        actual_host, actual_port = self._listener.getsockname()[:2]
        self.address = f"{actual_host}:{actual_port}"
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve_one, args=(conn,), daemon=True).start()

    def _serve_one(self, conn: socket.socket) -> None:
        vocab = self._model.vocabulary
        hello = {"tokens": list(vocab.tokens), "eos": vocab.eos_id}
        try:
            with conn, conn.makefile("rwb") as fh:
                fh.write(json.dumps(hello).encode() + b"\n")
                fh.flush()
                for line in fh:
                    try:
                        request = json.loads(line)
                        prefix = tuple(int(t) for t in request["prefix"])
                        probs = self._model.next_distribution(prefix).probs.tolist()
                        reply = {"probs": probs}
                    except Exception as exc:  # malformed request: report, keep serving
                        reply = {"error": str(exc)}
                    fh.write(json.dumps(reply).encode() + b"\n")
                    fh.flush()
        except OSError:
            pass

    def close(self) -> None:
        """Stop accepting: shutting the listener down wakes the accept thread
        out of accept(), which then returns; connections already open are
        served until their clients hang up."""
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:  # already closed
            pass
        self._listener.close()
        self._thread.join()

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
