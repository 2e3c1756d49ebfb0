"""Model backends: scripted lookup tables, add-alpha k-gram character
models, and a remote client speaking newline-delimited JSON (wire 5).

Every backend exposes a vocabulary and a deterministic
next_distribution(prefix), and hands out cursors through start(prefix): an
immutable value that only that model reads, and which it steps and reads
in batches: advance(cursors, tokens) and next_distributions(cursors).
Backends emit probabilities directly; nothing here applies temperature or
truncation.
"""

from __future__ import annotations

import math
import socket
import threading
from abc import ABC, abstractmethod
from itertools import chain

import numpy as np

from .core import (Distribution, ModelFileError, Sequence, TokenId, Vocabulary, check_fields,
                   json_line, parse_json, read_json, write_json)


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
    prefixes, and must stay consistent under concurrent calls. Decoders walk
    the model through cursors, which start, advance and next_distributions
    make, step and read. The generic cursor is the prefix tuple; a backend
    whose rows depend on less of the prefix overrides all three methods.
    """

    vocabulary: Vocabulary

    @abstractmethod
    def next_distribution(self, prefix) -> Distribution:
        """Full-vocabulary distribution after the given token prefix."""

    def start(self, prefix):
        """A cursor at the end of prefix (a Sequence or token ids)."""
        return _prefix_key(prefix)

    def advance(self, cursors: list, tokens: list) -> list:
        """Each of this model's cursors one token on, by its token in
        tokens, in order; the cursors given stay usable."""
        return [cursor + (tok,) for cursor, tok in zip(cursors, tokens)]

    def next_distributions(self, cursors: list) -> list[Distribution]:
        """The distribution at each of this model's cursors, in order, which
        is next_distribution of its prefix: one batch, which a backend that
        serves several prefixes at once answers in one call."""
        return [*map(self.next_distribution, cursors)]

    def close(self) -> None:
        """Release what the backend holds open; local backends hold nothing."""

    def __enter__(self) -> "ModelSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ScriptedModel(ModelSource):
    """Finite lookup-table model: rows keyed by exact token prefix, with a
    required default row for anything unlisted. The default row answers
    every unlisted prefix, one holding ids outside the vocabulary included:
    a read checks no id, so the oracle's tree walk pays no check per node."""

    def __init__(self, vocabulary: Vocabulary, table: dict, default: Distribution):
        size = len(vocabulary)
        if len(default) != size:
            raise ValueError(f"default row has {len(default)} entries, vocabulary has {size}")
        normalized: dict[tuple[TokenId, ...], Distribution] = {}
        for prefix, dist in table.items():
            key = _prefix_key(prefix)
            if key and not 0 <= min(key) <= max(key) < size:
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

    def next_distributions(self, cursors: list) -> list[Distribution]:
        get, default = self.table.get, self.default
        return [get(cursor, default) for cursor in cursors]


def load_scripted_model(path: str) -> ScriptedModel:
    """Parse a .model JSON file; errors carry line or row context."""
    data = check_fields(read_json(path, ModelFileError), {
        "tokens": "[str]", "eos": "int", "rows": "[object]", "default": "[real]"},
        ModelFileError, path)
    try:
        default = Distribution(data["default"])
    except ValueError as exc:
        raise ModelFileError(f"{path}: default row: {exc}") from exc
    table: dict[tuple[TokenId, ...], Distribution] = {}
    for i, row in enumerate(data["rows"]):
        row = check_fields(row, {"prefix": "[int]", "probs": "[real]"}, ModelFileError,
                           f"{path}: row {i}")
        prefix = tuple(row["prefix"])
        if prefix in table:
            raise ModelFileError(f"{path}: row {i}: prefix {list(prefix)} is listed twice")
        try:
            table[prefix] = Distribution(row["probs"])
        except ValueError as exc:
            raise ModelFileError(f"{path}: row {i} (prefix {list(prefix)}): {exc}") from exc
    try:
        return ScriptedModel(Vocabulary(data["tokens"], data["eos"]), table, default)
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc


def save_scripted_model(model: ScriptedModel, path: str) -> None:
    write_json(path, {
        "tokens": list(model.vocabulary.tokens),
        "eos": model.vocabulary.eos_id,
        "rows": [
            {"prefix": list(prefix), "probs": dist.probs.tolist()}
            for prefix, dist in sorted(model.table.items())
        ],
        "default": model.default.probs.tolist(),
    })


class KGramModel(ModelSource):
    """Character k-gram model with add-alpha smoothing.

    P(w | context) = (count + alpha) / (total + alpha * |V|) over the last k
    tokens of the prefix. Unseen contexts fall back to the uniform smoothed
    distribution. eos never occurs in a corpus, so its probability is always
    the smoothing floor; every context can terminate.

    A cursor is the code of the last k tokens: their digits tok + 1 in base
    |V| + 1, the last token lowest. Digit 0 is no token, so a prefix
    shorter than k codes no context of k tokens, not even one of token 0.
    """

    def __init__(self, vocabulary: Vocabulary, k: int, alpha: float,
                 counts: dict[tuple[TokenId, ...], dict[TokenId, int]]):
        if type(k) is not int or k < 1:
            raise ValueError(f"k must be an integer ≥ 1, got {k!r}")
        if (not isinstance(alpha, float) and type(alpha) is not int) or not 0 < alpha < math.inf:
            raise ValueError(f"alpha must be a finite real number > 0, got {alpha!r}")
        ids = {*chain.from_iterable(counts), *chain.from_iterable(counts.values())}
        if set(map(len, counts)) - {k} or not ids <= set(range(len(vocabulary))):
            raise ValueError(f"contexts must be k={k} token ids and next tokens one, all below "
                             f"{len(vocabulary)}")
        tallies = [*chain.from_iterable(map(dict.values, counts.values()))]
        if tallies and not ({int}.issuperset(map(type, tallies))  # past 2**53 no float is exact
                            and 0 <= min(tallies) and max(tallies) <= 2**53):
            raise ValueError("counts must be integers in 0..2**53")
        self.vocabulary = vocabulary
        self.k = k
        self.alpha = alpha
        self.counts = counts
        # Built rows by their bytes, so that contexts with equal rows share
        # one Distribution and its sampling caches.
        self._rows: dict[bytes, Distribution] = {}
        self._unseen = self._row({})
        self._base = len(vocabulary) + 1
        self._span = self._base ** k  # one past the largest code
        # The trained contexts' rows by code; any other code reads _unseen.
        self._code_rows: dict[int, Distribution] | None = None

    def _row(self, bucket: dict[TokenId, int]) -> Distribution:
        size = len(self.vocabulary)
        row = np.full(size, self.alpha, dtype=np.float64)
        total = self.alpha * size
        for token, count in bucket.items():
            row[token] += count
            total += count
        row /= total
        key = row.tobytes()
        dist = self._rows.get(key)
        if dist is None:
            dist = self._rows[key] = Distribution(row)
        return dist

    def next_distribution(self, prefix) -> Distribution:
        return self.next_distributions([self.start(prefix)])[0]

    def _code(self, context: tuple[TokenId, ...]) -> int:
        return sum((tok + 1) * self._base ** i for i, tok in enumerate(reversed(context)))

    def start(self, prefix) -> int:
        key = _prefix_key(prefix)
        size = len(self.vocabulary)
        if key and not 0 <= min(key) <= max(key) < size:
            raise ValueError(f"prefix {list(key)} holds token ids outside 0..{size - 1}")
        return self._code(key[-self.k:])

    def advance(self, cursors: list, tokens: list) -> list:
        base, span = self._base, self._span
        return [(code * base + tok + 1) % span for code, tok in zip(cursors, tokens)]

    def next_distributions(self, cursors: list) -> list[Distribution]:
        if self._code_rows is None:  # built at the first read, not at load
            self._code_rows = {self._code(c): self._row(b) for c, b in self.counts.items()}
        get, unseen = self._code_rows.get, self._unseen
        return [get(code, unseen) for code in cursors]


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
    write_json(path, {
        "k": model.k,
        "alpha": model.alpha,
        "tokens": list(model.vocabulary.tokens),
        "eos": model.vocabulary.eos_id,
        "counts": {
            ",".join(map(str, ctx)): {str(t): n for t, n in sorted(bucket.items())}
            for ctx, bucket in sorted(model.counts.items())
        },
    })


def load_kgram_model(path: str) -> KGramModel:
    data = check_fields(read_json(path, ModelFileError), {
        "k": "int", "alpha": "real", "tokens": "[str]", "eos": "int", "counts": "{object}"},
        ModelFileError, path)
    # Token ids spelled as save_kgram_model writes them; "01" or " 1" is no id.
    ids = {str(t): t for t in range(len(data["tokens"]))}.__getitem__
    counts: dict[tuple[TokenId, ...], dict[TokenId, int]] = {}
    for ctx, bucket in data["counts"].items():
        try:
            counts[tuple(map(ids, ctx.split(",")))] = dict(zip(map(ids, bucket), bucket.values()))
        except KeyError as exc:
            raise ModelFileError(f"{path}: counts[{ctx!r}]: {exc.args[0]!r} is not a token "
                                 f"id below {len(data['tokens'])}") from exc
    try:
        return KGramModel(Vocabulary(data["tokens"], data["eos"]), data["k"], data["alpha"], counts)
    except ValueError as exc:
        raise ModelFileError(f"{path}: bad k-gram file: {exc}") from exc


# The wire protocol's version; README, "Wire protocol", describes it.
WIRE_VERSION = 5
# Most branches one wire-5 request may name; the client splits larger
# batches.
BRANCHES_CAP = 64
# Slots a connection's table holds: a batch that would take it past the cap
# clears it first, on the server and in the client's count alike.
SLOT_CAP = 1024
# Most connections a ModelServer serves at once; one past it gets an error
# line as its hello and is closed.
CONNECTION_CAP = 64
# Longest request or reply line, newline included. A reply row takes at most
# 25 bytes a token, so this fits a vocabulary of 670 000 tokens.
LINE_CAP = 1 << 24
# Reply lines the server keeps by row; past it the oldest entry goes. Also
# the most row ids a connection numbers before both ends clear them; it must
# be at least BRANCHES_CAP, so that one request's rows always fit.
ROW_CACHE = 1024


def _remember(cache: dict, key, value) -> None:
    if len(cache) >= ROW_CACHE:
        del cache[next(iter(cache))]
    cache[key] = value


class _RemoteCursor:
    """A RemoteModel position: its parent cursor (None at a start) and the
    token ids after the parent's prefix, so advance copies no prefix. A
    cursor that was read also keeps the slot its row took and the generation
    of the slot table it took it in."""

    __slots__ = ("parent", "ids", "slot", "generation")

    def __init__(self, parent: "_RemoteCursor | None", ids: tuple[TokenId, ...]):
        self.parent = parent
        self.ids = ids
        self.generation = None


def _remote_prefix(cursor: _RemoteCursor) -> tuple[TokenId, ...]:
    """A remote cursor's whole prefix, gathered up its parents in a loop, so
    a cursor of any depth builds it without recursion."""
    parts = []
    while cursor is not None:
        parts.append(cursor.ids)
        cursor = cursor.parent
    return tuple(chain.from_iterable(reversed(parts)))


class RemoteModel(ModelSource):
    """Client for the line-delimited JSON protocol.

    On connect the server sends one hello record with the vocabulary and the
    wire version it speaks, which must be 5 or later. Every request, batch
    or single, is one {"slots": [s, ...], "branches": [[ids], ...], "rows":
    true} request. Each cursor keeps the slot its row took in the server's
    table and that table's generation, which the SLOT_CAP clear and any
    error line end: a cursor whose parent was read in the current
    generation goes as the parent's slot plus its token, any other as slot
    -1 plus its whole prefix. The reply is a {"probs": [...]} line for each
    row the connection has not sent before, which takes the next row id,
    then {"rows": [id, ...], "at": n}. The client keeps those rows in a list
    by id, so a row is parsed and validated once and keeps its sampling
    caches.
    Requests are serialized per connection; every record is type-checked.
    """

    def __init__(self, address: str, timeout: float = 10.0):
        host, sep, port = address.rpartition(":")
        # ASCII digits only: int() also reads other scripts' digits, and
        # the socket layer wraps a port past 65535.
        if not (sep and port.isascii() and port.isdigit() and len(port) <= 5
                and 1 <= int(port) <= 65535):
            raise ProtocolError(f"remote address must be host:port, got {address!r}")
        self.address = address
        try:
            self._sock = socket.create_connection((host, int(port)), timeout=timeout)
        except OSError as exc:
            raise ProtocolError(f"cannot connect to {address}: {exc}") from exc
        _no_delay(self._sock)
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()
        # The rows the server sent, by id; the generation of its slot table,
        # and the number of slots that table holds.
        self._by_id: list[Distribution] = []
        self._generation = object()
        self._table_size = 0
        try:
            hello = self._record(self._exchange())
            where = f"{address}: hello record"
            fields = check_fields(hello, {"tokens": "[str]", "eos": "int"}, ProtocolError, where)
            # A hello without a version is a wire-1 server's.
            wire = check_fields(hello, {"wire": "int"}, ProtocolError, where,
                                optional=True).get("wire", 1)
            if wire < WIRE_VERSION:
                raise ProtocolError(f"{where}: the server speaks wire {wire}; this client "
                                    f"speaks wire {WIRE_VERSION}")
            try:
                self.vocabulary = Vocabulary(fields["tokens"], fields["eos"])
            except ValueError as exc:
                raise ProtocolError(f"{address}: bad vocabulary in hello: {exc}") from exc
        except BaseException:
            # The caller never gets an object it could close.
            self.close()
            raise

    def _exchange(self, request: bytes = b"") -> bytes:
        """Send request, if any, and read one line back. A failed read
        leaves the stream out of step, so it closes the connection."""
        try:
            if request:
                self._file.write(request)
                self._file.flush()
            line = self._file.readline(LINE_CAP + 1)
        except (OSError, ValueError) as exc:  # reset, timed out, or closed before
            self.close()
            raise ProtocolError(f"{self.address}: connection failed: {exc}") from exc
        if not line:
            self.close()
            raise ProtocolError(f"{self.address}: connection closed by server")
        if len(line) > LINE_CAP:
            self.close()
            raise ProtocolError(f"{self.address}: reply line longer than {LINE_CAP} bytes")
        return line

    def _record(self, line: bytes):
        record = parse_json(line, ProtocolError, self.address)
        if type(record) is dict and "error" in record:
            raise ProtocolError(f"{self.address}: server error: {record['error']}")
        return record

    def _validated(self, record) -> Distribution:
        """The row a reply record holds, checked against the vocabulary."""
        probs = check_fields(record, {"probs": "[real]"}, ProtocolError,
                             f"{self.address}: response")["probs"]
        try:
            dist = Distribution(probs)
        except ValueError as exc:
            raise ProtocolError(f"{self.address}: response failed validation: {exc}") from exc
        if len(dist) != len(self.vocabulary):
            raise ProtocolError(f"{self.address}: response has {len(dist)} entries, "
                                f"vocabulary has {len(self.vocabulary)}")
        return dist

    def _named(self, batch: list[_RemoteCursor]) -> dict:
        """The wire-5 request for batch. Each cursor goes as its parent's
        slot plus its token when the parent was read in the current
        generation, else as slot -1 plus its whole prefix; it then holds the
        next slot, after the SLOT_CAP clear if the batch brings one."""
        generation = self._generation
        refs, branches = [], []
        for cursor in batch:
            parent = cursor.parent
            if parent is not None and parent.generation is generation:
                refs.append(parent.slot)
                branches.append(cursor.ids)
            else:
                refs.append(-1)
                branches.append(_remote_prefix(cursor))
        if self._table_size + len(batch) > SLOT_CAP:
            self._generation = generation = object()
            self._table_size = 0
        for slot, cursor in enumerate(batch, self._table_size):
            cursor.slot = slot
            cursor.generation = generation
        self._table_size += len(batch)
        return {"slots": refs, "branches": branches, "rows": True}

    def _ask_ids(self, batch: list[_RemoteCursor]) -> list[Distribution]:
        """Send batch's request and read its reply: a row line for
        each row new to the connection, then the ids line. An error line
        first means the server dropped every slot and row id, so the client
        does too and keeps the connection. Any other failure leaves the row
        table out of step, so it closes the connection."""
        first = self._exchange(json_line(self._named(batch)).encode())
        table, new = self._by_id, []
        try:
            record = self._record(first)
            while type(record) is dict and "probs" in record and len(new) < len(batch):
                new.append(self._validated(record))
                record = self._record(self._exchange())
            fields = check_fields(record, {"rows": "[int]", "at": "int"}, ProtocolError,
                                  f"{self.address}: rows line", closed=True)
            ids, at = fields["rows"], fields["at"]
            if at not in (0, len(table)) or at + len(new) > ROW_CACHE:
                raise ProtocolError(f"{self.address}: rows line: at must be 0 or {len(table)}, "
                                    f"with {len(new)} new rows at most {ROW_CACHE}, got {at}")
            if len(ids) != len(batch) or not 0 <= min(ids) <= max(ids) < at + len(new):
                raise ProtocolError(f"{self.address}: rows line: rows must be {len(batch)} ids "
                                    f"in 0..{at + len(new) - 1}")
        except ProtocolError:
            if not new and _is_error_line(first):
                self._generation = object()
                self._table_size = 0
                table.clear()
            else:
                self.close()
            raise
        del table[at:]
        table += new
        return [table[i] for i in ids]

    def start(self, prefix) -> _RemoteCursor:
        return _RemoteCursor(None, _prefix_key(prefix))

    def advance(self, cursors: list[_RemoteCursor], tokens: list) -> list[_RemoteCursor]:
        return [_RemoteCursor(cursor, (tok,)) for cursor, tok in zip(cursors, tokens)]

    def next_distribution(self, prefix) -> Distribution:
        return self.next_distributions([self.start(prefix)])[0]

    def next_distributions(self, cursors: list[_RemoteCursor]) -> list[Distribution]:
        with self._lock:
            rows: list[Distribution] = []
            while len(rows) < len(cursors):
                rows += self._ask_ids(cursors[len(rows):len(rows) + BRANCHES_CAP])
            return rows

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:  # a broken connection cannot flush
            pass
        finally:
            self._sock.close()


def _no_delay(sock: socket.socket) -> None:
    """Send each flushed line at once. Without it a request or reply past
    one segment waits for the peer's delayed ACK (Nagle's algorithm): a
    round trip of 32 row lines took 44 ms, against 0.4 ms with it."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _is_error_line(line: bytes) -> bool:
    try:
        record = parse_json(line, ProtocolError, "reply")
    except ProtocolError:
        return False
    return type(record) is dict and "error" in record


def _check_ids(ids: list, size: int) -> None:
    if ids and not 0 <= min(ids) <= max(ids) < size:
        raise ProtocolError(f"request: prefix ids outside 0..{size - 1}")


def _check_branches(branches: list, size: int) -> None:
    """Check a wire-5 request's branches: 1..BRANCHES_CAP lists of token
    ids."""
    if not 1 <= len(branches) <= BRANCHES_CAP:
        raise ProtocolError(f"request: branches must hold 1..{BRANCHES_CAP} lists, "
                            f"got {len(branches)}")
    ids = [*chain.from_iterable(branches)]
    if not {int}.issuperset(map(type, ids)):
        raise ProtocolError("request: branches must be lists of integers")
    _check_ids(ids, size)


def _requested_cursors(record, table: list, model: ModelSource):
    """The model cursors a request names, and whether the reply names rows
    by id. {"prefix": [ids]}, with no other field, names one prefix whole,
    answered with its row line. A wire-5 request names each branch as slot s
    of table plus the ids after it, or as slot -1 plus the whole prefix, and
    carries "rows": true."""
    size = len(model.vocabulary)
    if type(record) is dict and "prefix" in record:
        ids = check_fields(record, {"prefix": "[int]"}, ProtocolError, "request",
                           closed=True)["prefix"]
        _check_ids(ids, size)
        return [model.start(ids)], False
    if type(record) is dict and record.pop("rows", None) is not True:
        raise ProtocolError('request: expected {"prefix": [ids]} alone, or "slots", '
                            '"branches" and "rows": true')
    fields = check_fields(record, {"slots": "[int]", "branches": "[list]"}, ProtocolError,
                          "request", closed=True)
    refs, branches = fields["slots"], fields["branches"]
    _check_branches(branches, size)
    if len(refs) != len(branches):
        raise ProtocolError(f"request: slots and branches must be as long, got {len(refs)} "
                            f"and {len(branches)}")
    if not -1 <= min(refs) <= max(refs) < len(table):
        raise ProtocolError(f"request: slots must be in -1..{len(table) - 1}")
    cursors = [table[ref] if ref >= 0 else model.start(ids) for ref, ids in zip(refs, branches)]
    # The branches off slots step on together, a token of each per call.
    grow = [n for n, ref in enumerate(refs) if ref >= 0]
    for depth in range(max((len(branches[n]) for n in grow), default=0)):
        grow = [n for n in grow if len(branches[n]) > depth]
        stepped = model.advance([cursors[n] for n in grow], [branches[n][depth] for n in grow])
        for n, cursor in zip(grow, stepped):
            cursors[n] = cursor
    return cursors, True


class ModelServer:
    """Stub server exposing any ModelSource over the wire protocol. Meant
    for tests and the serve-stub CLI command, not production serving. It
    serves at most CONNECTION_CAP connections at once; one past the cap gets
    a single error line and is closed, and a place frees when a client
    hangs up. Each connection keeps the model's cursor at every row it
    answered, up to SLOT_CAP of them, as the slots wire-5 requests name,
    and numbers the rows it sent them, up to ROW_CACHE of them; an error
    line drops both. A {"prefix": [ids]} line, which a person can type, is
    answered with its row line."""

    def __init__(self, model: ModelSource, host: str = "127.0.0.1", port: int = 0):
        self._model = model
        self._lines: dict[Distribution, bytes] = {}  # each row's reply line
        self._lines_lock = threading.Lock()
        self._connections = threading.BoundedSemaphore(CONNECTION_CAP)
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
            if not self._connections.acquire(blocking=False):
                with conn:
                    try:
                        conn.sendall(json_line({"error": f"server holds its cap of "
                                                         f"{CONNECTION_CAP} connections"}).encode())
                    except OSError:
                        pass
                continue
            threading.Thread(target=self._serve_one, args=(conn,), daemon=True).start()

    def _reply(self, dist: Distribution) -> bytes:
        line = self._lines.get(dist)
        if line is None:
            line = json_line({"probs": dist.probs.tolist()}).encode()
            with self._lines_lock:
                _remember(self._lines, dist, line)
        return line

    def _rows_reply(self, rows: list[Distribution],
                    sent: dict[Distribution, int]) -> list[bytes]:
        """The wire-5 reply lines for rows: a row line for each row not in
        sent, the connection's ids, in first-use order, each taking the next
        id; then the ids line. New rows that would take sent past ROW_CACHE
        clear it first, so that the ids start again at 0."""
        fresh = [*dict.fromkeys(row for row in rows if row not in sent)]
        if len(sent) + len(fresh) > ROW_CACHE:
            sent.clear()
            fresh = [*dict.fromkeys(rows)]
        at = len(sent)
        for row in fresh:
            sent[row] = len(sent)
        ids = json_line({"rows": [*map(sent.__getitem__, rows)], "at": at}).encode()
        return [*map(self._reply, fresh), ids]

    def _serve_one(self, conn: socket.socket) -> None:
        model = self._model
        vocab = model.vocabulary
        table: list = []  # the model's cursor at each answered row, in answer order
        sent: dict[Distribution, int] = {}  # the id of each row a wire-5 reply sent
        try:
            with conn, conn.makefile("rwb") as fh:
                _no_delay(conn)
                fh.write(json_line({"tokens": list(vocab.tokens), "eos": vocab.eos_id,
                                    "wire": WIRE_VERSION}).encode())
                fh.flush()
                while line := fh.readline(LINE_CAP + 1):
                    if len(line) > LINE_CAP:  # the rest of the line is never read
                        fh.write(json_line({"error": f"request: line longer than {LINE_CAP} "
                                                     "bytes; closing the connection"}).encode())
                        fh.flush()
                        return
                    try:
                        cursors, by_id = _requested_cursors(
                            parse_json(line, ProtocolError, "request"), table, model)
                        # Every row before the first line goes out: a model that
                        # fails on one branch gets the request one error line.
                        rows = model.next_distributions(cursors)
                        replies = (self._rows_reply(rows, sent) if by_id
                                   else [*map(self._reply, rows)])
                        if len(table) + len(cursors) > SLOT_CAP:
                            table.clear()
                        table += cursors
                    except Exception as exc:  # a bad request or a failing model: report it
                        table.clear()
                        sent.clear()
                        replies = [json_line({"error": str(exc)}).encode()]
                    fh.writelines(replies)
                    fh.flush()
        except OSError:
            pass
        finally:
            self._connections.release()

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
