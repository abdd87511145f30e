"""Per-round reports and their on-disk forms.

`RoundWriter.write` formats each round's `server.RoundInfo`, with the
round's global metrics and client profiles, straight into a JSON-lines
stream (one object per round) and a flat CSV holding one row per client
per round plus one global-metrics row per round.  Fields a strategy does
not define (e.g. rank mass under FedAvg) stay null / empty; `read_jsonl`
reads the JSON lines back as the objects the writer wrote.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import ExitStack
from json.encoder import encode_basestring_ascii

from .errors import ConfigError
from .metrics import OBJECTIVE_KINDS
from .server import _by_id

CSV_COLUMNS = (
    "round",
    "record",
    "client_id",
    "behavior",
    "n",
    *(f"s_{kind}" for kind in OBJECTIVE_KINDS),
    "composite",
    "p",
    "rs",
    "local_loss",
    "accuracy",
    "spd",
    "eod",
)


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _cell(text: str) -> str:
    """`text` as csv's excel dialect writes a cell: quoted, quotes doubled, if it holds `,"\\r\\n`."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def _texts(value):
    """(JSON text, CSV cell) of one reported value, formatted once for both.

    A finite float prints as `float.__repr__`, which is what `json.dumps`
    and `str` both give it; an int prints as `int.__repr__` and a string
    keeps json's ASCII escaping.  None is null and an empty cell.  Anything
    else (NaN and the infinities, bools, other types such as numpy's
    float64) takes `json.dumps` and `str`.
    """
    kind = type(value)
    if kind is float:
        if math.isfinite(value):
            text = float.__repr__(value)
            return text, text
    elif kind is int:
        text = int.__repr__(value)
        return text, text
    elif kind is str:
        return encode_basestring_ascii(value), _cell(value)
    elif value is None:
        return "null", ""
    return json.dumps(value), _cell(str(value))


def _scores_texts(scores):
    """The JSON text of a client's `scores` and its CSV cells, one per objective, joined."""
    if scores is None:
        return "null", _NO_SCORES
    parts, cells = [], {}
    for kind, value in scores.items():
        text, cells[kind] = _texts(value)
        parts.append(f"{encode_basestring_ascii(kind)}: {text}")
    return "{" + ", ".join(parts) + "}", ",".join([cells.get(kind, "") for kind in OBJECTIVE_KINDS])


_NO_SCORES = "," * (len(OBJECTIVE_KINDS) - 1)
_NULL = _texts(None)
# the global row's blank cells: client fields, scores, composite and p
_GLOBAL_BLANKS = "," * (3 + len(OBJECTIVE_KINDS) + 2)
_CSV_HEADER = ",".join(CSV_COLUMNS) + "\r\n"


def _client_head(client_id, behavior, n) -> tuple[str, str]:
    """A client's fixed texts: the head of its JSON object and its CSV cells from `client` to `n`."""
    client_id, client_cell = _texts(client_id)
    behavior, behavior_cell = _texts(behavior)
    n, n_cell = _texts(n)
    return (
        f'{{"client_id": {client_id}, "behavior": {behavior}, "n": {n}, ',
        f",client,{client_cell},{behavior_cell},{n_cell},",
    )


class RoundWriter:
    """Streams each round to new rounds.jsonl and rounds.csv files as it completes.

    Each write is flushed so an aborted run keeps every finished round.
    """

    def __init__(self, out_dir):
        self.jsonl_path = out_dir / "rounds.jsonl"
        self.csv_path = out_dir / "rounds.csv"
        # a failure here closes whatever was opened; on success pop_all keeps both open
        with ExitStack() as opened:
            self._jsonl = opened.enter_context(open(self.jsonl_path, "w", encoding="utf-8"))
            self._csv = opened.enter_context(open(self.csv_path, "w", newline="", encoding="utf-8"))
            self._csv.write(_CSV_HEADER)
            self._csv.flush()
            opened.pop_all()
        # by client id: (profile, its `_client_head` texts), formatted when a new profile shows
        self._heads = {}

    def write(self, round_index: int, global_metrics, clients, info) -> None:
        """Append one round of any strategy to both files.

        `global_metrics` is the new global model's (accuracy, spd, eod).
        Each client of `clients`, in ascending id, takes its p, loss,
        scores, composite and rank mass from `info`, the round's
        `server.RoundInfo`, by id.  With rank mass in `info`, `rs_spread` is
        its max/min over `clients` (null while some client has none).

        `local_loss` is the client's loss on its own shard, at the model its
        strategy takes it at: the client's local model after SGD for fedval
        and fedavg, and the incoming global model (the F_k the update uses)
        for qfedsgd, qfedavg and afl.

        This is the one place the on-disk layout is written.  The line is
        `json.dumps` of the nested round object plus a newline.  The CSV
        lines hold each client's fields in `CSV_COLUMNS` order, then one
        global row; a missing value is an empty cell, any other its `str`.
        Every value is formatted once for both forms; the bytes must match
        `json.dumps` and `csv.writer` over the plain builders in `tests/helpers.py`.
        """
        p = dict(zip(info.weights.client_ids, info.weights.p))
        scores, composite, rs = {}, {}, {}
        if info.scores is not None:
            scores = dict(zip(info.scores.client_ids, info.scores.per_objective))
            composite = dict(zip(info.scores.client_ids, info.scores.composite))
        if info.rank is not None:
            rs = info.rank.rs
        losses, heads, ordered = info.losses, self._heads, _by_id(clients)
        # every strategy but fedval reports no scores and no rank mass: constant null cells
        nulls = info.scores is None and info.rank is None
        if nulls:
            score_text, score_cells = _scores_texts(None)
            composite_text, composite_cell = rs_text, rs_cell = _NULL
        round_text, round_cell = _texts(round_index)
        objects, lines = [], []
        for c in ordered:
            cid = c.client_id
            # a profile is frozen: the same object has the same behavior and n
            entry = heads.get(cid)
            if entry is None or entry[0] is not c:
                entry = heads[cid] = (c, _client_head(cid, c.behavior, c.n))
            head = entry[1]
            # a finite float, as a loss and a weight nearly always are, is `_texts`' first case, inline
            value = losses[cid]
            if type(value) is float and math.isfinite(value):
                local_loss = loss_cell = float.__repr__(value)
            else:
                local_loss, loss_cell = _texts(value)
            value = p[cid]
            if type(value) is float and math.isfinite(value):
                p_text = p_cell = float.__repr__(value)
            else:
                p_text, p_cell = _texts(value)
            if not nulls:
                # scores, composite and rs are fedval's alone: a check skips the call
                score_text, score_cells = _scores_texts(scores.get(cid))
                value = composite.get(cid)
                composite_text, composite_cell = _NULL if value is None else _texts(value)
                value = rs.get(cid)
                rs_text, rs_cell = _NULL if value is None else _texts(value)
            objects.append(
                f'{head[0]}"local_loss": {local_loss}, "scores": {score_text}, '
                f'"composite": {composite_text}, "p": {p_text}, "rs": {rs_text}}}'
            )
            lines.append(
                f"{round_cell}{head[1]}{score_cells},{composite_cell},{p_cell},{rs_cell},{loss_cell},,,\r\n"
            )
        rs_spread = None
        if info.rank is not None:
            masses = [rs.get(c.client_id, 0.0) for c in ordered]
            if min(masses) > 0:
                rs_spread = max(masses) / min(masses)
        spread = _texts(rs_spread)
        acc, spd, eod = map(_texts, global_metrics)
        lines.append(f"{round_cell},global{_GLOBAL_BLANKS},{spread[1]},,{acc[1]},{spd[1]},{eod[1]}\r\n")
        self._jsonl.write(
            f'{{"round": {round_text}, "global": {{"accuracy": {acc[0]}, "spd": {spd[0]}, '
            f'"eod": {eod[0]}}}, "rs_spread": {spread[0]}, "clients": [{", ".join(objects)}]}}\n'
        )
        self._jsonl.flush()
        self._csv.write("".join(lines))
        self._csv.flush()

    def close(self) -> None:
        self._jsonl.close()
        self._csv.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


_GLOBAL_KEYS = frozenset(("accuracy", "spd", "eod"))
_CLIENT_KEYS = frozenset(("client_id", "behavior", "n", "local_loss"))
_CLIENT_ALLOWED = _CLIENT_KEYS | {"scores", "composite", "p", "rs"}


def _round_object(obj):
    """`obj` if it is a round object as `RoundWriter.write` writes one, else a ValueError saying why.

    A round holds `round`, `global` (an object holding `accuracy`, `spd` and
    `eod`) and `clients`, a list of objects; `rs_spread` may be absent.  Each
    client holds `client_id`, `behavior`, `n` and `local_loss`, may hold
    `scores`, `composite`, `p` and `rs`, and holds no other key.
    """
    if not isinstance(obj, dict) or not {"round", "global", "clients"} <= obj.keys():
        raise ValueError("not an object holding round, global and clients")
    if not isinstance(obj["global"], dict) or not _GLOBAL_KEYS <= obj["global"].keys():
        raise ValueError("global is not an object holding accuracy, spd and eod")
    if not isinstance(obj["clients"], list):
        raise ValueError("clients is not a list")
    for i, client in enumerate(obj["clients"]):
        if not isinstance(client, dict) or not _CLIENT_KEYS <= client.keys() <= _CLIENT_ALLOWED:
            raise ValueError(
                f"client {i} is not an object holding client_id, behavior, n and local_loss, "
                "and no key but those and scores, composite, p and rs"
            )
    return obj


def read_jsonl(path) -> list[dict]:
    """Load a rounds.jsonl stream back as its round objects, in file order.

    Blank lines are skipped.  A line that is not UTF-8, not JSON or not a
    round object (see `_round_object`) is a ConfigError naming the file and
    the line's number.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    rounds = []
    # bytes.splitlines breaks at \n, \r and \r\n, as a text file's lines do
    for number, raw in enumerate(data.splitlines(), 1):
        try:
            line = raw.decode("utf-8").strip()
            if line:
                rounds.append(_round_object(json.loads(line)))
        except (ValueError, RecursionError) as exc:
            # ValueError covers UnicodeDecodeError and JSONDecodeError
            raise ConfigError(
                f"{path}, line {number}: not a round report ({type(exc).__name__}: {exc})"
            ) from exc
    return rounds
