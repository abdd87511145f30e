"""Per-round reports and their on-disk forms.

`RoundWriter.write` formats each round's `server.RoundInfo`, with the
round's global metrics and client profiles, straight into a JSON-lines
stream (one object per round) and a flat CSV holding one row per client
per round plus one global-metrics row per round.  Fields a strategy does
not define (e.g. rank mass under FedAvg) stay null / empty; `read_jsonl`
reads the JSON lines back as `RoundReport`s.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
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


@dataclass(frozen=True)
class ClientRoundRecord:
    """One client's view of one round.

    `local_loss` is the client's loss on its own shard, but at a different
    model per strategy: at the client's local model after SGD for fedval
    and fedavg, and at the incoming global model (the F_k the update uses)
    for qfedsgd, qfedavg and afl.
    """

    client_id: int
    behavior: str
    n: int
    local_loss: float
    scores: dict | None = None      # raw per-objective scores, fedval only
    composite: float | None = None  # weighted score, fedval only
    p: float | None = None          # aggregation weight actually used
    rs: float | None = None         # cumulative rank mass, ranking only


@dataclass(frozen=True)
class RoundReport:
    """Global validation metrics plus per-client details for one round."""

    round: int
    global_accuracy: float
    global_spd: float
    global_eod: float
    clients: tuple[ClientRoundRecord, ...]
    rs_spread: float | None = None  # max/min rank mass, ranking only

    @staticmethod
    def from_json_obj(obj: dict) -> "RoundReport":
        return RoundReport(
            round=obj["round"],
            global_accuracy=obj["global"]["accuracy"],
            global_spd=obj["global"]["spd"],
            global_eod=obj["global"]["eod"],
            rs_spread=obj.get("rs_spread"),
            clients=tuple(ClientRoundRecord(**c) for c in obj["clients"]),  # keys are the field names
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
        self._jsonl = open(self.jsonl_path, "w", encoding="utf-8")
        self._csv = open(self.csv_path, "w", newline="", encoding="utf-8")
        self._csv.write(_CSV_HEADER)
        self._csv.flush()
        # each client's `_client_head` texts by (client_id, behavior, n), formatted on first sight
        self._heads = {}

    def write(self, round_index: int, global_metrics, clients, info) -> None:
        """Append one round of any strategy to both files.

        `global_metrics` is the new global model's (accuracy, spd, eod).
        Each client of `clients`, in ascending id, takes its p, loss,
        scores, composite and rank mass from `info`, the round's
        `server.RoundInfo`, by id.  With rank mass in `info`, `rs_spread` is
        its max/min over `clients` (null while some client has none).

        This is the one place the on-disk layout is written.  The line is
        `json.dumps` of the nested report object plus a newline.  The CSV
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
        round_text, round_cell = _texts(round_index)
        objects, lines = [], []
        for c in ordered:
            cid = c.client_id
            key = (cid, c.behavior, c.n)
            head = heads.get(key)
            if head is None:
                head = heads[key] = _client_head(*key)
            local_loss, loss_cell = _texts(losses[cid])
            p_text, p_cell = _texts(p[cid])
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


def read_jsonl(path) -> list[RoundReport]:
    """Load a rounds.jsonl stream back into RoundReport objects.

    Blank lines are skipped.  A line that is not UTF-8, not JSON or not a
    report object is a ConfigError naming the file and the line's number.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    reports = []
    # bytes.splitlines breaks at \n, \r and \r\n, as a text file's lines do
    for number, raw in enumerate(data.splitlines(), 1):
        try:
            line = raw.decode("utf-8").strip()
            if line:
                reports.append(RoundReport.from_json_obj(json.loads(line)))
        except (ValueError, TypeError, KeyError, RecursionError) as exc:
            # ValueError covers UnicodeDecodeError and JSONDecodeError
            raise ConfigError(
                f"{path}, line {number}: not a round report ({type(exc).__name__}: {exc})"
            ) from exc
    return reports
