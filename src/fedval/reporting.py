"""Per-round reports and their on-disk forms.

Every strategy's round returns a `server.RoundInfo`; `round_report` turns
it, with the new global model, into the round's RoundReport.  Reports
serialize two ways: a JSON-lines stream (one object per round) and a flat
CSV holding one row per client per round plus one global-metrics row per
round.  Fields a strategy does not define (e.g. rank mass under FedAvg)
stay null / empty.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .metrics import OBJECTIVE_KINDS, accuracy, eod, spd
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


def round_report(round_index: int, params, validation, clients, info) -> RoundReport:
    """The report of one round of any strategy.

    `params` is the round's new global model, evaluated once each by
    accuracy, SPD and EOD on `validation`; `info` is the round's
    `server.RoundInfo`.  Client records follow ascending client id.  With
    rank mass in `info`, `rs_spread` is its max/min over `clients` (null
    while some client has none).
    """
    p = dict(zip(info.weights.client_ids, info.weights.p))
    scores, composite, rs = {}, {}, {}
    if info.scores is not None:
        scores = dict(zip(info.scores.client_ids, info.scores.per_objective))
        composite = dict(zip(info.scores.client_ids, info.scores.composite))
    if info.rank is not None:
        rs = info.rank.rs
    losses, records = info.losses, []
    for c in _by_id(clients):
        cid = c.client_id
        # positional arguments: a frozen dataclass binds keywords at a higher cost
        records.append(ClientRoundRecord(
            cid, c.behavior, c.n, losses[cid], scores.get(cid), composite.get(cid), p[cid], rs.get(cid)
        ))
    records = tuple(records)
    rs_spread = None
    if info.rank is not None:
        masses = [rs.get(c.client_id, 0.0) for c in records]
        if min(masses) > 0:
            rs_spread = max(masses) / min(masses)
    return RoundReport(
        round=round_index,
        global_accuracy=accuracy(params, validation),
        global_spd=spd(params, validation),
        global_eod=eod(params, validation),
        clients=records,
        rs_spread=rs_spread,
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


def _serialize(report: RoundReport) -> tuple[str, str]:
    """One report's rounds.jsonl line and rounds.csv lines, in one pass.

    This is the one place the on-disk layout is written; `read_jsonl`
    reads it back.  The line is `json.dumps` of the nested report object
    plus a newline.  The CSV lines hold each client's fields in
    `CSV_COLUMNS` order, then one global row; a missing value is an empty
    cell, any other its `str`.  Every value is formatted once for both
    forms; the bytes must match `json.dumps` and `csv.writer` over the
    plain builders in `tests/helpers.py`.
    """
    round_text, round_cell = _texts(report.round)
    objects, lines = [], []
    for c in report.clients:
        client_id, client_cell = _texts(c.client_id)
        n, n_cell = _texts(c.n)
        local_loss, loss_cell = _texts(c.local_loss)
        p, p_cell = _texts(c.p)
        # scores, composite and rs are fedval's alone: a check skips the call
        scores, score_cells = _scores_texts(c.scores)
        composite, composite_cell = _NULL if c.composite is None else _texts(c.composite)
        rs, rs_cell = _NULL if c.rs is None else _texts(c.rs)
        behavior = _texts(c.behavior)
        objects.append(
            f'{{"client_id": {client_id}, "behavior": {behavior[0]}, "n": {n}, '
            f'"local_loss": {local_loss}, "scores": {scores}, "composite": {composite}, '
            f'"p": {p}, "rs": {rs}}}'
        )
        lines.append(
            f"{round_cell},client,{client_cell},{behavior[1]},{n_cell},{score_cells},"
            f"{composite_cell},{p_cell},{rs_cell},{loss_cell},,,\r\n"
        )
    rs_spread = _texts(report.rs_spread)
    acc = _texts(report.global_accuracy)
    spd = _texts(report.global_spd)
    eod = _texts(report.global_eod)
    lines.append(f"{round_cell},global{_GLOBAL_BLANKS},{rs_spread[1]},,{acc[1]},{spd[1]},{eod[1]}\r\n")
    line = (
        f'{{"round": {round_text}, "global": {{"accuracy": {acc[0]}, "spd": {spd[0]}, '
        f'"eod": {eod[0]}}}, "rs_spread": {rs_spread[0]}, "clients": [{", ".join(objects)}]}}\n'
    )
    return line, "".join(lines)


class RoundWriter:
    """Streams reports to new rounds.jsonl and rounds.csv files as rounds complete.

    Each write is flushed so an aborted run keeps every finished round.
    """

    def __init__(self, out_dir):
        self.jsonl_path = out_dir / "rounds.jsonl"
        self.csv_path = out_dir / "rounds.csv"
        self._jsonl = open(self.jsonl_path, "w", encoding="utf-8")
        self._csv = open(self.csv_path, "w", newline="", encoding="utf-8")
        self._csv.write(_CSV_HEADER)
        self._csv.flush()

    def write(self, report: RoundReport) -> None:
        line, rows = _serialize(report)
        self._jsonl.write(line)
        self._jsonl.flush()
        self._csv.write(rows)
        self._csv.flush()

    def close(self) -> None:
        self._jsonl.close()
        self._csv.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_jsonl(path) -> list[RoundReport]:
    """Load a rounds.jsonl stream back into RoundReport objects."""
    reports = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                reports.append(RoundReport.from_json_obj(json.loads(line)))
    return reports
