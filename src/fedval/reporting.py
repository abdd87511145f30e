"""Per-round reports and their on-disk forms.

Every strategy emits one RoundReport per communication round.  Reports
serialize two ways: a JSON-lines stream (one object per round, append
mode) and a flat CSV holding one row per client per round plus one
global-metrics row per round.  Fields a strategy does not define (e.g.
rank mass under FedAvg) stay null / empty.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

from .metrics import OBJECTIVE_KINDS

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
    """One client's view of one round."""

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

    def to_json_obj(self) -> dict:
        return {
            "round": self.round,
            "global": {
                "accuracy": self.global_accuracy,
                "spd": self.global_spd,
                "eod": self.global_eod,
            },
            "rs_spread": self.rs_spread,
            "clients": [
                {
                    "client_id": c.client_id,
                    "behavior": c.behavior,
                    "n": c.n,
                    "local_loss": c.local_loss,
                    "scores": c.scores,
                    "composite": c.composite,
                    "p": c.p,
                    "rs": c.rs,
                }
                for c in self.clients
            ],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "RoundReport":
        return RoundReport(
            round=obj["round"],
            global_accuracy=obj["global"]["accuracy"],
            global_spd=obj["global"]["spd"],
            global_eod=obj["global"]["eod"],
            rs_spread=obj.get("rs_spread"),
            clients=tuple(
                ClientRoundRecord(
                    client_id=c["client_id"],
                    behavior=c["behavior"],
                    n=c["n"],
                    local_loss=c["local_loss"],
                    scores=c["scores"],
                    composite=c["composite"],
                    p=c["p"],
                    rs=c["rs"],
                )
                for c in obj["clients"]
            ),
        )


def csv_rows(report: RoundReport) -> list[list[str]]:
    """Flatten one report into CSV rows (clients first, then the global row).

    A missing value is an empty cell; any other value is its `str`, so a
    numpy float prints as the Python float it equals.
    """
    round_cell = str(report.round)
    rows = []
    for c in report.clients:
        scores = c.scores or {}
        row = [round_cell, "client", str(c.client_id), c.behavior, str(c.n)]
        for v in (*map(scores.get, OBJECTIVE_KINDS), c.composite, c.p, c.rs, c.local_loss):
            row.append("" if v is None else str(v))
        row += ("", "", "")  # the global-metric columns
        rows.append(row)
    rs_spread, acc, spd, eod = (
        "" if v is None else str(v)
        for v in (report.rs_spread, report.global_accuracy, report.global_spd, report.global_eod)
    )
    blanks = ("",) * (3 + len(OBJECTIVE_KINDS) + 2)  # client fields, scores, composite, p
    rows.append([round_cell, "global", *blanks, rs_spread, "", acc, spd, eod])
    return rows


class RoundWriter:
    """Streams reports to rounds.jsonl and rounds.csv as rounds complete.

    Each write is flushed so an aborted run keeps every finished round.
    """

    def __init__(self, out_dir):
        self.jsonl_path = out_dir / "rounds.jsonl"
        self.csv_path = out_dir / "rounds.csv"
        self._jsonl = open(self.jsonl_path, "a", encoding="utf-8")
        fresh = self.csv_path.stat().st_size == 0 if self.csv_path.exists() else True
        self._csv_file = open(self.csv_path, "a", newline="", encoding="utf-8")
        self._csv = csv.writer(self._csv_file)
        if fresh:
            self._csv.writerow(CSV_COLUMNS)
            self._csv_file.flush()

    def write(self, report: RoundReport) -> None:
        self._jsonl.write(json.dumps(report.to_json_obj()) + "\n")
        self._jsonl.flush()
        self._csv.writerows(csv_rows(report))
        self._csv_file.flush()

    def close(self) -> None:
        self._jsonl.close()
        self._csv_file.close()

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
