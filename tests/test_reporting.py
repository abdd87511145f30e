import csv
import json
from dataclasses import replace

import numpy as np

from fedval.reporting import (
    CSV_COLUMNS,
    ClientRoundRecord,
    RoundReport,
    RoundWriter,
    csv_rows,
    read_jsonl,
)


def sample_report(round_index=1, with_rank=True):
    clients = (
        ClientRoundRecord(
            client_id=0,
            behavior="cooperative",
            n=40,
            local_loss=0.5,
            scores={"accuracy": 0.8, "spd": 0.9, "eod": 0.7},
            composite=2.4,
            p=0.6,
            rs=4.0 if with_rank else None,
        ),
        ClientRoundRecord(
            client_id=1,
            behavior="uncooperative",
            n=38,
            local_loss=0.9,
            scores={"accuracy": 0.5, "spd": 0.6, "eod": 0.5},
            composite=1.6,
            p=0.4,
            rs=1.0 if with_rank else None,
        ),
    )
    return RoundReport(
        round=round_index,
        global_accuracy=0.75,
        global_spd=0.12,
        global_eod=0.08,
        clients=clients,
        rs_spread=4.0 if with_rank else None,
    )


def baseline_report(round_index=1):
    clients = (
        ClientRoundRecord(client_id=0, behavior="cooperative", n=40, local_loss=0.5, p=0.5),
        ClientRoundRecord(client_id=1, behavior="cooperative", n=40, local_loss=0.6, p=0.5),
    )
    return RoundReport(1, 0.7, 0.1, 0.05, clients)


def test_json_roundtrip_preserves_everything():
    report = sample_report()
    again = RoundReport.from_json_obj(json.loads(json.dumps(report.to_json_obj())))
    assert again == report


def test_json_roundtrip_with_nulls():
    report = baseline_report()
    again = RoundReport.from_json_obj(json.loads(json.dumps(report.to_json_obj())))
    assert again == report
    assert again.rs_spread is None
    assert again.clients[0].scores is None


def test_csv_rows_layout():
    rows = csv_rows(sample_report(round_index=3))
    assert len(rows) == 3  # two clients + one global row
    assert all(len(r) == len(CSV_COLUMNS) for r in rows)

    first = dict(zip(CSV_COLUMNS, rows[0]))
    assert first["round"] == "3"
    assert first["record"] == "client"
    assert first["client_id"] == "0"
    assert first["behavior"] == "cooperative"
    assert first["s_accuracy"] == "0.8"
    assert first["composite"] == "2.4"
    assert first["p"] == "0.6"
    assert first["rs"] == "4.0"
    assert first["accuracy"] == ""  # global metrics stay off client rows

    glob = dict(zip(CSV_COLUMNS, rows[2]))
    assert glob["record"] == "global"
    assert glob["client_id"] == ""
    assert glob["accuracy"] == "0.75"
    assert glob["spd"] == "0.12"
    assert glob["eod"] == "0.08"
    assert glob["rs"] == "4.0"  # spread rides in the rs column


def test_csv_rows_blank_out_missing_fields():
    rows = csv_rows(baseline_report())
    first = dict(zip(CSV_COLUMNS, rows[0]))
    assert first["s_accuracy"] == ""
    assert first["composite"] == ""
    assert first["rs"] == ""
    assert first["p"] == "0.5"


def test_csv_rows_print_numpy_floats_as_python_floats():
    # str, never repr: a numpy float must not print as "np.float64(...)"
    report = sample_report()
    as_numpy = replace(
        report,
        global_accuracy=np.float64(report.global_accuracy),
        global_spd=np.float64(report.global_spd),
        global_eod=np.float64(report.global_eod),
        rs_spread=np.float64(report.rs_spread),
        clients=tuple(
            replace(
                c,
                local_loss=np.float64(c.local_loss),
                scores={kind: np.float64(v) for kind, v in c.scores.items()},
                composite=np.float64(c.composite),
                p=np.float64(c.p),
                rs=np.float64(c.rs),
            )
            for c in report.clients
        ),
    )
    assert csv_rows(as_numpy) == csv_rows(report)


def test_round_writer_streams_both_formats(tmp_path):
    with RoundWriter(tmp_path) as writer:
        writer.write(sample_report(round_index=1))
        writer.write(sample_report(round_index=2))

    reports = read_jsonl(tmp_path / "rounds.jsonl")
    assert [r.round for r in reports] == [1, 2]

    with open(tmp_path / "rounds.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + 2 * 3


def test_round_writer_appends_without_duplicate_header(tmp_path):
    with RoundWriter(tmp_path) as writer:
        writer.write(sample_report(round_index=1))
    with RoundWriter(tmp_path) as writer:
        writer.write(sample_report(round_index=2))

    with open(tmp_path / "rounds.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    headers = [r for r in rows if r and r[0] == "round"]
    assert len(headers) == 1
    assert len(rows) == 1 + 2 * 3

    reports = read_jsonl(tmp_path / "rounds.jsonl")
    assert [r.round for r in reports] == [1, 2]


def test_read_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "rounds.jsonl"
    obj = json.dumps(sample_report().to_json_obj())
    path.write_text(obj + "\n\n" + obj + "\n")
    assert len(read_jsonl(path)) == 2
