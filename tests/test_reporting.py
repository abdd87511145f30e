import csv
import gc
import json
import math
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedval.data import BEHAVIORS, ClientProfile
from fedval.errors import ConfigError
from fedval.metrics import OBJECTIVE_KINDS, ScoreVector, accuracy, eod, spd
from fedval.reporting import CSV_COLUMNS, RoundWriter, read_jsonl
from fedval.server import AggregationWeights, RankState, RoundInfo
from helpers import (
    CLIENT_KEYS,
    GLOBAL_KEYS,
    UNIT_MODEL,
    coverage_dataset,
    library_bytes,
    reference_csv_rows,
    reference_round,
    written_report,
)


def client_obj(**fields):
    """A client object in the writer's key order; a field not given is null."""
    return {**dict.fromkeys(CLIENT_KEYS), **fields}


def round_obj(round_index, global_metrics, clients, rs_spread=None):
    """A round object in the writer's key order."""
    return {
        "round": round_index,
        "global": dict(zip(GLOBAL_KEYS, global_metrics)),
        "rs_spread": rs_spread,
        "clients": list(clients),
    }


def sample_report(round_index=1, with_rank=True):
    clients = (
        client_obj(
            client_id=0,
            behavior="cooperative",
            n=40,
            local_loss=0.5,
            scores={"accuracy": 0.8, "spd": 0.9, "eod": 0.7},
            composite=2.4,
            p=0.6,
            rs=4.0 if with_rank else None,
        ),
        client_obj(
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
    return round_obj(round_index, (0.75, 0.12, 0.08), clients, rs_spread=4.0 if with_rank else None)


def baseline_report(round_index=1):
    clients = (
        client_obj(client_id=0, behavior="cooperative", n=40, local_loss=0.5, p=0.5),
        client_obj(client_id=1, behavior="cooperative", n=40, local_loss=0.6, p=0.5),
    )
    return round_obj(round_index, (0.7, 0.1, 0.05), clients)


def writer_args(report):
    """`RoundWriter.write`'s arguments for the round object `report`, with stand-ins for the objects it reads.

    The client profiles come in the reverse of the report's order.  The RoundInfo's
    weights, losses and scores hold each client's p, local_loss, scores and
    composite (no scores at all when every client has neither), and its rank
    each rs that is not None (no rank when none is).  `rs_spread` is not
    carried: the writer derives it from the rank.
    """
    records = report["clients"]
    ids = [c["client_id"] for c in records]
    scores = None
    if any(c["scores"] is not None or c["composite"] is not None for c in records):
        scores = SimpleNamespace(
            client_ids=ids,
            per_objective=[c["scores"] for c in records],
            composite=[c["composite"] for c in records],
        )
    masses = {c["client_id"]: c["rs"] for c in records if c["rs"] is not None}
    info = SimpleNamespace(
        weights=SimpleNamespace(client_ids=ids, p=[c["p"] for c in records]),
        losses={c["client_id"]: c["local_loss"] for c in records},
        scores=scores,
        rank=SimpleNamespace(rs=masses) if masses else None,
    )
    clients = [
        SimpleNamespace(client_id=c["client_id"], behavior=c["behavior"], n=c["n"]) for c in reversed(records)
    ]
    return report["round"], tuple(report["global"][key] for key in GLOBAL_KEYS), clients, info


def _read_back(tmp_path, report):
    """`read_jsonl` of a file whose one line is `json.dumps(report)`."""
    path = tmp_path / "rounds.jsonl"
    path.write_text(json.dumps(report) + "\n")
    return read_jsonl(path)


def test_json_roundtrip_preserves_everything(tmp_path):
    report = sample_report()
    assert _read_back(tmp_path, report) == [report]


def test_json_roundtrip_with_nulls(tmp_path):
    report = baseline_report()
    [again] = _read_back(tmp_path, report)
    assert again == report
    assert again["rs_spread"] is None
    assert again["clients"][0]["scores"] is None


def test_read_jsonl_accepts_a_round_without_the_keys_a_writer_may_leave_out(tmp_path):
    # rs_spread and a client's scores, composite, p and rs may be absent
    report = {"round": 2, "global": {"accuracy": 0.5, "spd": 0.0, "eod": 0.0},
              "clients": [{"client_id": 0, "behavior": "cooperative", "n": 4, "local_loss": 0.25}]}
    assert _read_back(tmp_path, report) == [report]


def test_csv_rows_layout():
    rows = reference_csv_rows(sample_report(round_index=3))
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
    rows = reference_csv_rows(baseline_report())
    first = dict(zip(CSV_COLUMNS, rows[0]))
    assert first["s_accuracy"] == ""
    assert first["composite"] == ""
    assert first["rs"] == ""
    assert first["p"] == "0.5"


def test_csv_rows_print_numpy_floats_as_python_floats():
    # str, never repr: a numpy float must not print as "np.float64(...)"
    report = sample_report()
    as_numpy = {
        **report,
        "global": {key: np.float64(value) for key, value in report["global"].items()},
        "rs_spread": np.float64(report["rs_spread"]),
        "clients": [
            {
                **c,
                **{key: np.float64(c[key]) for key in ("local_loss", "composite", "p", "rs")},
                "scores": {kind: np.float64(v) for kind, v in c["scores"].items()},
            }
            for c in report["clients"]
        ],
    }
    assert reference_csv_rows(as_numpy) == reference_csv_rows(report)


def _two_clients():
    # listed out of id order: the report follows ascending client id
    return [
        ClientProfile(7, "uncooperative", coverage_dataset(8, 1, seed=1)),
        ClientProfile(2, "cooperative", coverage_dataset(12, 1, seed=2)),
    ]


def test_round_report_of_a_baseline_round():
    validation = coverage_dataset(30, 1, seed=3)
    info = RoundInfo(AggregationWeights((7, 2), (0.25, 0.75)), {2: 0.4, 7: 0.9})
    report = written_report(5, UNIT_MODEL, validation, _two_clients(), info)
    assert report == round_obj(
        5,
        (accuracy(UNIT_MODEL, validation), spd(UNIT_MODEL, validation), eod(UNIT_MODEL, validation)),
        (
            client_obj(client_id=2, behavior="cooperative", n=12, local_loss=0.4, p=0.75),
            client_obj(client_id=7, behavior="uncooperative", n=8, local_loss=0.9, p=0.25),
        ),
    )


def test_round_report_of_a_scored_and_ranked_round():
    validation = coverage_dataset(30, 1, seed=3)
    scores = ScoreVector((2, 7), (1.5, 0.5), ({"accuracy": 1.5}, {"accuracy": 0.5}))
    weights = AggregationWeights((2, 7), (0.8, 0.2))
    info = RoundInfo(weights, {2: 0.4, 7: 0.9}, scores, RankState({2: 4.0, 7: 1.0}))
    report = written_report(1, UNIT_MODEL, validation, _two_clients(), info)
    assert [(c["client_id"], c["scores"], c["composite"], c["p"], c["rs"]) for c in report["clients"]] == [
        (2, {"accuracy": 1.5}, 1.5, 0.8, 4.0),
        (7, {"accuracy": 0.5}, 0.5, 0.2, 1.0),
    ]
    assert report["rs_spread"] == 4.0
    # a client without mass leaves the spread undefined
    unranked = RoundInfo(weights, info.losses, scores, RankState({2: 4.0, 7: 0.0}))
    report = written_report(1, UNIT_MODEL, validation, _two_clients(), unranked)
    assert report["clients"][1]["rs"] == 0.0 and report["rs_spread"] is None
    # with ranking off, no mass and no spread
    report = written_report(1, UNIT_MODEL, validation, _two_clients(), RoundInfo(weights, info.losses, scores))
    assert [c["rs"] for c in report["clients"]] == [None, None] and report["rs_spread"] is None


def test_round_writer_streams_both_formats(tmp_path):
    with RoundWriter(tmp_path) as writer:
        writer.write(*writer_args(sample_report(round_index=1)))
        writer.write(*writer_args(sample_report(round_index=2)))

    reports = read_jsonl(tmp_path / "rounds.jsonl")
    assert reports == [sample_report(round_index=1), sample_report(round_index=2)]

    with open(tmp_path / "rounds.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + 2 * 3


@pytest.mark.parametrize("how", [
    "directory",
    pytest.param("full-device", marks=pytest.mark.skipif(
        not Path("/dev/full").exists(), reason="needs a /dev/full that fails every write")),
])
def test_a_writer_that_cannot_start_rounds_csv_closes_what_it_opened(tmp_path, how):
    # rounds.csv cannot be opened, or its header cannot be written.  A file
    # object left open warns when collected; tier-1 makes that warning an error
    if how == "directory":
        (tmp_path / "rounds.csv").mkdir()
    else:
        (tmp_path / "rounds.csv").symlink_to("/dev/full")
    with pytest.raises(OSError):
        RoundWriter(tmp_path)
    gc.collect()
    assert (tmp_path / "rounds.jsonl").read_bytes() == b""


def test_read_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "rounds.jsonl"
    obj = json.dumps(sample_report())
    path.write_text(obj + "\n\n" + obj + "\n")
    assert len(read_jsonl(path)) == 2


_GOOD_LINE = json.dumps(sample_report()).encode("utf-8")


def _line(obj):
    return json.dumps(obj).encode("utf-8")


@pytest.mark.parametrize("bad", [
    _GOOD_LINE[: len(_GOOD_LINE) // 2],
    b"[1, 2]",
    _line({**baseline_report(), "clients": [{"client_id": 0}]}),
    b'{"round": 1, "note": "caf\xe9"}',
    _line({**baseline_report(), "clients": [0]}),
    _line({**baseline_report(), "global": {"accuracy": 0.7, "spd": 0.1}}),
    _line({**baseline_report(), "clients": [{**baseline_report()["clients"][0], "weight": 1.0}]}),
    _line({**baseline_report(), "clients": {}}),
], ids=["truncated", "not-an-object", "client-missing-keys", "not-utf-8", "client-not-an-object",
        "global-without-eod", "client-with-an-unknown-key", "clients-not-a-list"])
def test_read_jsonl_names_the_line_of_a_malformed_report(tmp_path, bad):
    path = tmp_path / "rounds.jsonl"
    path.write_bytes(_GOOD_LINE + b"\n" + bad + b"\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}, line 2: not a round report"):
        read_jsonl(path)


def test_round_writer_formats_each_client_as_it_is_in_its_round(tmp_path):
    # one writer, three rounds: client 1 changes its behavior, then its shard
    # size, then client 2 joins.  A memo of the fixed texts keyed on the id
    # alone would write round 1's behavior and size again.
    zero = ClientProfile(0, "cooperative", coverage_dataset(12, 1, seed=2))
    shard8, shard10 = coverage_dataset(8, 1, seed=1), coverage_dataset(10, 1, seed=4)
    rounds = (
        [zero, ClientProfile(1, "cooperative", shard8)],
        [ClientProfile(1, "uncooperative", shard8), zero],
        [ClientProfile(2, "cooperative", shard8), zero, ClientProfile(1, "uncooperative", shard10)],
    )
    args = []
    for t, clients in enumerate(rounds, 1):
        ids = sorted(c.client_id for c in clients)
        weights = AggregationWeights(ids, [1.0 / len(ids)] * len(ids))
        losses = {cid: 0.25 * (cid + t) for cid in ids}
        scores = ScoreVector(ids, [1.0 + cid for cid in ids], [{"accuracy": 0.5 * t} for _ in ids])
        rank = RankState({cid: cid + 1.0 for cid in ids}) if t == 3 else None
        info = RoundInfo(weights, losses, None if t == 2 else scores, rank)
        args.append((t, (0.5, 0.125, 0.0625 * t), clients, info))
    with RoundWriter(tmp_path) as writer:
        for round_args in args:
            writer.write(*round_args)
    want = [reference_round(*round_args) for round_args in args]
    assert [(c["behavior"], c["n"]) for c in want[2]["clients"]] == [
        ("cooperative", 12), ("uncooperative", 10), ("cooperative", 8)
    ]
    want_jsonl, want_csv = library_bytes(want)
    assert (tmp_path / "rounds.jsonl").read_bytes() == want_jsonl
    assert (tmp_path / "rounds.csv").read_bytes() == want_csv
    assert read_jsonl(tmp_path / "rounds.jsonl") == want


# ---------------------------------------------------------------------------
# the one-pass writer against the library forms
# ---------------------------------------------------------------------------

_EDGE_FLOATS = (0.0, -0.0, 1e-300, -1e-300, 1e300, 5e-324, 1e16, 1e-5, 3.0, -7.0, 0.1,
                math.nan, math.inf, -math.inf)
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
# bools and lists take the fallback texts, whose CSV cell may need quoting ("[1, 2]")
_VALUES = st.one_of(
    st.none(), _FLOATS, _FLOATS.map(np.float64), st.booleans(), st.lists(st.integers(0, 9), max_size=3)
)
_TEXT = st.one_of(
    st.sampled_from(BEHAVIORS),
    st.sampled_from(('a,b', 'say "hi"', "line\nbreak", "cr\r", "tab\t", "back\\slash",
                     "caf\u00e9", "\u2028", " lead", "")),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8),
)
_SCORES = st.one_of(
    st.none(),
    st.just({}),
    st.fixed_dictionaries({kind: _VALUES for kind in OBJECTIVE_KINDS}),
    st.dictionaries(st.sampled_from((*OBJECTIVE_KINDS, "extra")), _VALUES, max_size=4),
)
# a loss and a weight are formatted inline when they are finite floats;
# every other kind (nan, the infinities, numpy's float64, int) takes `_texts`
_LOSS_OR_P = st.one_of(_VALUES, st.integers(-(10**20), 10**20))


def _reports(scored, ranked):
    """Round objects that reach one branch of the writer.

    With neither scores nor rank mass (every strategy but fedval) the
    writer writes constant null cells; with either it formats them.  A
    scored round has a client with scores or a composite and a ranked one a
    client with rank mass, so `writer_args` hands the writer both.  The
    writer derives rs_spread from the rank mass, so a mass is a float: what
    a RankState holds, NaN and the infinities included.
    """
    client = st.fixed_dictionaries({
        "client_id": st.integers(0, 10**6),
        "behavior": _TEXT,
        "n": st.integers(0, 10**9),
        "local_loss": _LOSS_OR_P,
        "scores": _SCORES if scored else st.none(),
        "composite": _VALUES if scored else st.none(),
        "p": _LOSS_OR_P,
        "rs": st.one_of(st.none(), _FLOATS) if ranked else st.none(),
    })
    clients = st.lists(client, max_size=4, unique_by=lambda c: c["client_id"])
    if scored:
        clients = clients.filter(lambda cs: any(c["scores"] is not None or c["composite"] is not None for c in cs))
    if ranked:
        clients = clients.filter(lambda cs: any(c["rs"] is not None for c in cs))
    return st.fixed_dictionaries({
        "round": st.integers(0, 10**6),
        "global": st.fixed_dictionaries({key: _VALUES for key in GLOBAL_KEYS}),
        "rs_spread": st.none(),
        "clients": clients,
    })


_REPORTS = st.one_of(*(_reports(scored, ranked) for scored in (False, True) for ranked in (False, True)))
# a null-cell round whose losses and weights take every path of their texts
_UNSCORED = round_obj(3, (0.5, 0.0, -0.0), (
    client_obj(client_id=2, behavior="cooperative", n=5, local_loss=math.nan, p=-0.0),
    client_obj(client_id=4, behavior="cooperative", n=5, local_loss=math.inf, p=np.float64(0.25)),
    client_obj(client_id=7, behavior="uncooperative", n=5, local_loss=-math.inf, p=1),
    client_obj(client_id=9, behavior="uncooperative", n=5, local_loss=np.float64(-0.0), p=0.75),
))


@settings(max_examples=150, deadline=None)
@given(reports=st.lists(_REPORTS, min_size=1, max_size=3))
@example(reports=[sample_report()])
@example(reports=[baseline_report(), sample_report(round_index=2, with_rank=False)])
@example(reports=[_UNSCORED, sample_report(round_index=4), baseline_report(round_index=5)])
def test_round_writer_bytes_equal_the_library_forms(reports):
    # exactness bound: none.  Each value is formatted once for both files, on
    # either branch of the writer (null cells, or scores and rank mass), and
    # the bytes must be json.dumps's of the oracle's round object of the
    # same arguments and csv.writer's over its plain rows
    args = [writer_args(report) for report in reports]
    want_jsonl, want_csv = library_bytes([reference_round(*round_args) for round_args in args])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with RoundWriter(out) as writer:
            for round_args in args:
                writer.write(*round_args)
        assert (out / "rounds.jsonl").read_bytes() == want_jsonl
        assert (out / "rounds.csv").read_bytes() == want_csv
