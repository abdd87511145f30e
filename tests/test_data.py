import csv
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedval.data import (
    CELLS,
    GROUP_A,
    GROUP_D,
    ClientSpec,
    ColumnSpec,
    DatasetSchema,
    SkewSpec,
    TabularDataset,
    generate_synthetic,
    load_csv,
    partition,
    skew,
    split_validation,
)
from fedval.errors import (
    DataError,
    EmptyDatasetError,
    InfeasibleSkewError,
    InvalidPartitionError,
    InvalidValidationSplitError,
    RowParseError,
    SchemaError,
)
from fedval.data import _NOISE_BLOCK_BYTES, _covers
from fedval.model import ModelParams, loss
from helpers import coverage_dataset, reference_synthetic_arrays, rows_as_multiset

# ---------------------------------------------------------------------------
# TabularDataset
# ---------------------------------------------------------------------------


def test_dataset_basic_properties():
    ds = TabularDataset(np.zeros((3, 2)), [0, 1, 1], [1, 0, 1])
    assert ds.n == 3 and ds.dim == 2


def test_dataset_rejects_empty():
    with pytest.raises(EmptyDatasetError):
        TabularDataset(np.zeros((0, 2)), [], [])


def test_dataset_rejects_mismatched_rows():
    with pytest.raises(DataError):
        TabularDataset(np.zeros((3, 2)), [0, 1], [1, 0, 1])


def test_dataset_rejects_features_that_are_not_2d():
    with pytest.raises(DataError, match=re.escape("features must be 2-d, got shape (3,)")):
        TabularDataset(np.zeros(3), [0, 1, 1], [1, 0, 1])


def test_dataset_rejects_nonbinary_labels():
    for bad in (2, -1):
        with pytest.raises(DataError, match="labels must be binary"):
            TabularDataset(np.zeros((2, 1)), [0, bad], [0, 1])
        with pytest.raises(DataError, match="sensitive column must be binary"):
            TabularDataset(np.zeros((2, 1)), [0, 1], [bad, 1])


def test_dataset_rejects_nonfinite_features():
    with pytest.raises(DataError):
        TabularDataset(np.array([[np.nan], [0.0]]), [0, 1], [0, 1])


def test_dataset_is_immutable():
    ds = TabularDataset(np.zeros((2, 2)), [0, 1], [1, 0])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.labels[0] = 1


def test_dataset_does_not_alias_the_callers_arrays():
    # the caller keeps its own arrays; turning writes back on there must not
    # reach the dataset's rows or the values cached from them
    X, labels, groups = np.zeros((4, 1)), np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])
    ds = TabularDataset(X, labels, groups)
    model = ModelParams(np.array([1.0]), 0.0)
    before = loss(model, ds)
    assert before == pytest.approx(0.6931, abs=1e-4)
    for arr in (X, labels, groups):
        arr.flags.writeable = True
    X[:] = 5.0
    labels[:] = 0
    groups[:] = 1
    assert ds.features.tolist() == [[0.0]] * 4
    assert ds.labels.tolist() == [0, 1, 0, 1]
    assert ds.sensitive.tolist() == [0, 0, 1, 1]
    assert loss(model, ds) == before
    assert loss(model, TabularDataset(ds.features, ds.labels, ds.sensitive)) == before


def _writable_copies(ds):
    return np.array(ds.features), np.array(ds.labels), np.array(ds.sensitive)


def test_public_constructor_copies_arrays_it_could_keep():
    # C-contiguous float64 and int64 arrays: the constructor could keep them
    # as they are, and copies them all the same
    X, labels, groups = _writable_copies(coverage_dataset(12, 3, seed=2))
    ds = TabularDataset(X, labels, groups)
    for ours, theirs in zip((ds.features, ds.labels, ds.sensitive), (X, labels, groups)):
        assert not np.shares_memory(ours, theirs)
        assert not ours.flags.writeable and theirs.flags.writeable
    kept = _writable_copies(ds)
    X += 1.0
    labels[:] = 1 - labels
    groups[:] = 1 - groups
    assert all(np.array_equal(a, b) for a, b in zip(_writable_copies(ds), kept))


def _built_datasets(tmp_path):
    """(parent, dataset) for every way data.py builds a dataset from another, and (None, d) for the rest."""
    parent = coverage_dataset(60, 3, seed=5)
    train, validation = split_validation(parent, 0.25, seed=1)
    shards = partition(train, [ClientSpec(), ClientSpec(skew=SkewSpec(0.5))], seed=2)
    csv_path = tmp_path / "built.csv"
    csv_path.write_text(ADULT_LIKE)
    schema = DatasetSchema(
        (ColumnSpec("age", "numeric"), ColumnSpec("workclass", "categorical", ("Private", "Self-emp"))),
        "income", ">50K", "sex", "Male",
    )
    return [
        (parent, parent.subset([3, 1, 1, 40])),
        (parent, train),
        (parent, validation),
        (train, shards[0].data),
        (train, shards[1].data),
        (parent, skew(parent, SkewSpec(0.5), seed=3)),
        (None, generate_synthetic(30, 2, (0.6, 0.3), seed=4)),
        (None, load_csv(csv_path, schema)),
    ]


def test_built_datasets_own_read_only_rows(tmp_path):
    # the datasets data.py builds skip the public constructor's copy; their
    # rows are still their own, read-only and shared with no other dataset
    for parent, ds in _built_datasets(tmp_path):
        arrays = (ds.features, ds.labels, ds.sensitive)
        assert [a.dtype for a in arrays] == [np.float64, np.int64, np.int64]
        for arr in arrays:
            assert arr.flags.c_contiguous and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
            if parent is not None:
                for theirs in (parent.features, parent.labels, parent.sensitive):
                    assert not np.shares_memory(arr, theirs)


def test_built_datasets_are_checked_like_public_ones():
    ds = TabularDataset(np.zeros((3, 1)), [0, 1, 1], [1, 0, 1])
    with pytest.raises(EmptyDatasetError):
        ds.subset([])
    with pytest.raises(DataError, match="features contain non-finite values"):
        TabularDataset._adopt(np.array([[np.inf]]), [0], [1])
    with pytest.raises(DataError, match="labels must be binary"):
        TabularDataset._adopt(np.zeros((1, 1)), [2], [1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
def test_coverage_test_equals_two_unique_values(values):
    arr = np.array(values, dtype=np.int64)
    assert _covers(arr) == (len(np.unique(arr)) == 2)


def test_cached_cell_arrays():
    # rows: (label, group) = (1, a), (0, a), (1, d), (0, d), (1, a)
    ds = TabularDataset(np.zeros((5, 1)), [1, 0, 1, 0, 1], [1, 1, 0, 0, 1])
    assert CELLS == ((GROUP_A, 1), (GROUP_A, 0), (GROUP_D, 1), (GROUP_D, 0))
    assert ds.cells.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
    assert ds.cells.dtype == np.float64
    assert ds.cell_sizes.tolist() == [2.0, 1.0, 1.0, 1.0]
    for name in ("cells", "cell_sizes"):
        cached = getattr(ds, name)
        assert getattr(ds, name) is cached  # built once per dataset
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 0


def test_dataset_subset_picks_rows():
    ds = TabularDataset(np.arange(6.0).reshape(3, 2), [0, 1, 0], [1, 0, 1])
    sub = ds.subset([2, 0])
    assert sub.n == 2
    assert np.array_equal(sub.features, [[4.0, 5.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# schema + CSV loading
# ---------------------------------------------------------------------------

ADULT_LIKE = """age,workclass,income,sex,unused
39,Private,<=50K,Male,x
50,Self-emp,>50K,Female,y
38,Private,>50K,Male,z
28,Private,<=50K,Female,w
"""


@pytest.fixture
def adult_schema():
    return DatasetSchema(
        features=(
            ColumnSpec("age", "numeric"),
            ColumnSpec("workclass", "categorical", ("Private", "Self-emp")),
        ),
        label="income",
        label_positive=">50K",
        sensitive="sex",
        sensitive_advantaged="Male",
    )


@pytest.fixture
def adult_csv(tmp_path):
    path = tmp_path / "adult.csv"
    path.write_text(ADULT_LIKE)
    return path


def test_load_csv_shapes_and_binarization(adult_csv, adult_schema):
    ds = load_csv(adult_csv, adult_schema)
    assert ds.n == 4
    assert ds.dim == 3  # age + two one-hot columns
    assert ds.labels.tolist() == [0, 1, 1, 0]
    assert ds.sensitive.tolist() == [1, 0, 1, 0]


def test_load_csv_one_hot_uses_declared_category_order(adult_csv, adult_schema):
    ds = load_csv(adult_csv, adult_schema)
    assert ds.features[:, 1].tolist() == [1.0, 0.0, 1.0, 1.0]  # Private
    assert ds.features[:, 2].tolist() == [0.0, 1.0, 0.0, 0.0]  # Self-emp


def test_load_csv_zscores_numeric_columns(adult_csv, adult_schema):
    # hand-computed z-scores over ages (39, 50, 38, 28), population stddev
    ages = [39.0, 50.0, 38.0, 28.0]
    mean = sum(ages) / 4
    std = (sum((a - mean) ** 2 for a in ages) / 4) ** 0.5
    expected = [(a - mean) / std for a in ages]
    ds = load_csv(adult_csv, adult_schema)
    assert ds.features[:, 0].tolist() == pytest.approx(expected, abs=1e-12)


def test_load_csv_zero_variance_column_becomes_zero(tmp_path, adult_schema):
    path = tmp_path / "flat.csv"
    path.write_text("age,workclass,income,sex\n40,Private,>50K,Male\n40,Private,<=50K,Female\n")
    ds = load_csv(path, adult_schema)
    assert ds.features[:, 0].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("cell", ["0.1", "1e308", "-1.7976931348623157e308", "5e-324"])
def test_load_csv_constant_column_becomes_zero_whatever_its_float_std(tmp_path, adult_schema, cell):
    # three 0.1 cells have a float std of about 1.4e-17, not 0, and three
    # 1e308 cells overflow the mean; both columns are constant
    path = tmp_path / "flat.csv"
    rows = [f"{cell},Private,>50K,Male", f"{cell},Self-emp,<=50K,Female", f"{cell},Private,<=50K,Male"]
    path.write_text("age,workclass,income,sex\n" + "\n".join(rows) + "\n")
    ds = load_csv(path, adult_schema)
    assert ds.features[:, 0].tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("scale", ["e-200", "e-160"])
def test_load_csv_zscores_a_column_whose_squared_deviations_underflow(tmp_path, adult_schema, scale):
    # ages (1, 2, 3) x 1e-200: the float variance underflows to 0; x 1e-160
    # it is subnormal and loses digits.  Both must z-score as (1, 2, 3) do.
    path = tmp_path / "tiny.csv"
    rows = [f"{a}{scale},Private,>50K,Male" for a in (1, 2, 3)]
    path.write_text("age,workclass,income,sex\n" + "\n".join(rows) + "\n")
    ds = load_csv(path, adult_schema)
    expected = [-(1.5**0.5), 0.0, 1.5**0.5]
    assert ds.features[:, 0].tolist() == pytest.approx(expected, abs=1e-12)


def test_load_csv_strips_whitespace(tmp_path, adult_schema):
    path = tmp_path / "sp.csv"
    path.write_text("age,workclass,income,sex\n 39 , Private , >50K , Male \n30,Self-emp,<=50K,Female\n")
    ds = load_csv(path, adult_schema)
    assert ds.labels.tolist() == [1, 0]
    assert ds.sensitive.tolist() == [1, 0]


def test_load_csv_missing_column_is_schema_error(tmp_path, adult_schema):
    path = tmp_path / "m.csv"
    path.write_text("age,income,sex\n39,>50K,Male\n")
    with pytest.raises(SchemaError, match="workclass"):
        load_csv(path, adult_schema)


def test_load_csv_bad_number_names_row_and_column(tmp_path, adult_schema):
    path = tmp_path / "bad.csv"
    path.write_text("age,workclass,income,sex\n39,Private,>50K,Male\nold,Private,<=50K,Female\n")
    with pytest.raises(RowParseError, match="row 2.*age"):
        load_csv(path, adult_schema)


def test_load_csv_unknown_category_is_row_error(tmp_path, adult_schema):
    path = tmp_path / "cat.csv"
    path.write_text("age,workclass,income,sex\n39,Government,>50K,Male\n")
    with pytest.raises(RowParseError, match="row 1.*workclass"):
        load_csv(path, adult_schema)


def test_load_csv_empty_cell_is_hard_error(tmp_path, adult_schema):
    path = tmp_path / "gap.csv"
    path.write_text("age,workclass,income,sex\n,Private,>50K,Male\n")
    with pytest.raises(RowParseError, match="empty"):
        load_csv(path, adult_schema)


def test_load_csv_ragged_row_is_row_error(tmp_path, adult_schema):
    path = tmp_path / "rag.csv"
    path.write_text("age,workclass,income,sex\n39,Private,>50K\n")
    with pytest.raises(RowParseError, match="row 1"):
        load_csv(path, adult_schema)


def test_load_csv_empty_file(tmp_path, adult_schema):
    path = tmp_path / "e.csv"
    path.write_text("")
    with pytest.raises(EmptyDatasetError):
        load_csv(path, adult_schema)


def test_load_csv_header_only(tmp_path, adult_schema):
    path = tmp_path / "h.csv"
    path.write_text("age,workclass,income,sex\n")
    with pytest.raises(EmptyDatasetError):
        load_csv(path, adult_schema)


def test_load_csv_drops_a_utf8_byte_order_mark(tmp_path, adult_schema):
    # Excel's "CSV UTF-8" export starts the file with EF BB BF; without the
    # drop the first header reads "\ufeffage" and the schema misses "age"
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(ADULT_LIKE.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + ADULT_LIKE.encode("utf-8"))
    want, got = load_csv(plain, adult_schema), load_csv(marked, adult_schema)
    for name in ("features", "labels", "sensitive"):
        a, b = getattr(want, name), getattr(got, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize("where", ["header", "row 2"])
def test_load_csv_cell_over_the_csv_field_limit_is_a_row_error(tmp_path, adult_schema, where):
    # csv.reader raises csv.Error for a cell longer than its field size
    # limit; load_csv names the header or the row instead
    huge = "x" * (csv.field_size_limit() + 1)
    lines = ADULT_LIKE.splitlines()
    if where == "header":
        lines[0] += huge
    else:
        lines[2] += huge
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(lines) + "\n")
    message = f"^{re.escape(str(path))}: {where}: field larger than field limit"
    with pytest.raises(RowParseError, match=message):
        load_csv(path, adult_schema)


def test_schema_validation_errors():
    with pytest.raises(SchemaError):
        ColumnSpec("x", "categorical")  # no categories
    with pytest.raises(SchemaError):
        ColumnSpec("x", "weird")
    with pytest.raises(SchemaError):
        DatasetSchema((ColumnSpec("a", "numeric"),), "y", "1", "y", "m")  # label == sensitive
    with pytest.raises(SchemaError):
        DatasetSchema((ColumnSpec("y", "numeric"),), "y", "1", "g", "m")  # label is a feature


def test_schema_dict_roundtrip(adult_schema):
    assert DatasetSchema.from_dict(adult_schema.to_dict()) == adult_schema


@pytest.mark.parametrize(
    "raw",
    [
        {"features": ["x"], "label": {"column": "y", "positive": "1"}, "sensitive": {"column": "g", "advantaged": "a"}},
        {"features": [{"name": "x", "kind": "numeric"}], "label": "y", "sensitive": {"column": "g", "advantaged": "a"}},
        ["features"],
    ],
)
def test_malformed_schema_dict_is_a_schema_error(raw):
    with pytest.raises(SchemaError, match="malformed schema"):
        DatasetSchema.from_dict(raw)


def _schema_raw():
    return {
        "features": [
            {"name": "age", "kind": "numeric"},
            {"name": "workclass", "kind": "categorical", "categories": ["Private", "Self-emp"]},
        ],
        "label": {"column": "income", "positive": ">50K"},
        "sensitive": {"column": "sex", "advantaged": "Male"},
    }


def test_schema_dict_is_the_file_form(adult_schema):
    # a numeric column is written without categories, a categorical one with them
    assert adult_schema.to_dict() == _schema_raw()
    assert DatasetSchema.from_dict(_schema_raw()) == adult_schema


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("label", "positive"), 1.0, "malformed schema: label.positive must be a string, got 1.0"),
        (("label", "positive"), 1, "malformed schema: label.positive must be a string, got 1"),
        (("sensitive", "advantaged"), True, "malformed schema: sensitive.advantaged must be a string"),
        (("sensitive", "column"), None, "malformed schema: sensitive.column must be a string, got None"),
        (("features", 1, "categories", 0), 3, "malformed schema: features[1].categories[0] must be a string"),
        (("features", 1, "categories"), "Private", "malformed schema: features[1].categories must be a list"),
        (("features", 0, "kind"), ["numeric"], "malformed schema: features[0].kind must be a string"),
        (("features",), {"name": "age"}, "malformed schema: features must be a list"),
        (("typo",), 1, "unknown schema keys: ['typo']"),
        (("label", "extra"), 2, "unknown schema keys in label: ['extra']"),
        (("features", 0, "categoris"), ["a"], "unknown schema keys in features[0]: ['categoris']"),
        (("features", 0, "categories"), ["young"], "column 'age': numeric columns take no categories"),
        (("features", 1, "categories"), ["Private", "Private"], "column 'workclass': duplicate categories"),
        (("features",), [], "schema declares no feature columns"),
        (("features", 1, "name"), "age", "duplicate feature column names"),
    ],
)
def test_a_schema_dict_is_read_strictly(path, value, message):
    raw = _schema_raw()
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(SchemaError) as info:
        DatasetSchema.from_dict(raw)
    assert message in str(info.value)


@pytest.mark.parametrize(
    "path, missing",
    [(("label",), "label"), (("sensitive",), "sensitive"), (("features",), "features"),
     (("label", "positive"), "label.positive"), (("sensitive", "column"), "sensitive.column"),
     (("features", 1, "kind"), "features[1].kind"), (("features", 0, "name"), "features[0].name")],
)
def test_a_missing_schema_key_is_named_by_its_path(path, missing):
    raw = _schema_raw()
    node = raw
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    with pytest.raises(SchemaError, match=rf"^malformed schema: {re.escape(missing)} is missing$"):
        DatasetSchema.from_dict(raw)


_names = st.text(st.characters(codec="utf-8", exclude_characters="\x00"), min_size=1, max_size=6)


@st.composite
def schemas(draw):
    names = draw(st.lists(_names, min_size=3, max_size=8, unique=True))
    columns = tuple(
        ColumnSpec(name, "numeric")
        if draw(st.booleans())
        else ColumnSpec(name, "categorical", tuple(draw(st.lists(_names, min_size=1, max_size=4, unique=True))))
        for name in names[2:]
    )
    return DatasetSchema(columns, names[0], draw(st.text(max_size=4)), names[1], draw(st.text(max_size=4)))


@settings(max_examples=100, deadline=None)
@given(schemas())
def test_any_schema_round_trips_through_json(schema):
    text = json.dumps(schema.to_dict(), indent=2)
    again = DatasetSchema.from_dict(json.loads(text))
    assert again == schema
    assert json.dumps(again.to_dict(), indent=2) == text
    for column in json.loads(text)["features"]:
        assert ("categories" in column) == (column["kind"] == "categorical")


def test_load_csv_header_naming_a_schema_column_twice_is_a_schema_error(tmp_path, adult_schema):
    path = tmp_path / "dup.csv"
    path.write_text("age,age,workclass,income,sex\n39,40,Private,>50K,Male\n")
    with pytest.raises(SchemaError, match="column 'age' appears more than once"):
        load_csv(path, adult_schema)
    # a repeated column the schema does not name is ignored, as before
    path.write_text("age,workclass,income,sex,x,x\n39,Private,>50K,Male,1,2\n")
    assert load_csv(path, adult_schema).n == 1


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400", "NaN", "-Infinity"])
def test_load_csv_non_finite_number_names_row_and_column(tmp_path, adult_schema, cell):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"age,workclass,income,sex\n39,Private,>50K,Male\n{cell},Private,<=50K,Female\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the error
        with pytest.raises(RowParseError, match=rf"row 2: column 'age': cannot parse '{cell}' as a finite number"):
            load_csv(path, adult_schema)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(-(10**7), 10**7).map(lambda k: k / 16), min_size=2, max_size=40),
    st.integers(0, 2**31),
)
def test_load_csv_standardization_invariant(values, seed):
    import tempfile
    from pathlib import Path

    rng = np.random.default_rng(seed)
    lines = ["x,label,group"]
    for v in values:
        lines.append(f"{v!r},{rng.integers(0, 2)},{'a' if rng.random() < 0.5 else 'd'}")
    schema = DatasetSchema((ColumnSpec("x", "numeric"),), "label", "1", "group", "a")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "std.csv"
        path.write_text("\n".join(lines) + "\n")
        ds = load_csv(path, schema)
    col = ds.features[:, 0]
    if np.unique(np.asarray(values, dtype=float)).size == 1:
        assert np.all(col == 0.0)
    else:
        assert abs(col.mean()) < 1e-9
        assert abs(col.std() - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def test_synthetic_is_deterministic():
    a = generate_synthetic(50, 3, (0.6, 0.4), seed=7)
    b = generate_synthetic(50, 3, (0.6, 0.4), seed=7)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.sensitive, b.sensitive)


@pytest.mark.parametrize(
    "n, dim, rates, seed",
    [
        (2, 1, (0.5, 0.5), 0), (7, 3, (0.6, 0.3), 1), (50, 8, (0.6, 0.3), 7), (501, 5, (1.0, 0.0), 123), (4000, 8, (0.6, 0.3), 2**40),
        (20000, 8, (0.6, 0.3), 0),  # the fedval-100 shape: several noise blocks
        (2 * (_NOISE_BLOCK_BYTES // 64) + 1, 8, (0.5, 0.4), 5),  # a last block of one row
        (3, _NOISE_BLOCK_BYTES // 8 + 1, (0.5, 0.5), 9),  # rows wider than a block: one row per block
    ],
)
def test_synthetic_equals_the_whole_array_reference(n, dim, rates, seed):
    # exactness bound: none; the in-place build takes the reference's
    # operations on every element and its draws in the same order, the
    # noise in blocks of rows that together make the reference's one draw
    ds = generate_synthetic(n, dim, rates, seed)
    want = reference_synthetic_arrays(n, dim, rates, seed)
    assert ds.features.tobytes() == want[0].tobytes()
    assert np.array_equal(ds.labels, want[1]) and np.array_equal(ds.sensitive, want[2])


def test_synthetic_seed_changes_draw():
    a = generate_synthetic(50, 3, (0.6, 0.4), seed=7)
    b = generate_synthetic(50, 3, (0.6, 0.4), seed=8)
    assert not np.array_equal(a.features, b.features)


def test_synthetic_group_split_is_even():
    for n in (10, 11, 501):
        ds = generate_synthetic(n, 2, (0.5, 0.5), seed=1)
        n_a = int((ds.sensitive == GROUP_A).sum())
        assert abs(n_a - (n - n_a)) <= 1


def test_synthetic_empirical_rates():
    # recount per group; 10k rows keeps the binomial noise well inside 0.03
    ds = generate_synthetic(10_000, 4, (0.7, 0.3), seed=42)
    rate_a = ds.labels[ds.sensitive == GROUP_A].mean()
    rate_d = ds.labels[ds.sensitive == GROUP_D].mean()
    assert abs(rate_a - 0.7) < 0.03
    assert abs(rate_d - 0.3) < 0.03


def test_synthetic_degenerate_rates():
    ds = generate_synthetic(40, 2, (0.0, 0.0), seed=3)
    assert ds.labels.sum() == 0
    ds = generate_synthetic(40, 2, (1.0, 1.0), seed=3)
    assert ds.labels.sum() == 40


def test_synthetic_rejects_bad_sizes_and_rates():
    with pytest.raises(DataError):
        generate_synthetic(1, 2, (0.5, 0.5), seed=0)
    with pytest.raises(DataError):
        generate_synthetic(10, 0, (0.5, 0.5), seed=0)
    with pytest.raises(DataError):
        generate_synthetic(10, 2, (1.5, 0.5), seed=0)


def test_synthetic_rejects_a_negative_seed():
    # numpy seeds only from non-negative integers; a negative one is a DataError, not numpy's ValueError
    with pytest.raises(DataError, match=r"^synthetic data seed must be >= 0, got -1$"):
        generate_synthetic(10, 2, (0.5, 0.5), seed=-1)


def test_synthetic_is_linearly_learnable():
    from fedval.model import ModelParams, TrainConfig, client_update
    from fedval.metrics import accuracy

    ds = generate_synthetic(2000, 6, (0.5, 0.5), seed=11)
    trained = client_update(ModelParams.zeros(6), ds, TrainConfig(epochs=20, batch_size=64, lr=0.5, seed=0))
    assert accuracy(trained, ds) > 0.75


# ---------------------------------------------------------------------------
# skew
# ---------------------------------------------------------------------------


def _balanced_dataset(n_per_cell, seed=0):
    """Equal-size label/group cells, so rates start at 0.5 in both groups."""
    rng = np.random.default_rng(seed)
    labels, groups = [], []
    for g in (GROUP_A, GROUP_D):
        for y in (0, 1):
            labels += [y] * n_per_cell
            groups += [g] * n_per_cell
    features = rng.standard_normal((4 * n_per_cell, 2))
    return TabularDataset(features, np.array(labels), np.array(groups))


def _rates(ds):
    rate_a = ds.labels[ds.sensitive == GROUP_A].mean()
    rate_d = ds.labels[ds.sensitive == GROUP_D].mean()
    return float(rate_a), float(rate_d)


def test_skew_identity_on_balanced_input():
    ds = _balanced_dataset(50)
    out = skew(ds, SkewSpec(ratio=1.0), seed=5)
    rate_a, rate_d = _rates(out)
    # one-row rounding slack on a 100-row group
    assert abs(rate_d - rate_a) <= 1.0 / 50


def test_skew_hits_requested_ratio():
    ds = _balanced_dataset(100)  # 400 rows, rates 0.5 / 0.5
    out = skew(ds, SkewSpec(ratio=0.25), seed=5)
    rate_a, rate_d = _rates(out)
    assert 0.2 <= rate_d / rate_a <= 0.3
    assert rate_a == 0.5  # advantaged side untouched


def test_skew_never_fabricates_rows():
    ds = _balanced_dataset(30)
    out = skew(ds, SkewSpec(ratio=0.4, retain=0.8), seed=9)
    leftover = rows_as_multiset(ds) - rows_as_multiset(out)
    assert sum((rows_as_multiset(out) - rows_as_multiset(ds)).values()) == 0
    assert sum(leftover.values()) == ds.n - out.n


def test_skew_retain_shrinks_both_groups():
    # ratio low enough to stay feasible whatever the retain draw does
    ds = _balanced_dataset(100)
    out = skew(ds, SkewSpec(ratio=0.5, retain=0.5), seed=2)
    n_a = int((out.sensitive == GROUP_A).sum())
    # advantaged group is untouched by the ratio step
    assert n_a == 100
    n_d = int((out.sensitive == GROUP_D).sum())
    assert n_d < 100  # retained 100, then lost positives to the ratio


def test_skew_is_deterministic():
    ds = _balanced_dataset(40)
    s = SkewSpec(ratio=0.3, retain=0.7)
    a, b = skew(ds, s, seed=3), skew(ds, s, seed=3)
    assert np.array_equal(a.features, b.features)


def test_skew_can_target_advantaged_group():
    # rates start at (0.5, 0.5); raising the ratio via group 'a' requires
    # dropping advantaged positives; requested ratio 1.0 keeps it identity,
    # so build an imbalance first: d at 0.2, then ask for parity via 'a'
    ds = _balanced_dataset(100)
    lop = skew(ds, SkewSpec(ratio=0.2), seed=1)
    out = skew(lop, SkewSpec(ratio=1.0, group="a"), seed=2)
    rate_a, rate_d = _rates(out)
    assert abs(rate_d - rate_a) <= 0.05


def test_skew_infeasible_ratio_reports_bound():
    ds = _balanced_dataset(50)
    lop = skew(ds, SkewSpec(ratio=0.2), seed=1)  # rate_d now 0.1
    with pytest.raises(InfeasibleSkewError, match="achievable"):
        skew(lop, SkewSpec(ratio=0.9), seed=2)  # can't raise d's rate by dropping d positives


def test_skew_requires_both_groups():
    ds = TabularDataset(np.zeros((4, 1)), [0, 1, 0, 1], [1, 1, 1, 1])
    with pytest.raises(InfeasibleSkewError, match="group 'd'"):
        skew(ds, SkewSpec(ratio=0.5), seed=0)


def test_skew_that_would_empty_the_target_group_is_infeasible():
    # group a has no positives, so group d's wanted rate is 0: all of its rows, each one positive, would go
    ds = TabularDataset(np.zeros((6, 1)), [0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0])
    with pytest.raises(InfeasibleSkewError, match="^requested ratio 0.5 would empty group 'd'$"):
        skew(ds, SkewSpec(ratio=0.5), seed=0)


def test_skew_keeps_every_row_when_the_wanted_rate_is_one():
    ds = TabularDataset(np.arange(6.0).reshape(6, 1), [1] * 6, [1, 1, 1, 0, 0, 0])
    out = skew(ds, SkewSpec(ratio=1.0), seed=0)
    assert np.array_equal(out.features, ds.features) and np.array_equal(out.sensitive, ds.sensitive)


def test_skew_spec_validation():
    with pytest.raises(DataError):
        SkewSpec(ratio=0.0)
    with pytest.raises(DataError):
        SkewSpec(ratio=1.5)
    with pytest.raises(DataError):
        SkewSpec(ratio=0.5, retain=0.0)
    with pytest.raises(DataError):
        SkewSpec(ratio=0.5, group="b")


@settings(max_examples=40, deadline=None)
@given(
    n_per_cell=st.integers(5, 40),
    ratio=st.floats(0.05, 1.0),
    retain=st.floats(0.4, 1.0),
    seed=st.integers(0, 2**31),
)
def test_skew_output_is_subset_property(n_per_cell, ratio, retain, seed):
    ds = _balanced_dataset(n_per_cell, seed=seed % 1000)
    try:
        out = skew(ds, SkewSpec(ratio=ratio, retain=retain), seed=seed)
    except InfeasibleSkewError:
        return
    # never fabricates rows, and both groups survive
    assert sum((rows_as_multiset(out) - rows_as_multiset(ds)).values()) == 0
    assert (out.sensitive == GROUP_A).any() and (out.sensitive == GROUP_D).any()


@settings(max_examples=40, deadline=None)
@given(
    n_per_cell=st.integers(20, 60),
    ratio=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**31),
)
def test_skew_rate_tracks_ratio_property(n_per_cell, ratio, seed):
    # no retain step, larger groups: the hit rate is ratio * rate_a up to
    # the rounding of an integer removal count
    ds = _balanced_dataset(n_per_cell, seed=seed % 1000)
    out = skew(ds, SkewSpec(ratio=ratio), seed=seed)
    rate_a, rate_d = _rates(out)
    n_d = int((out.sensitive == GROUP_D).sum())
    assert rate_a == 0.5
    assert abs(rate_d - ratio * rate_a) <= 1.0 / n_d + 1e-12


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def _tagged_dataset(n, seed=0):
    """First feature is a unique row id, for disjointness checks."""
    rng = np.random.default_rng(seed)
    features = np.column_stack([np.arange(n, dtype=float), rng.standard_normal(n)])
    labels = rng.integers(0, 2, n)
    groups = rng.integers(0, 2, n)
    return TabularDataset(features, labels, groups)


def test_partition_sizes_lowest_shards_take_remainder():
    ds = _tagged_dataset(10)
    shards = partition(ds, [ClientSpec() for _ in range(3)], seed=1)
    assert [s.n for s in shards] == [4, 3, 3]
    assert [s.client_id for s in shards] == [0, 1, 2]


def test_partition_is_disjoint_and_covers():
    ds = _tagged_dataset(101)
    shards = partition(ds, [ClientSpec() for _ in range(7)], seed=2)
    ids = [set(s.data.features[:, 0].tolist()) for s in shards]
    union = set().union(*ids)
    assert len(union) == 101
    assert sum(len(i) for i in ids) == 101  # pairwise disjoint


def test_partition_preserves_behaviors():
    ds = _tagged_dataset(20)
    shards = partition(ds, [ClientSpec("normal"), ClientSpec("uncooperative")], seed=0)
    assert [s.behavior for s in shards] == ["normal", "uncooperative"]


def test_partition_applies_skew_to_flagged_clients():
    # 1000 balanced rows, nine clean clients plus one at ratio 0.2
    ds = _balanced_dataset(250)
    profiles = [ClientSpec() for _ in range(9)] + [ClientSpec("uncooperative", SkewSpec(0.2))]
    shards = partition(ds, profiles, seed=3)
    rate_a, rate_d = _rates(shards[9].data)
    assert 0.15 <= rate_d / rate_a <= 0.25
    for s in shards[:9]:
        assert s.n == 100


def test_partition_too_many_clients():
    ds = _tagged_dataset(3)
    with pytest.raises(InvalidPartitionError):
        partition(ds, [ClientSpec() for _ in range(4)], seed=0)


def test_partition_needs_a_profile():
    with pytest.raises(InvalidPartitionError, match="^need at least one client profile$"):
        partition(_tagged_dataset(3), [], seed=0)


def test_partition_deterministic_and_seed_sensitive():
    ds = _tagged_dataset(60)
    a = partition(ds, [ClientSpec() for _ in range(4)], seed=5)
    b = partition(ds, [ClientSpec() for _ in range(4)], seed=5)
    c = partition(ds, [ClientSpec() for _ in range(4)], seed=6)
    assert all(np.array_equal(x.data.features, y.data.features) for x, y in zip(a, b))
    assert any(not np.array_equal(x.data.features, y.data.features) for x, y in zip(a, c))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 150), k=st.integers(1, 12), seed=st.integers(0, 2**31))
def test_partition_size_and_disjointness_property(n, k, seed):
    if k > n:
        return
    ds = _tagged_dataset(n, seed=seed % 997)
    shards = partition(ds, [ClientSpec() for _ in range(k)], seed=seed)
    sizes = [s.n for s in shards]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1
    assert sorted(sizes, reverse=True) == sizes  # remainder sits at the low ids
    union = set()
    for s in shards:
        tags = set(s.data.features[:, 0].tolist())
        assert union.isdisjoint(tags)
        union |= tags


# ---------------------------------------------------------------------------
# validation split
# ---------------------------------------------------------------------------


def test_split_sizes():
    ds = _tagged_dataset(100, seed=1)
    train, val = split_validation(ds, 0.2, seed=0)
    assert (train.n, val.n) == (80, 20)


def test_split_is_disjoint_union():
    ds = _tagged_dataset(57, seed=2)
    train, val = split_validation(ds, 0.3, seed=1)
    train_ids = set(train.features[:, 0].tolist())
    val_ids = set(val.features[:, 0].tolist())
    assert train_ids.isdisjoint(val_ids)
    assert len(train_ids | val_ids) == 57


def test_split_validation_side_has_coverage():
    ds = _balanced_dataset(10)
    _, val = split_validation(ds, 0.2, seed=3)
    assert set(np.unique(val.sensitive)) == {0, 1}
    assert set(np.unique(val.labels)) == {0, 1}


def test_split_deterministic():
    ds = _tagged_dataset(80, seed=3)
    a = split_validation(ds, 0.25, seed=9)
    b = split_validation(ds, 0.25, seed=9)
    assert np.array_equal(a[1].features, b[1].features)


def test_split_rejects_degenerate_fractions():
    ds = _tagged_dataset(50, seed=4)
    with pytest.raises(InvalidValidationSplitError):
        split_validation(ds, 0.0, seed=0)
    with pytest.raises(InvalidValidationSplitError):
        split_validation(ds, 0.001, seed=0)  # rounds to zero rows


def test_split_impossible_coverage_errors():
    ds = TabularDataset(np.zeros((10, 1)), [0, 1] * 5, [1] * 10)  # one group only
    with pytest.raises(InvalidValidationSplitError):
        split_validation(ds, 0.3, seed=0)


@settings(max_examples=30, deadline=None)
@given(n_per_cell=st.integers(2, 30), fraction=st.floats(0.1, 0.9), seed=st.integers(0, 2**31))
def test_split_property(n_per_cell, fraction, seed):
    ds = _balanced_dataset(n_per_cell, seed=seed % 991)
    try:
        train, val = split_validation(ds, fraction, seed=seed)
    except InvalidValidationSplitError:
        return
    assert train.n + val.n == ds.n
    assert val.n == int(round(fraction * ds.n))
    assert set(np.unique(val.sensitive)) == {0, 1}
    assert set(np.unique(val.labels)) == {0, 1}
