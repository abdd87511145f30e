import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedval.seeding import derive_seed
from helpers import reference_derive_seed


def test_same_scope_same_seed():
    assert derive_seed(42, "client", 3) == derive_seed(42, "client", 3)


def test_any_scope_change_changes_seed():
    base = derive_seed(42, "client", 3)
    assert derive_seed(43, "client", 3) != base
    assert derive_seed(42, "round", 3) != base
    assert derive_seed(42, "client", 4) != base


def test_scope_order_matters():
    assert derive_seed(1, "a") != derive_seed("a", 1)


def test_parts_do_not_concatenate_ambiguously():
    assert derive_seed("ab", "c") != derive_seed("a", "bc")
    assert derive_seed(12, 3) != derive_seed(1, 23)


def test_rejects_non_scalar_parts():
    with pytest.raises(TypeError):
        derive_seed(1.5)
    with pytest.raises(TypeError):
        derive_seed((1, 2))
    with pytest.raises(TypeError):
        derive_seed(None)


def test_output_fits_numpy_seed_range():
    s = derive_seed(0)
    assert 0 <= s < 2**64


@settings(max_examples=100, deadline=None)
@given(st.integers(-(2**63), 2**63), st.text(max_size=20), st.integers(0, 1000))
def test_derivation_is_pure(a, tag, b):
    assert derive_seed(a, tag, b) == derive_seed(a, tag, b)


_PART = st.one_of(
    st.integers(),
    st.integers(-(10**300), 10**300),
    st.sampled_from((0, -1, 2**64, -(2**63) - 1, True, False)),
    st.text(),
    st.sampled_from(("", "\x00", "café", "\U0001f600", "\ud800", "a'b\"c", "\n")),
)
_NOT_A_PART = st.one_of(
    st.floats(allow_nan=True), st.none(), st.binary(max_size=4), st.tuples(st.integers()),
    st.just(b"x"), st.just(3 + 0j),
)


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(_PART, max_size=6))
@example(parts=[])
@example(parts=[0, "client", 7])
def test_derive_seed_equals_the_part_by_part_reference(parts):
    # exactness bound: none.  One joined buffer hashes the bytes the
    # part-by-part updates did
    assert derive_seed(*parts) == reference_derive_seed(*parts)


@settings(max_examples=100, deadline=None)
@given(parts=st.lists(_PART, max_size=4), bad=_NOT_A_PART, data=st.data())
def test_derive_seed_rejects_other_types_as_the_reference_does(parts, bad, data):
    parts.insert(data.draw(st.integers(0, len(parts))), bad)
    with pytest.raises(TypeError) as got:
        derive_seed(*parts)
    with pytest.raises(TypeError) as want:
        reference_derive_seed(*parts)
    assert str(got.value) == str(want.value)
