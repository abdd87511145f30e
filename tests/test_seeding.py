import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedval.seeding import client_generators, client_seeds, derive_seed, generators, seed_words
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


# ---------------------------------------------------------------------------
# a round's client generators, seeded in one pass
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6))
@example(seeds=[0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])  # one and two entropy words
@example(seeds=[2**64 - 1])
def test_batched_generators_start_where_default_rng_does(seeds):
    # exactness bound: none.  The oracle is numpy's own SeedSequence and
    # default_rng; a numpy that changed either would fail here first
    words = seed_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    for s, row, rng in zip(seeds, words, generators(seeds), strict=True):
        want = np.random.default_rng(s)
        assert row.tolist() == np.random.SeedSequence(s).generate_state(4, np.uint64).tolist()
        assert rng.bit_generator.state == want.bit_generator.state
        assert rng.permutation(97).tolist() == want.permutation(97).tolist()
        assert rng.random() == want.random()


def test_no_seeds_give_no_generators():
    assert seed_words([]).shape == (0, 4)
    assert list(generators([])) == []
    assert list(client_generators(3, [])) == []


@settings(max_examples=200, deadline=None)
@given(
    round_seed=st.one_of(st.integers(-(2**80), 2**80), st.integers(), st.text(max_size=5)),
    client_ids=st.lists(st.one_of(st.integers(-(2**70), 2**70), st.booleans()), max_size=8),
)
@example(round_seed=-1, client_ids=[0, 1, 2])
@example(round_seed=-(2**63) - 1, client_ids=[5, -5])
@example(round_seed=2**64, client_ids=[0, 99])
@example(round_seed=10**30, client_ids=[7])
def test_client_seeds_and_generators_equal_derive_seed_and_default_rng(round_seed, client_ids):
    seeds = [derive_seed(round_seed, "client", cid) for cid in client_ids]
    assert client_seeds(round_seed, client_ids).tolist() == seeds
    got = [rng.bit_generator.state for rng in client_generators(round_seed, client_ids)]
    assert got == [np.random.default_rng(s).bit_generator.state for s in seeds]


@pytest.mark.parametrize(
    "round_seed, client_ids", [(1.5, [0]), (None, [0]), (0, [0, 1.0]), (0, [np.int64(3)])]
)
def test_client_seeds_reject_what_derive_seed_rejects(round_seed, client_ids):
    with pytest.raises(TypeError) as want:
        for cid in client_ids:
            derive_seed(round_seed, "client", cid)
    with pytest.raises(TypeError) as got:
        client_seeds(round_seed, client_ids)
    assert str(got.value) == str(want.value)
