import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheregrid import (
    ParameterError, expected_cardinality, format_sequence, generate, parse_family,
    parse_sequence, triangulation_number, validate_pair,
)
from spheregrid.sequences import SequenceParseError


@pytest.mark.parametrize(
    "text,expected",
    [
        ("5,0", ((5, 0),)),
        ("1,1;2,0;2,0;2,0;2,0", ((1, 1), (2, 0), (2, 0), (2, 0), (2, 0))),
        ("1,1;(2,0)^4", ((1, 1), (2, 0), (2, 0), (2, 0), (2, 0))),
        (" 1 , 1 ; ( 4 , 0 ) ^ 2 ", ((1, 1), (4, 0), (4, 0))),
        ("(15,2)^1", ((15, 2),)),
        ("(3,1)", ((3, 1),)),
        ("(4,0)^1000000", ((4, 0),) * 10**6),
    ],
)
def test_parse_sequence(text, expected):
    assert parse_sequence(text) == expected


@pytest.mark.parametrize(
    "text",
    ["", "5", "5,0;", "a,b", "1,1;(2,0)^0", "2,3", "0,0", "5,0^2", "(5,0)^-1",
     "(4,0)^1000001", "(4,0)^500000;(4,0)^500001"],
)
def test_parse_sequence_rejects(text):
    with pytest.raises(SequenceParseError):
        parse_sequence(text)


def test_parse_error_pinpoints_position():
    with pytest.raises(SequenceParseError, match="position 2"):
        parse_sequence("5,0;x,y;1,0")
    with pytest.raises(SequenceParseError, match="position 3"):
        parse_sequence("5,0;1,0;1,2")
    # the pair count is bounded before a run is expanded, in a family's instances too
    with pytest.raises(SequenceParseError, match=r"position 2 .*at most 10\^6 pairs"):
        parse_family("1,1;(4,0)^l").instantiate(10**6)


def test_format_sequence_compresses_runs():
    assert format_sequence([(5, 0)]) == "5,0"
    assert format_sequence([(1, 1), (2, 0), (2, 0)]) == "1,1;(2,0)^2"
    assert format_sequence([(2, 0), (1, 1), (2, 0)]) == "2,0;1,1;2,0"


def test_parse_format_round_trip_random():
    rng = np.random.default_rng(41)
    for _ in range(200):
        pairs = []
        for _ in range(rng.integers(1, 6)):
            m = int(rng.integers(1, 30))
            n = int(rng.integers(0, m + 1))
            pairs.extend([(m, n)] * int(rng.integers(1, 4)))
        pairs = tuple(pairs)
        assert parse_sequence(format_sequence(pairs)) == pairs


PAIRS = st.integers(1, 30).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(runs=st.lists(st.tuples(PAIRS, st.integers(1, 4)), min_size=1, max_size=6))
def test_parse_format_round_trip_property(runs):
    pairs = [pair for pair, k in runs for _ in range(k)]
    assert parse_sequence(format_sequence(pairs)) == tuple(pairs)


def copies(pair, k, kind):
    """k copies of a pair: one object, equal tuples, lists or numpy rows."""
    if kind == "same":
        return [pair] * k
    if kind == "equal":
        return [tuple(list(pair)) for _ in range(k)]
    if kind == "list":
        return [list(pair) for _ in range(k)]
    return list(np.array([pair] * k))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(runs=st.lists(
    st.tuples(PAIRS, st.integers(1, 4), st.sampled_from(["same", "equal", "list", "numpy"])),
    max_size=6,
))
def test_runs_count_and_format_as_pair_by_pair(runs):
    pairs = [p for pair, k, kind in runs for p in copies(pair, k, kind)]
    checked = [validate_pair(p) for p in pairs]
    groups = [(p, len(list(g))) for p, g in itertools.groupby(checked)]
    assert format_sequence(pairs) == ";".join(
        f"({m},{n})^{k}" if k >= 2 else f"{m},{n}" for (m, n), k in groups)
    assert expected_cardinality("octa", pairs) == 2 + 4 * math.prod(
        triangulation_number(*p) for p in checked)


@pytest.mark.parametrize("bad", [None, (2, 3), (float("nan"), 0)])
def test_a_bad_pair_after_a_long_run_is_named(bad):
    with pytest.raises(ParameterError) as want:
        validate_pair(bad)
    pairs = [(4, 0)] * 10**5 + [bad]
    for call in (generate, expected_cardinality):
        with pytest.raises(ParameterError) as got:
            call("icosa", pairs)
        assert str(got.value) == str(want.value)
    with pytest.raises(ParameterError) as got:
        format_sequence(pairs)
    assert str(got.value) == str(want.value)


def test_parse_family_and_instantiate():
    fam = parse_family("l,0")
    assert fam.instantiate(5) == ((5, 0),)
    fam = parse_family("1,1;(4,0)^l")
    assert fam.instantiate(2) == ((1, 1), (4, 0), (4, 0))
    fam = parse_family("1,1;l,0")
    assert fam.instantiate(16) == ((1, 1), (16, 0))
    fam = parse_family("l,l")
    assert fam.instantiate(3) == ((3, 3),)


def test_parse_family_requires_l():
    with pytest.raises(SequenceParseError):
        parse_family("5,0")


def test_family_instantiation_validates_pairs():
    fam = parse_family("l,2")
    assert fam.instantiate(2) == ((2, 2),)
    with pytest.raises(ParameterError, match="position"):
        fam.instantiate(1)
    with pytest.raises(ParameterError):
        parse_family("l,0").instantiate(0)


SLOT = st.one_of(st.integers(0, 12), st.just("l"))


def template_text(m, n, k, form):
    return {"bare": f"{m},{n}", "paren": f"({m},{n})", "power": f"({m},{n})^{k}"}[form]


def reference_instance(tokens, l):
    """The pairs a family template means for l, read off its slots."""
    slots = [(m, n, k if form == "power" else 1) for m, n, k, form in tokens]
    if not any("l" in s for s in slots):
        raise ParameterError("no free parameter")
    pairs = []
    for s in slots:
        m, n, k = (l if v == "l" else v for v in s)
        if k < 1 or m <= 0 or n < 0 or m < n:
            raise ParameterError("invalid")
        pairs += [(m, n)] * k
    if len(pairs) > 10**6:
        raise ParameterError("too long")
    return tuple(pairs)


def outcome(call):
    try:
        return call()
    except ParameterError:
        return ParameterError


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    tokens=st.lists(st.tuples(
        SLOT, SLOT, st.one_of(SLOT, st.just(10**6)), st.sampled_from(["bare", "paren", "power"]),
    ), min_size=1, max_size=4),
    l=st.integers(1, 15),
)
def test_a_family_instance_means_its_slots_with_l_written_in(tokens, l):
    text = ";".join(template_text(*t) for t in tokens)
    assert outcome(lambda: parse_family(text).instantiate(l)) == outcome(
        lambda: reference_instance(tokens, l))


@pytest.mark.parametrize("text", ["1l,0", "l1,0", "ll,0", "(4,0)^2l"])
def test_a_family_slot_is_l_or_an_integer_never_both(text):
    with pytest.raises(SequenceParseError, match="bad integer pair"):
        parse_family(text)


def test_a_family_slot_may_be_spaced():
    assert parse_family("( l , 0 )^l").instantiate(2) == ((2, 0), (2, 0))


def test_sequence_strings_reject_l():
    with pytest.raises(SequenceParseError):
        parse_sequence("l,0")
