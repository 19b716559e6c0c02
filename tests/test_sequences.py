import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheregrid import ParameterError, format_sequence, parse_family, parse_sequence
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
    ],
)
def test_parse_sequence(text, expected):
    assert parse_sequence(text) == expected


@pytest.mark.parametrize(
    "text",
    ["", "5", "5,0;", "a,b", "1,1;(2,0)^0", "2,3", "0,0", "5,0^2", "(5,0)^-1"],
)
def test_parse_sequence_rejects(text):
    with pytest.raises(SequenceParseError):
        parse_sequence(text)


def test_parse_error_pinpoints_position():
    with pytest.raises(SequenceParseError, match="position 2"):
        parse_sequence("5,0;x,y;1,0")
    with pytest.raises(SequenceParseError, match="position 3"):
        parse_sequence("5,0;1,0;1,2")


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
    with pytest.raises(ParameterError):
        fam.instantiate(1)
    with pytest.raises(ParameterError):
        parse_family("l,0").instantiate(0)


def test_sequence_strings_reject_l():
    with pytest.raises(SequenceParseError):
        parse_sequence("l,0")
