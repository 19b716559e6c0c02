"""Text grammar for integer-pair sequences and one-parameter families.

A sequence is pairs ``m,n`` joined by ``;`` with an optional repetition
suffix on a parenthesised pair: ``1,1;(4,0)^2`` means ((1,1),(4,0),(4,0)).
A family is the same grammar with the letter ``l`` standing for one free
integer parameter, e.g. ``l,0`` or ``1,1;(4,0)^l``.
"""

import re
from dataclasses import dataclass

from .errors import ParameterError
from .lattice import validate_pair

_TOKEN_RE = re.compile(
    r"^\s*(?:\(\s*(?P<pm>\d+|l)\s*,\s*(?P<pn>\d+|l)\s*\)\s*(?:\^\s*(?P<k>\d+|l)\s*)?"
    r"|(?P<m>\d+|l)\s*,\s*(?P<n>\d+|l))\s*$"
)


class SequenceParseError(ParameterError):
    """Sequence or family string does not match the grammar."""


def _parse_tokens(text, allow_l):
    if not isinstance(text, str) or text.strip() == "":
        raise SequenceParseError("empty sequence string")
    entries = []
    for i, token in enumerate(text.split(";"), start=1):
        match = _TOKEN_RE.match(token)
        if match is None:
            raise SequenceParseError(
                f"bad integer pair at position {i}: {token.strip()!r}"
            )
        m = match.group("pm") or match.group("m")
        n = match.group("pn") or match.group("n")
        k = match.group("k") or "1"
        if not allow_l and "l" in (m, n, k):
            raise SequenceParseError(
                f"free parameter 'l' not allowed here (position {i}: {token.strip()!r})"
            )
        if k != "l" and int(k) < 1:
            raise SequenceParseError(
                f"repetition count must be >= 1 at position {i}: {token.strip()!r}"
            )
        entries.append((m, n, k, i, token.strip()))
    return entries


def _expand(entries, l=None):
    """The validated pairs of parsed entries, the letter 'l' read as ``l``."""
    pairs = []
    for m, n, k, i, token in entries:
        m, n, k = (l if v == "l" else int(v) for v in (m, n, k))
        try:
            if len(pairs) + k > 10**6:
                raise ParameterError("a sequence holds at most 10^6 pairs")
            pairs.extend([validate_pair((m, n))] * k)
        except ParameterError as exc:
            raise SequenceParseError(f"at position {i} ({token!r}): {exc}") from None
    return tuple(pairs)


def parse_sequence(text):
    """Parse a concrete sequence string into a tuple of validated pairs."""
    return _expand(_parse_tokens(text, allow_l=False))


def _runs(pairs):
    """A sequence's runs of equal pairs in order, as ((m, n), k).  An entry is
    validated unless it is the same object as the one before it, so a run the
    grammar expanded costs one ``validate_pair``."""
    runs, last = [], object()
    for p in pairs:
        if p is not last:
            last, pair = p, validate_pair(p)
            if not runs or runs[-1][0] != pair:
                runs.append([pair, 0])
        runs[-1][1] += 1
    return [tuple(run) for run in runs]


def format_sequence(pairs):
    """Canonical string for a sequence; runs of equal pairs use ``^k``."""
    return ";".join(f"({m},{n})^{k}" if k >= 2 else f"{m},{n}" for (m, n), k in _runs(pairs))


@dataclass(frozen=True)
class Family:
    """A sequence template over one integer parameter l."""

    text: str
    entries: tuple

    def instantiate(self, l):
        """Concrete pair sequence for a given l; validates every pair."""
        if l < 1:
            raise ParameterError(f"family parameter l must be >= 1, got {l}")
        return _expand(self.entries, l)


def parse_family(text):
    """Parse a family string; it must contain the parameter 'l' at least once."""
    entries = tuple(_parse_tokens(text, allow_l=True))
    if not any("l" in (m, n, k) for m, n, k, _, _ in entries):
        raise SequenceParseError(
            f"family {text!r} does not contain the free parameter 'l'"
        )
    return Family(text=" ".join(text.split()), entries=entries)
