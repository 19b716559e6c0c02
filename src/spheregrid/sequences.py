"""Text grammar for integer-pair sequences and one-parameter families.

A sequence is pairs ``m,n`` joined by ``;`` with an optional repetition
suffix on a parenthesised pair: ``1,1;(4,0)^2`` means ((1,1),(4,0),(4,0)).
A family writes the letter ``l`` for a free integer in one or more slots,
e.g. ``l,0`` or ``1,1;(4,0)^l``; its instance is its text with l written in.
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


def _parse_tokens(text):
    """Each token's slots (m, n, k) as text, its position and its stripped text."""
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
        if k != "l" and int(k) < 1:
            raise SequenceParseError(
                f"repetition count must be >= 1 at position {i}: {token.strip()!r}"
            )
        entries.append((m, n, k, i, token.strip()))
    return entries


def parse_sequence(text):
    """Parse a concrete sequence string into a tuple of validated pairs."""
    entries = _parse_tokens(text)
    for m, n, k, i, token in entries:
        if "l" in (m, n, k):
            raise SequenceParseError(
                f"free parameter 'l' not allowed here (position {i}: {token!r})"
            )
    pairs = []
    for m, n, k, i, token in entries:
        try:
            if len(pairs) + int(k) > 10**6:
                raise ParameterError("a sequence holds at most 10^6 pairs")
            pairs.extend([validate_pair((int(m), int(n)))] * int(k))
        except ParameterError as exc:
            raise SequenceParseError(f"at position {i} ({token!r}): {exc}") from None
    return tuple(pairs)


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

    def instantiate(self, l):
        """The sequence this family's text reads with ``l`` written in."""
        if l < 1:
            raise ParameterError(f"family parameter l must be >= 1, got {l}")
        # the grammar admits 'l' only as a whole slot, so no other text holds one
        return parse_sequence(self.text.replace("l", str(l)))


def parse_family(text):
    """Parse a family string; it must contain the parameter 'l' at least once."""
    if not any("l" in entry[:3] for entry in _parse_tokens(text)):
        raise SequenceParseError(
            f"family {text!r} does not contain the free parameter 'l'"
        )
    return Family(text=" ".join(text.split()))
