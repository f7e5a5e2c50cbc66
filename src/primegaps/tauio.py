"""Reading, writing and verifying tau gap-count files: the one owner of the format.

A tau histogram is a dict from gap to count.  A tau file is plain ASCII:
one "gap count" pair per line, each field decimal digits, gaps even and
strictly ascending, counts positive, single space on write, any
whitespace accepted on read, LF line endings, no header and no trailing
blank line.  Writing then reading then writing again is byte-identical.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass

from .gapstats import tau_histogram

__all__ = [
    "TauFormatError", "TauVerification",
    "format_tau", "write_tau", "read_tau", "verify_tau",
]


class TauFormatError(ValueError):
    """A tau file violated the format; message carries the line number."""


def _check_pair(gap: int, count: int) -> None:
    """The one rule for a tau pair, checked on every write and every read."""
    if gap < 2 or gap % 2 or count <= 0:
        raise ValueError(
            f"invalid gap {gap} or non-positive count {count}: "
            "a tau pair is an even gap >= 2 and a positive count"
        )


def format_tau(counts: Mapping[int, int]) -> str:
    """The counts as the text of a tau file."""
    for gap, count in counts.items():
        _check_pair(gap, count)
    return "".join(f"{gap} {count}\n" for gap, count in sorted(counts.items()))


def write_tau(path: str | os.PathLike, counts: Mapping[int, int]) -> None:
    """Write the counts to a tau file at path."""
    text = format_tau(counts)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def read_tau(path: str | os.PathLike) -> dict[int, int]:
    """Parse a tau file into its counts, naming the line of the first fault."""
    counts: dict[int, int] = {}
    last_gap = 0
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.isascii():
                raise TauFormatError(f"{path}:{lineno}: non-ASCII byte")
            fields = line.split()
            if not fields:
                raise TauFormatError(f"{path}:{lineno}: blank line")
            if len(fields) != 2:
                raise TauFormatError(
                    f"{path}:{lineno}: expected 'gap count', got {line.rstrip()!r}"
                )
            try:  # a minus sign reaches the pair rule; int's "+" and "_" do not
                if not all(f.removeprefix("-").isdigit() for f in fields):
                    raise ValueError(fields)
                gap, count = int(fields[0]), int(fields[1])
            except ValueError as exc:
                raise TauFormatError(f"{path}:{lineno}: non-integer field") from exc
            try:
                _check_pair(gap, count)
            except ValueError as exc:
                raise TauFormatError(f"{path}:{lineno}: {exc}") from None
            if gap <= last_gap:
                raise TauFormatError(
                    f"{path}:{lineno}: gap {gap} not strictly ascending"
                )
            counts[gap] = count
            last_gap = gap
    return counts


@dataclass(frozen=True)
class TauVerification:
    """Outcome of recomputing a tau file from scratch: differences holds the
    first (gap, reference, computed) count triples that disagree."""

    limit: int
    reference_total: int
    computed_total: int
    differences: list[tuple[int, int, int]]
    truncated: bool

    @property
    def matches(self) -> bool:
        return not self.differences

    def summary(self) -> str:
        if self.matches:
            return f"exact agreement at limit {self.limit} ({self.computed_total} gaps)"
        head = (
            f"MISMATCH at limit {self.limit}: reference holds "
            f"{self.reference_total} gaps, recomputation {self.computed_total}"
        )
        lines = [head]
        for gap, reference, computed in self.differences:
            lines.append(f"  gap {gap}: reference {reference}, computed {computed}")
        if self.truncated:
            lines.append("  ... further differences suppressed")
        return "\n".join(lines)


_MAX_REPORTED_DIFFS = 10


def verify_tau(reference_path: str | os.PathLike, limit: int) -> TauVerification:
    """Recompute tau counts at the limit and diff against a reference file."""
    reference = read_tau(reference_path)
    computed = tau_histogram(limit)
    diffs = []
    for gap in sorted(reference.keys() | computed.keys()):
        ref = reference.get(gap, 0)
        got = computed.get(gap, 0)
        if ref != got:
            diffs.append((gap, ref, got))
    return TauVerification(
        limit=limit,
        reference_total=sum(reference.values()),
        computed_total=sum(computed.values()),
        differences=diffs[:_MAX_REPORTED_DIFFS],
        truncated=len(diffs) > _MAX_REPORTED_DIFFS,
    )
