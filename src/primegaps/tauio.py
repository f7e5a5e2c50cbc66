"""Reading, writing and verifying tau gap-count files.

A tau file is plain ASCII: one "gap count" pair per line, gaps even and
strictly ascending, counts positive, single space on write, any
whitespace accepted on read, LF line endings, no header and no trailing
blank line.  Writing then reading then writing again is byte-identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .gapstats import TauHistogram, tau_histogram

__all__ = [
    "TauFormatError", "TauVerification",
    "format_tau", "write_tau", "read_tau", "verify_tau",
]


class TauFormatError(ValueError):
    """A tau file violated the format; message carries the line number."""


def format_tau(histogram: TauHistogram) -> str:
    """The histogram as the text of a tau file: the one owner of the format."""
    histogram.validate()
    return "".join(f"{d} {histogram.counts[d]}\n" for d in sorted(histogram.counts))


def write_tau(path: str | os.PathLike, histogram: TauHistogram) -> None:
    """Write the histogram to a tau file at path."""
    text = format_tau(histogram)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def read_tau(path: str | os.PathLike, limit: int) -> TauHistogram:
    """Parse a tau file; the limit is metadata supplied by the caller."""
    counts: dict[int, int] = {}
    last_gap = 0
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            fields = line.split()
            if not fields:
                raise TauFormatError(f"{path}:{lineno}: blank line")
            if len(fields) != 2:
                raise TauFormatError(
                    f"{path}:{lineno}: expected 'gap count', got {line.rstrip()!r}"
                )
            try:
                gap, count = int(fields[0]), int(fields[1])
            except ValueError as exc:
                raise TauFormatError(f"{path}:{lineno}: non-integer field") from exc
            try:
                TauHistogram.check_pair(gap, count)
            except ValueError as exc:
                raise TauFormatError(f"{path}:{lineno}: {exc}") from None
            if gap <= last_gap:
                raise TauFormatError(
                    f"{path}:{lineno}: gap {gap} not strictly ascending"
                )
            counts[gap] = count
            last_gap = gap
    return TauHistogram(limit=limit, counts=counts)


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
        return not self.differences and self.reference_total == self.computed_total

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
    reference = read_tau(reference_path, limit)
    computed = tau_histogram(limit)
    diffs = []
    for gap in sorted(set(reference.counts) | set(computed.counts)):
        ref = reference.counts.get(gap, 0)
        got = computed.counts.get(gap, 0)
        if ref != got:
            diffs.append((gap, ref, got))
    return TauVerification(
        limit=limit,
        reference_total=reference.total,
        computed_total=computed.total,
        differences=diffs[:_MAX_REPORTED_DIFFS],
        truncated=len(diffs) > _MAX_REPORTED_DIFFS,
    )
