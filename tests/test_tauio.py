"""Tau file round trips, format policing, and recompute-and-diff checks."""

from __future__ import annotations

import random

import pytest

from primegaps import read_tau, tau_histogram, verify_tau, write_tau
from primegaps.cli import main
from primegaps.tauio import TauFormatError, format_tau


def random_histogram(rng: random.Random) -> dict[int, int]:
    gaps = sorted(rng.sample(range(1, 400), rng.randrange(1, 40)))
    return {2 * g: rng.randrange(1, 10**6) for g in gaps}


def test_round_trip_is_byte_identical(tmp_path):
    rng = random.Random(123)
    for i in range(20):
        hist = random_histogram(rng)
        first = tmp_path / f"tau_{i}a.dat"
        second = tmp_path / f"tau_{i}b.dat"
        write_tau(first, hist)
        parsed = read_tau(first)
        assert parsed == hist
        write_tau(second, parsed)
        assert first.read_bytes() == second.read_bytes()


def test_written_format_is_canonical(tmp_path, hist_2pow20):
    path = tmp_path / "tau20.dat"
    write_tau(path, hist_2pow20)
    raw = path.read_bytes()
    lines = raw.decode("ascii").splitlines()
    assert lines[0] == "2 8535"
    assert lines[-1] == "114 1"
    assert raw.endswith(b"1\n")
    assert b"\t" not in raw and b"  " not in raw
    gaps = [int(line.split()[0]) for line in lines]
    assert gaps == sorted(gaps)


def test_stdout_and_file_share_the_tau_format(tmp_path, capsys):
    path = tmp_path / "tau.dat"
    assert main(["taus", "--limit", "2^15", "--out", str(path)]) == 0
    assert main(["taus", "--limit", "2^15"]) == 0
    text = format_tau(tau_histogram(1 << 15))
    assert capsys.readouterr().out == text
    assert path.read_text(encoding="ascii") == text


def test_empty_histogram_round_trips(tmp_path):
    path = tmp_path / "empty.dat"
    write_tau(path, {})
    assert path.read_bytes() == b""
    assert read_tau(path) == {}


def test_writer_refuses_pairs_the_reader_refuses(tmp_path):
    path = tmp_path / "bad.dat"
    with pytest.raises(ValueError, match="invalid gap 0"):
        write_tau(path, {0: 5, -2: 1, 2: 3})
    assert not path.exists()


def test_reader_accepts_any_column_whitespace(tmp_path):
    path = tmp_path / "loose.dat"
    path.write_text("2 10\n4\t7\n  6   3\n", encoding="ascii")
    assert read_tau(path) == {2: 10, 4: 7, 6: 3}


@pytest.mark.parametrize(
    "content, lineno, message",
    [
        ("2 10\n\n4 7\n", 2, "blank"),
        ("2 10\n4 7 9\n", 2, "expected"),
        ("2\n", 1, "expected"),
        ("2 ten\n", 1, "non-integer"),
        ("2.0 10\n", 1, "non-integer"),
        ("1_0 5\n", 1, "non-integer"),
        ("+2 5\n", 1, "non-integer"),
        ("2 1_0\n", 1, "non-integer"),
        ("2 5\n4 \u00e9\n", 2, "non-ASCII"),  # b"2 5\n4 \xc3\xa9\n"
        ("3 10\n", 1, "invalid gap"),
        ("0 10\n", 1, "invalid gap"),
        ("1 10\n", 1, "invalid gap"),
        ("4 10\n2 7\n", 2, "ascending"),
        ("2 10\n2 7\n", 2, "ascending"),
        ("2 0\n", 1, "non-positive"),
        ("2 -5\n", 1, "non-positive"),
    ],
)
def test_reader_reports_line_numbers(tmp_path, content, lineno, message):
    path = tmp_path / "bad.dat"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(TauFormatError, match=rf":{lineno}:.*{message}"):
        read_tau(path)


def test_verify_agrees_with_a_fresh_emission(tmp_path):
    path = tmp_path / "tau5.dat"
    write_tau(path, tau_histogram(10**5))
    result = verify_tau(path, 10**5)
    assert result.matches
    assert "exact agreement" in result.summary()


def test_verify_names_a_perturbed_gap(tmp_path):
    counts = tau_histogram(10**4)
    counts[10] += 1
    path = tmp_path / "off.dat"
    write_tau(path, counts)
    result = verify_tau(path, 10**4)
    assert not result.matches
    assert len(result.differences) == 1
    gap, reference, computed = result.differences[0]
    assert gap == 10
    assert reference == computed + 1
    assert "gap 10" in result.summary()
    assert "MISMATCH" in result.summary()


def test_verify_flags_a_wrong_limit(tmp_path):
    path = tmp_path / "tau4.dat"
    write_tau(path, tau_histogram(10**4))
    result = verify_tau(path, 10**5)
    assert not result.matches
    assert result.reference_total != result.computed_total


def test_verify_truncates_long_difference_lists(tmp_path):
    path = tmp_path / "alien.dat"
    path.write_text("".join(f"{1000 + 2 * i} 1\n" for i in range(15)), encoding="ascii")
    result = verify_tau(path, 10**4)
    assert not result.matches
    assert len(result.differences) == 10
    assert result.truncated
    assert "suppressed" in result.summary()
