"""The benchmark's three workloads.

Each workload builds its inputs from the seed in __init__ (the set-up),
runs one pass over those inputs in run_pass() (the timed part) and
checks the pass's outputs in check() (outside the timed part).  A pass
returns Op records; an op is one call the user would make: a report
command, one 2^20 window, or one query.  Every op is checked; a wrong
output or an exception counts as a failed op.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles
import primegaps
from primegaps import cli, expmodel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WINDOW = 1 << 20


@dataclass
class Op:
    kind: str
    seconds: float
    numbers: int  # integers the caller asked to have sieved
    output: object
    error: str | None = None
    latency: bool = True  # False for bookkeeping calls left out of the latency percentiles


def _timed(kind: str, numbers: int, call, latency: bool = True) -> Op:
    t0 = time.perf_counter()
    try:
        output = call()
    except Exception as exc:  # a failing call is a failed op, not a crashed run
        return Op(kind, time.perf_counter() - t0, numbers, None, f"{type(exc).__name__}: {exc}", latency)
    return Op(kind, time.perf_counter() - t0, numbers, output, None, latency)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _digest(parts: list[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- reports_from_2

# pi(2^t), known values; a plain sieve reproduces them.
PI = {2**20: 82025, 2**24: 1077871, 2**26: 3957809, 2**27: 7603553}
_SEGMENT_FIELD = re.compile(r" segment_size=\d+")


def report_body_digest(text: str) -> str:
    """Digest of a report with the segment_size field of '#' lines removed."""
    lines = [
        _SEGMENT_FIELD.sub("", line) if line.startswith("#") else line
        for line in text.split("\n")
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class ReportsFrom2:
    """The paper's artifacts through primegaps.cli.main, every sieve from 2.

    The limits are a quarter of the paper-scale ones (moments 2^29,
    table2 2^28) so that one pass takes about 1.5 s and a run holds
    enough passes for steady medians.
    """

    name = "reports_from_2"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.tau_path = workdir / "taus.txt"
        self.golden = json.loads((HERE / "golden.json").read_text())
        self.commands = [
            ("moments", ["moments", "--limit", "2^27"], 2**27),
            ("table1", ["table1", "--limit", "2^20,2^24,2^26"], 2**20 + 2**24 + 2**26),
            ("table2", ["table2", "--limit", "2^26", "--use-fixture"], 2**26),
            ("taus", ["taus", "--limit", "2^24", "--out", str(self.tau_path)], 2**24),
            ("verify_tau", ["verify-tau", "--reference", str(self.tau_path), "--limit", "2^24"], 2**24),
            ("expmodel", ["expmodel", "--n", "10000000", "--spacings", "1000000", "--seed", str(seed)], 0),
        ]
        rng = np.random.default_rng(seed)
        draws = rng.exponential(1.0, size=1_000_000)
        self.spacings_sum = f"{float((draws / draws.sum()).sum()):.12f}"

    def run_pass(self) -> list[Op]:
        ops = []
        for kind, argv, numbers in self.commands:
            buf = io.StringIO()

            def call():
                with contextlib.redirect_stdout(buf):
                    return cli.main(argv)

            op = _timed(kind, numbers, call)
            if op.error is None:
                text = self.tau_path.read_text() if kind == "taus" else buf.getvalue()
                op.output = (op.output, text)
            ops.append(op)
        return ops

    def _problem(self, op: Op) -> str | None:
        rc, text = op.output
        if rc != 0:
            return f"exit code {rc}"
        if op.kind == "expmodel":
            lines = text.rstrip("\n").split("\n")
            spacing = lines.pop()
            if f"seed={self.seed} " not in spacing or not spacing.endswith(f"sum={self.spacings_sum}"):
                return f"spacings line {spacing!r}"
            text = "\n".join(lines) + "\n"
        digest = report_body_digest(text)
        if digest != self.golden[op.kind]:
            return f"body digest {digest} differs from golden"
        rows = [line.split(",") for line in text.split("\n") if line and line[0].isdigit()]
        if op.kind == "moments" and any(int(r[0]) != PI[2**27] - 2 for r in rows):
            return "gap count differs from pi(2^27) - 2"
        if op.kind == "table1":
            got = {int(r[0]): int(r[1]) for r in rows}
            if got != {t: PI[2**t] - 2 for t in (20, 24, 26)}:
                return f"table1 gap counts {got}"
        if op.kind == "taus" and sum(int(r[0].split()[1]) for r in rows) != PI[2**24] - 2:
            return "tau total differs from pi(2^24) - 2"
        if op.kind == "verify_tau" and text != f"exact agreement at limit {2**24} ({PI[2**24] - 2} gaps)\n":
            return f"verify-tau said {text!r}"
        return None

    def check(self, ops: list[Op]) -> list[str]:
        failures = []
        for op in ops:
            problem = op.error or self._problem(op)
            if problem:
                failures.append(f"{op.kind}: {problem}")
        return failures

    def output_digest(self, ops: list[Op]) -> str:
        return _digest([op.output[1] if op.output else "error" for op in ops])

    def details(self, passes: list[list[Op]]) -> dict:
        out = {}
        for kind, _, _ in self.commands:
            times = [op.seconds for ops in passes for op in ops if op.kind == kind]
            out[f"report_s.{kind}"] = statistics.median(times)
        out["report_s.samples"] = len(passes)
        return out


# ------------------------------------------------------------- windows_at_height

OFFSETS = (30, 36, 40, 44)


class WindowsAtHeight:
    """K consecutive 2^20 windows at each offset, folded and summarised."""

    name = "windows_at_height"
    windows_per_offset = 6
    bracket_span = 1 << 22

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        k = self.windows_per_offset
        # The seed shifts each start by whole windows.
        self.starts = {e: 2**e + int(rng.integers(0, 64)) * WINDOW for e in OFFSETS}
        self.highs = {e: self.starts[e] + k * WINDOW for e in OFFSETS}
        self.bracket_a = 2**40 + int(rng.integers(0, 1 << 30)) + 2**36
        self._check_rng = np.random.default_rng([seed, 1])  # a fresh sample each pass
        self._expected: dict[int, bytes] = {}  # window start -> digest of the oracle's primes

    def _window_problem(self, seg) -> str | None:
        """Exact comparison with the oracle sieve, and Miller-Rabin on a sample."""
        if seg.lo not in self._expected:
            base = oracles.plain_sieve(math.isqrt(seg.hi - 1))
            want = oracles.window_primes(seg.lo, seg.hi, base)
            self._expected[seg.lo] = hashlib.sha256(want.tobytes()).digest()
        if hashlib.sha256(seg.primes.astype(np.int64).tobytes()).digest() != self._expected[seg.lo]:
            return f"window at {seg.lo}: primes differ from the oracle sieve"
        return _miller_rabin_problem(seg.primes, self._check_rng)

    def run_pass(self) -> list[Op]:
        # Every call goes through a module attribute, so the tracer's rebinding applies.
        pg, gaps_mod = primegaps, primegaps.gapstats
        ops = []
        for e in OFFSETS:
            lo, hi = self.starts[e], self.highs[e]
            base = pg.simple_sieve(math.isqrt(hi))
            state = {"prev": None, "next": 1, "total": gaps_mod.GapAccumulator()}

            def window(w_lo):
                seg = pg.sieve_segment(w_lo, w_lo + WINDOW, base)
                primes = seg.primes
                chain = primes if state["prev"] is None else np.concatenate(([state["prev"]], primes))
                state["prev"] = int(primes[-1])
                gaps = np.diff(chain)
                part = gaps_mod.GapAccumulator.from_gap_arrays(state["next"], gaps, chain[:-1])
                state["next"] += int(gaps.size)
                state["total"] = gaps_mod.merge(state["total"], part)
                return seg

            for w_lo in range(lo, hi, WINDOW):
                ops.append(_timed(f"o{e}", WINDOW, lambda w_lo=w_lo: window(w_lo)))
            total = state["total"]
            ops.append(
                _timed(f"moments.o{e}", 0, lambda: (total.n, gaps_mod.moments(total, [1, 2, 3, 4]).power_sums), False)
            )
        a = self.bracket_a
        ops.append(
            _timed("bracket", self.bracket_span, lambda: gaps_mod.interval_gap_bracket(a, a + self.bracket_span))
        )
        return ops

    def check(self, ops: list[Op]) -> list[str]:
        failures = []
        windows: list[np.ndarray] = []
        for op in ops:
            problem = op.error
            if problem is None and op.kind.startswith("o"):
                windows.append(op.output.primes)
                problem = self._window_problem(op.output)
            elif problem is None and op.kind.startswith("moments."):
                problem = _fold_problem(op.output, windows)
                windows = []
            elif problem is None and op.kind == "bracket":
                a = self.bracket_a
                b = a + self.bracket_span
                first = oracles.next_prime_after(a)
                last = oracles.prev_prime_at_most(b)
                expected = (last - first, b - a, oracles.next_prime_after(b) - first)
                if tuple(op.output) != expected:
                    problem = f"bracket {op.output} != {expected}"
            if problem:
                failures.append(f"{op.kind}: {problem}")
        return failures

    def output_digest(self, ops: list[Op]) -> str:
        parts = []
        for op in ops:
            if op.kind.startswith("o") and op.output is not None:
                primes = op.output.primes
                parts.append(f"{op.kind}:{primes.size}:{int(primes[0])}:{int(primes[-1])}")
            else:
                parts.append(f"{op.kind}:{op.output!r}")
        return _digest(parts)

    def details(self, passes: list[list[Op]]) -> dict:
        out = {}
        for e in OFFSETS:
            times = [op.seconds for ops in passes for op in ops if op.kind == f"o{e}"]
            out[f"window_ms.o{e}"] = 1e3 * statistics.median(times)
            out[f"window_ms.o{e}.samples"] = len(times)
        out["bracket_ms"] = 1e3 * statistics.median(
            op.seconds for ops in passes for op in ops if op.kind == "bracket"
        )
        return out


_SAMPLES_PER_WINDOW = 6


def _miller_rabin_problem(primes: np.ndarray, rng: np.random.Generator) -> str | None:
    """Miller-Rabin on a seeded sample of reported primes and gap interiors."""
    if primes.size < 2 or np.any(np.diff(primes) <= 0):
        return "primes not strictly ascending"
    for i in rng.integers(0, primes.size, _SAMPLES_PER_WINDOW):
        p = int(primes[i])
        if not oracles.is_prime(p):
            return f"{p} reported prime but composite"
    for i in rng.integers(0, primes.size - 1, _SAMPLES_PER_WINDOW):
        lo, hi = int(primes[i]), int(primes[i + 1])
        if hi - lo > 2:
            m = int(rng.integers(lo + 1, hi))
            if oracles.is_prime(m):
                return f"prime {m} missing inside gap ({lo}, {hi})"
    return None


def _fold_problem(output, windows: list[np.ndarray]) -> str | None:
    """The folded accumulator holds every gap across the K windows."""
    n, sums = output
    primes = np.concatenate(windows)
    gaps = np.diff(primes)
    if n != gaps.size:
        return f"fold holds {n} gaps, windows hold {gaps.size}"
    expected = {k: int(np.sum(gaps**k)) for k in (1, 2, 3, 4)}
    if dict(sums) != expected:
        return f"power sums {dict(sums)} != {expected}"
    return None


# ----------------------------------------------------------------- small_queries

QUERY_KINDS = ("prime_count", "nth_prime", "gap_moments", "records", "bracket", "expmodel")
ORACLE_LIMIT = 10_300_000


def _fixture_records() -> list[tuple[int, int, int]]:
    path = ROOT / "src" / "primegaps" / "data" / "max_gap_records.csv"
    with path.open(encoding="ascii") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return [(int(r["n"]), int(r["G_n"]), int(r["p_n"])) for r in rows]


class SmallQueries:
    """Seeded queries, x log-uniform in [10^3, 10^7], one client, closed loop.

    Each kind gets an equal share of the queries.  Its inputs come from
    three coordinates in [0, 1): a rank-1 lattice (j/m, j*sqrt2, j*sqrt3,
    all mod 1) shifted by a seeded random offset.  That set covers the
    unit cube evenly, so two seeds give nearly the same latency
    distribution and not just the same law; independent draws made the
    median expmodel latency differ by half between seeds.  One query of
    each kind sits at the top of the range (x = 10^7, i = n): the tail
    case and the peak memory are in every set.
    """

    name = "small_queries"
    per_kind = 167

    def __init__(self, seed: int, workdir: Path):
        self.primes = oracles.plain_sieve(ORACLE_LIMIT)
        self.gaps = np.diff(self.primes)
        self.fixture = _fixture_records()
        rng = np.random.default_rng(seed)
        j = np.arange(self.per_kind)
        steps = (1.0 / self.per_kind, math.sqrt(2.0) % 1, math.sqrt(3.0) % 1)
        queries = []
        for kind in QUERY_KINDS:
            u, v, w = ((j * step + shift) % 1.0 for step, shift in zip(steps, rng.random(3)))
            queries += [self._query(kind, 3 + 4 * a, b, c) for a, b, c in zip(u, v, w)]
        order = rng.permutation(len(queries))
        self.queries = [self._query(kind, 7.0, 1.0, 0.5) for kind in QUERY_KINDS]
        self.queries += [queries[i] for i in order]
        self._expected: dict[int, object] = {}

    def _query(self, kind: str, log_x: float, v: float, w: float) -> tuple[str, tuple]:
        x = int(round(10**log_x))
        if kind == "nth_prime":
            return kind, (int(np.searchsorted(self.primes, x, "right")),)
        if kind == "bracket":
            return kind, (x, x + int(round(10 ** (3 + 2 * v))))
        if kind == "expmodel":
            i = min(x, max(1, int(round(x**v))))
            return kind, (i, x, 1.0 / math.log(x), 0.01 + 0.98 * w)
        return kind, (x,)

    def _numbers(self, kind: str, args: tuple) -> int:
        if kind == "nth_prime":
            return int(self.primes[args[0] - 1])
        if kind == "bracket":
            return args[1] - args[0]
        return 0 if kind == "expmodel" else args[0]

    @staticmethod
    def _call(kind: str, args: tuple):
        pg = primegaps
        if kind == "prime_count":
            return pg.prime_count(args[0])
        if kind == "nth_prime":
            return pg.nth_prime(args[0])
        if kind == "gap_moments":
            acc = pg.gap_statistics(args[0])
            return acc, pg.moments(acc, [1, 2, 3, 4])
        if kind == "records":
            records = pg.reports.collect_records(args[0], use_fixture=True)
            return records, pg.compare_max_gaps(records)
        if kind == "bracket":
            return pg.interval_gap_bracket(*args)
        i, n, rate, q = args
        return (
            expmodel.order_stat_mean(i, n, rate),
            expmodel.order_stat_var(i, n, rate),
            expmodel.max_order_quantile(q, expmodel.ExpParams(n, rate)),
        )

    def run_pass(self) -> list[Op]:
        return [
            _timed(kind, self._numbers(kind, args), lambda kind=kind, args=args: self._call(kind, args))
            for kind, args in self.queries
        ]

    def _expect(self, kind: str, args: tuple):
        P, G = self.primes, self.gaps
        if kind == "prime_count":
            return int(np.searchsorted(P, args[0], "right"))
        if kind == "nth_prime":
            return int(P[args[0] - 1])
        if kind == "gap_moments":
            m = int(np.searchsorted(P, args[0], "left"))  # primes < x
            gaps = G[1 : m - 1]
            counts = {int(d): int(c) for d, c in enumerate(np.bincount(gaps)) if c}
            sums = {k: int(np.sum(gaps.astype(np.int64) ** k)) for k in (1, 2, 3, 4)}
            return gaps.size, counts, sums
        if kind == "records":
            x = args[0]
            m = int(np.searchsorted(P, x, "left"))
            gaps = G[: m - 1]
            best = np.concatenate(([0], np.maximum.accumulate(gaps)[:-1]))
            records = [(int(i) + 1, int(gaps[i]), int(P[i])) for i in np.flatnonzero(gaps > best)]
            top = records[-1][1]
            for index, gap, lower in self.fixture:
                if lower + gap >= x and gap > top:
                    records.append((index, gap, lower))
                    top = gap
            return records
        if kind == "bracket":
            a, b = args
            inside = P[(P > a) & (P <= b)]
            after = int(P[np.searchsorted(P, b, "right")])
            return int(inside[-1] - inside[0]), b - a, after - int(inside[0])
        i, n, rate, q = args
        return (
            oracles.recip_sum(n - i + 1, n, 1) / rate,
            oracles.recip_sum(n - i + 1, n, 2) / (rate * rate),
        )

    def _problem(self, index: int, op: Op) -> str | None:
        kind, args = self.queries[index]
        if index not in self._expected:
            self._expected[index] = self._expect(kind, args)
        want = self._expected[index]
        got = op.output
        if kind in ("prime_count", "nth_prime", "bracket"):
            return None if got == want else f"{got} != {want}"
        if kind == "gap_moments":
            acc, summary = got
            n, counts, sums = want
            if acc.n != n or dict(acc.counts) != counts or summary.n != n:
                return "histogram differs from the plain sieve"
            return None if dict(summary.power_sums) == sums else f"power sums {dict(summary.power_sums)} != {sums}"
        if kind == "records":
            records, rows = got
            if [(r.index, r.gap, r.lower_prime) for r in records] != want:
                return "records differ from the plain sieve and fixture"
            coeff = 2.0 * math.exp(-oracles.EULER_GAMMA)
            for rec, row in zip(records, rows):
                model = coeff * math.log(rec.index) ** 2
                if row.n != rec.index or row.observed != rec.gap:
                    return f"comparison row {row.n} does not match its record"
                if not math.isclose(row.model_values["granville_n"], model, rel_tol=1e-12):
                    return f"granville_n at n={rec.index}"
                if row.exceeds_granville != (rec.gap > row.model_values["granville_n"]):
                    return f"exceeds_granville flag at n={rec.index}"
            return None if len(rows) == len(records) else "comparison row count"
        i, n, rate, q = args
        mean, var, y = got
        if not math.isclose(mean, want[0], rel_tol=1e-9) or not math.isclose(var, want[1], rel_tol=1e-9):
            return f"order statistic ({mean}, {var}) != {want}"
        sf = -math.expm1(n * math.log1p(-math.exp(-rate * y)))
        return None if math.isclose(sf, q, rel_tol=1e-8) else f"quantile {y} has tail {sf} != {q}"

    def check(self, ops: list[Op]) -> list[str]:
        failures = []
        for index, op in enumerate(ops):
            problem = op.error or self._problem(index, op)
            if problem:
                failures.append(f"{op.kind}{self.queries[index][1]}: {problem}")
        return failures

    def output_digest(self, ops: list[Op]) -> str:
        parts = []
        for op in ops:
            out = op.output
            if op.kind == "gap_moments" and out is not None:
                out = (out[0].n, sorted(out[0].counts.items()), sorted(out[1].power_sums.items()))
            elif op.kind == "records" and out is not None:
                out = [(r.index, r.gap, r.lower_prime) for r in out[0]]
            parts.append(f"{op.kind}:{out!r}")
        return _digest(parts)

    def details(self, passes: list[list[Op]]) -> dict:
        latencies = [op.seconds for ops in passes for op in ops]
        out = {
            "query_p50_ms": 1e3 * _percentile(latencies, 0.50),
            "query_p99_ms": 1e3 * _percentile(latencies, 0.99),
            "queries_per_s": len(latencies) / sum(latencies),
            "query_samples": len(latencies),
        }
        for kind in QUERY_KINDS:
            times = [op.seconds for ops in passes for op in ops if op.kind == kind]
            out[f"query_p50_ms.{kind}"] = 1e3 * _percentile(times, 0.50)
        return out


WORKLOADS = {w.name: w for w in (ReportsFrom2, WindowsAtHeight, SmallQueries)}
