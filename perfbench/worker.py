"""Runs one workload in this process and prints its measurements as JSON.

run.py starts this script once per workload, so set-up and peak RSS
belong to that workload alone.  With --setup-only it imports the package,
builds the workload's inputs and exits; run.py times that several times.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from primegaps import reports  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import OFFSETS, WINDOW, WORKLOADS  # noqa: E402

MIN_PASSES = 3
MAX_FAILURES_SHOWN = 10


def measure(workload, seconds: float, trace: bool) -> dict:
    """Closed loop, one client: passes over the inputs until the time is used.

    A new pass starts only while the average pass (with its check) still
    fits in the time left, and at least MIN_PASSES run.  In a traced run
    the passes alternate traced/untraced, starting traced.
    """
    tracer = tracing.Tracer() if trace else None
    passes, walls, traced_flags, failures = [], [], [], []
    digest = None
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 0
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            ops = workload.run_pass()
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        failures += workload.check(ops)
        if digest is None:
            digest = workload.output_digest(ops)
        for op in ops:
            op.output = None
        passes.append(ops)
        walls.append(wall)
        traced_flags.append(traced)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    return {
        "passes": passes,
        "walls": walls,
        "traced": traced_flags,
        "failures": failures,
        "digest": digest,
        "spans": tracer.spans if trace else [],
    }


def end_to_end(passes: list, walls: list[float]) -> dict:
    """Metrics defined alike on every workload.

    An op kind is a report command, a window offset (or the bracket), or a
    query type.  light_op_ms and heavy_op_ms are the smallest and largest
    per-kind median latency: the per-call floor and the longest single
    call a user waits for.  A percentile over all ops would fall on the
    boundary between kinds whose costs differ 30-fold.
    """
    ops = [op for ops in passes for op in ops]
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        if op.latency:
            by_kind.setdefault(op.kind, []).append(op.seconds)
    medians = [statistics.median(times) for times in by_kind.values()]
    wall = statistics.median(walls)
    return {
        "wall_s": wall,
        "numbers_per_s": sum(op.numbers for op in passes[0]) / wall,
        "light_op_ms": 1e3 * min(medians),
        "heavy_op_ms": 1e3 * max(medians),
        "op_samples": {kind: len(times) for kind, times in by_kind.items()},
    }


def _strikes(infos: list[tuple], base: np.ndarray) -> tuple[int, int]:
    """(odd base primes with p^2 < hi, those with an odd multiple in [lo, hi))."""
    attempted = useful = 0
    for (lo, hi, _), _dur in infos:
        p = base[1 : np.searchsorted(base, math.isqrt(hi - 1), "right")]
        start = np.maximum(p * p, -(-lo // p) * p)
        start += (start % 2 == 0) * p
        attempted += p.size
        useful += int(np.count_nonzero(start < hi))
    return attempted, useful


def per_layer(run: dict) -> tuple[dict, dict]:
    """Per-layer metrics per traced pass, and the offset/report breakdown."""
    walls, flags = run["walls"], run["traced"]
    traced_walls = [w for w, t in zip(walls, flags) if t]
    plain_walls = [w for w, t in zip(walls, flags) if not t]
    n_traced, traced_total = len(traced_walls), sum(traced_walls)
    layers = tracing.summarize(run["spans"])
    metrics: dict[str, float] = {}
    for name in tracing.LAYER_NAMES:
        layer = layers.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = layer["calls"] / n_traced
        metrics[f"{name}.self_share"] = layer["self_s"] / traced_total

    seg = layers["sieve.sieve_segment"]
    infos = seg["info"]
    numbers = sum(hi - lo for (lo, hi, _), _ in infos)
    max_hi = max(hi for (_, hi, _), _ in infos)
    base = oracles.plain_sieve(math.isqrt(max_hi) + 1)
    attempted, useful = _strikes(infos, base)
    metrics.update({
        "sieve.sieve_segment.s": seg["s"] / n_traced,
        "sieve.sieve_segment.numbers": numbers / n_traced,
        "sieve.sieve_segment.primes": sum(n for (_, _, n), _ in infos) / n_traced,
        "sieve.sieve_segment.numbers_per_s": numbers / seg["s"],
        "sieve.sieve_segment.base_primes": attempted / len(infos),
        "sieve.sieve_segment.strike_ratio": useful / attempted,
    })
    simple = layers["sieve.simple_sieve"]
    metrics["sieve.simple_sieve.s"] = simple["s"] / n_traced
    metrics["sieve.simple_sieve.base_primes"] = statistics.mean(n for n, _ in simple["info"])
    fold = layers["gapstats.from_gap_arrays"]
    gaps = sum(n for n, _ in fold["info"])
    metrics["gapstats.from_gap_arrays.s"] = fold["s"] / n_traced
    metrics["gapstats.from_gap_arrays.gaps"] = gaps / n_traced
    metrics["gapstats.from_gap_arrays.gaps_per_s"] = gaps / fold["s"]
    merge = layers["gapstats.merge"]
    metrics["gapstats.merge.s"] = merge["s"] / n_traced
    metrics["gapstats.merge.keys_copied"] = sum(n for n, _ in merge["info"]) / n_traced
    metrics["gapstats.moments.s"] = layers["gapstats.moments"]["s"] / n_traced
    tau = layers.get("tauio.write_tau", {"info": []})
    metrics["tauio.bytes_written"] = sum(n for n, _ in tau["info"]) / n_traced

    # Budget-guard estimate over measured time, on the untraced passes.
    plain_ops = [op for ops, t in zip(run["passes"], flags) if not t for op in ops if op.numbers]
    metrics["reports.estimate_over_measured"] = sum(
        reports.estimate_seconds(op.numbers) for op in plain_ops
    ) / sum(op.seconds for op in plain_ops)

    covered = sum(layer["self_s"] for layer in layers.values())
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.coverage"] = covered / traced_total

    breakdown: dict[str, object] = {"traced_passes": n_traced, "untraced_passes": len(plain_walls)}
    for e in OFFSETS:
        at = [(info, dur) for info, dur in infos if info[1] - info[0] == WINDOW and info[0].bit_length() - 1 == e]
        if at:
            a, u = _strikes(at, base)
            breakdown[f"sieve.sieve_segment.ms.o{e}"] = 1e3 * statistics.median(d for _, d in at)
            breakdown[f"sieve.sieve_segment.base_primes.o{e}"] = a / len(at)
            breakdown[f"sieve.sieve_segment.strike_ratio.o{e}"] = u / a
    kinds = sorted({op.kind for op in plain_ops})
    for kind in kinds:
        chosen = [op for op in plain_ops if op.kind == kind]
        breakdown[f"reports.estimate_over_measured.{kind}"] = statistics.median(
            reports.estimate_seconds(op.numbers) / op.seconds for op in chosen
        )
    for name, layer in sorted(layers.items()):
        breakdown[f"{name}.s"] = layer["s"] / n_traced
        breakdown[f"{name}.self_s"] = layer["self_s"] / n_traced
    return metrics, breakdown


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.setup_only:
        return 0
    run = measure(workload, args.seconds, bool(args.trace))
    attempted = sum(len(ops) for ops in run["passes"])
    result = {
        "attempted": attempted,
        "failed": len(run["failures"]),
        "failures": run["failures"][:MAX_FAILURES_SHOWN],
        "passes": len(run["passes"]),
        "pass_walls": run["walls"],
        "output_digest": run["digest"],
        "details": workload.details(run["passes"]),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }
    if args.trace:
        result["metrics"], result["breakdown"] = per_layer(run)
    else:
        result["metrics"] = end_to_end(run["passes"], run["walls"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
