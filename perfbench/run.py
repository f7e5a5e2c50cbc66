"""primegaps benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload reports_from_2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh child process (worker.py) so that its
set-up time and peak RSS are its own.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1.  A readable summary with the machine description goes to
stderr and, with the full breakdown, to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "primegaps"
WORKER = HERE / "worker.py"
OUT = HERE / "out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
SETUP_REPEATS = 5


def machine() -> dict:
    """What the numbers were measured on; every source is optional."""
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None,
        "platform": platform.platform(),
        "caches": {},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        name = f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")
        info["caches"][name] = size
    info["working_set"] = (
        "a 2^20 window is a 512 KiB odd-only mask; the base primes below 2^22 "
        "(2^44 offset) are 296k int64 = 2.3 MiB; L2 is per core, L3 shared"
    )
    return info


def source_identity() -> dict:
    """Git commit when there is a repository, and a digest of src/ always."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()[:16]}


def worker_cmd(workload: str, seed: int, seconds: float, trace: int, workdir: Path) -> list[str]:
    return [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(workdir),
    ]


def run_child(cmd: list[str], timeout: float) -> tuple[int, str, float]:
    """Run the worker; return its exit code, stdout and its own peak RSS in MB."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def setup_seconds(workload: str, seed: int, workdir: Path) -> list[float]:
    """Wall time of fresh processes that import the package and build the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        code, _, _ = run_child(worker_cmd(workload, seed, 0, 0, workdir) + ["--setup-only"], 120)
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"{workload} set-up exited with code {code}")
    return times


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    workdir = OUT / f"work-{os.getpid()}-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        code, out, rss_mb = run_child(worker_cmd(workload, seed, seconds, trace, workdir), 2 * seconds + 60)
        if code != 0 or not out.strip():
            raise RuntimeError(f"{workload} worker exited with code {code}")
        child = json.loads(out.strip().splitlines()[-1])
        setups = setup_seconds(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = dict(child["metrics"])
    if not trace:
        values.update(setup_s=statistics.median(setups), peak_rss_mb=rss_mb)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "failed_ratio": child["failed"] / child["attempted"],
        "failures": child["failures"],
        "metrics": metrics,
        "passes": child["passes"],
        "pass_walls": child["pass_walls"],
        "op_samples": child["metrics"].get("op_samples"),
        "setup_samples_s": setups,
        "output_digest": child["output_digest"],
        "details": child["details"],
        "breakdown": child.get("breakdown", {}),
        "machine": dict(machine(), python=child["python"], numpy=child["numpy"]),
        "source": source_identity(),
    }


def describe(result: dict) -> str:
    lines = [
        f"== {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"passes={result['passes']} attempted={result['attempted']} failed={result['failed']} "
        f"failed_ratio={result['failed_ratio']:.6g} digest={result['output_digest']}"
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    for name, value in {**result["details"], **result["breakdown"]}.items():
        lines.append(f"  {name:48s} {value:.6g}")
    for failure in result["failures"]:
        lines.append(f"  FAILED {failure}")
    m = result["machine"]
    lines.append(
        f"  machine: nproc={m['nproc']} cpu={m['cpu_model']!r} caches={m['caches']} "
        f"python={m['python']} numpy={m['numpy']} source={result['source']}"
    )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        results.append(result)
        print(describe(result), file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
