"""In-memory spans around the package's public functions.

Tracer.install() wraps each function named in TRACED and rebinds every
module-level name that refers to it, because the package's modules
import each other's functions by name (``from .sieve import ...``).
GapAccumulator.from_gap_arrays is rebound as a classmethod.  The
iter_prime_segments generator is left alone: its sieve_segment calls are
the timed unit.  uninstall() puts every original back, so traced and
untraced passes can alternate in one process.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

TRACED = (
    ("sieve", "simple_sieve"),
    ("sieve", "sieve_segment"),
    ("sieve", "prime_count"),
    ("sieve", "nth_prime"),
    ("gapstats", "gap_statistics"),
    ("gapstats", "tau_histogram"),
    ("gapstats", "GapAccumulator.from_gap_arrays"),
    ("gapstats", "merge"),
    ("gapstats", "moments"),
    ("gapstats", "interval_gap_bracket"),
    ("reports", "table1_rows"),
    ("reports", "table2_rows"),
    ("reports", "collect_records"),
    ("reports", "write_table1"),
    ("reports", "write_table2"),
    ("reports", "write_figure_moments"),
    ("tauio", "write_tau"),
    ("tauio", "read_tau"),
    ("tauio", "verify_tau"),
    ("conjectures", "twin_constant"),
    ("conjectures", "known_max_gap_records"),
    ("conjectures", "compare_max_gaps"),
    ("conjectures", "compare_moments"),
    ("expmodel", "order_stat_mean"),
    ("expmodel", "order_stat_var"),
    ("expmodel", "max_order_quantile"),
    ("expmodel", "min_order_quantile"),
    ("expmodel", "simulate_spacings"),
    ("cli", "main"),
)

LAYER_NAMES = tuple(f"{module}.{name.split('.')[-1]}" for module, name in TRACED)


def _sieve_segment_info(args, kwargs, result):
    return (args[0], args[1], int(result.primes.size))


def _from_gap_arrays_info(args, kwargs, result):
    return int(args[2].size)  # (cls, first_index, gaps, lower_primes)


def _merge_info(args, kwargs, result):
    return len(args[0].counts) + len(args[1].counts)


def _simple_sieve_info(args, kwargs, result):
    return int(result.size)


def _write_tau_info(args, kwargs, result):
    return os.path.getsize(args[0])


# What each span records beyond its times; computed after the span ends.
_INFO = {
    "sieve.sieve_segment": _sieve_segment_info,
    "gapstats.from_gap_arrays": _from_gap_arrays_info,
    "gapstats.merge": _merge_info,
    "sieve.simple_sieve": _simple_sieve_info,
    "tauio.write_tau": _write_tau_info,
}


class Tracer:
    """Records spans as [name, start, end, parent, info] lists in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, func):
        spans, stack, info_of = self.spans, self._stack, _INFO.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if info_of is not None:
                spans[idx][4] = info_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "primegaps" or key.startswith("primegaps.")]
        for module_name, attr in TRACED:
            module = sys.modules[f"primegaps.{module_name}"]
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(name, original.__func__))
                setattr(cls, meth, wrapped)
                self._restore.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per-layer calls, inclusive seconds, self seconds and (info, seconds) pairs."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    layers: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "info": []})
    for i, (name, t0, t1, _, info) in enumerate(spans):
        layer = layers[name]
        layer["calls"] += 1
        layer["s"] += t1 - t0
        layer["self_s"] += t1 - t0 - child_time[i]
        if info is not None:
            layer["info"].append((info, t1 - t0))
    return layers
