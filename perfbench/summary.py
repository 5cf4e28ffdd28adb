"""Summary code of the repository benchmark.

Turns the perfbench binary's raw result (one JSON object: set-up times, item
latencies, counts, per-layer values) into the metrics BENCHMARK.json
declares, and renders the lines run.py prints before its final JSON line.
"""

import math
import re
import statistics

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

# Candidate tail percentiles, highest first. A run reports the highest one
# that leaves at least MIN_BEYOND items above it.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n items. Rounding
    first keeps binary noise (10000 * 99.9 / 100 = 9990.000000000002) from
    bumping an exact rank up by one."""
    return max(1, math.ceil(round(n * p / 100.0, 6)))


def beyond(n, p):
    """Items ranked above the nearest-rank p-th percentile of n items."""
    return n - rank(n, p)


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND items beyond it."""
    for p in TAIL_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[min(rank(len(sorted_values), p),
                             len(sorted_values)) - 1]


def latency_summary(latencies_s, failed):
    """p50 and tail latency in ms. A failed or refused item counts as
    missing every latency limit: it enters the ranking as infinitely slow."""
    values = sorted(latencies_s) + [math.inf] * failed
    n = len(values)
    tail = tail_percentile(n)
    return {
        "n": n,
        "p50_ms": percentile(values, 50.0) * 1e3 if n else math.inf,
        "tail_p": tail,
        "tail_ms": percentile(values, tail) * 1e3 if tail else math.inf,
    }


def end_to_end(raw):
    """Every end-to-end metric of an untraced run, as {name: value}."""
    lat = latency_summary(raw["item_s"], raw["failed"])
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "items_per_s": throughput(raw["windows"]),
        "item_ms_p50": lat["p50_ms"],
        "item_ms_tail": lat["tail_ms"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def throughput(windows):
    """Median work rate over the run's measurement windows."""
    rates = [units / seconds for units, seconds in windows if seconds > 0]
    return statistics.median(rates) if rates else 0.0


def error_ratio(attempted, failed):
    return failed / attempted if attempted else 1.0


def result_line(raw, values, units):
    """The final JSON object run.py prints: correctness, counts, metrics."""
    for name in values:
        if not METRIC_NAME.match(name):
            raise ValueError("bad metric name %r" % name)
    metrics = {}
    for name, value in values.items():
        finite = isinstance(value, (int, float)) and math.isfinite(value)
        metrics[name] = {"value": value if finite else None,
                         "unit": units[name]}
    # A failed operation (a reject or transport error on serve, a step that
    # never finished on train) fails the run even when no output check
    # recorded an error for it.
    return {
        "correct": not raw["errors"] and raw["failed"] == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }


def _fmt(v):
    if not isinstance(v, (int, float)) or not math.isfinite(v):
        return str(v)
    return "%d" % v if v == int(v) and abs(v) < 1e15 else "%.6g" % v


def report_lines(workload, raw, values, units, trace):
    """Human-readable lines: each metric with its unit and sample count,
    the error ratio with both counts, and the traced run's self times."""
    lines = ["workload %s (%s run)" % (workload, "traced" if trace else
                                         "untraced")]
    lat = latency_summary(raw["item_s"], raw["failed"])
    notes = {
        "setup_s": "median of %d set-ups: %s" % (
            len(raw["setup_s"]), " ".join(_fmt(s) for s in raw["setup_s"])),
        "items_per_s": "median of %d windows; %s units in %s s" % (
            len(raw["windows"]), _fmt(raw["work_units"]),
            _fmt(raw["measure_s"])),
        "item_ms_p50": "n=%d" % lat["n"],
        "item_ms_tail": "p%s, n=%d, %d beyond" % (
            _fmt(lat["tail_p"]), lat["n"],
            beyond(lat["n"], lat["tail_p"]) if lat["tail_p"] else 0),
    }
    for name, value in values.items():
        lines.append("  %-34s %14s %-8s %s" % (
            name, _fmt(value), units[name], notes.get(name, "") if not trace
            else ""))
    lines.append("  %-34s %14s %-8s %d failed / %d attempted" % (
        "error_ratio", _fmt(error_ratio(raw["attempted"], raw["failed"])),
        "ratio", raw["failed"], raw["attempted"]))
    for key, value in sorted(raw["info"].items()):
        lines.append("  %-34s %14s" % (key, _fmt(value)))
    for err in raw["errors"]:
        lines.append("  CHECK FAILED: " + err)
    if trace and raw["self_times"]:
        lines.append("  span self times (traced segment):")
        lines.append("    %-28s %8s %12s %12s" % ("span", "count",
                                                  "total_ms", "self_ms"))
        for st in raw["self_times"]:
            lines.append("    %-28s %8d %12.3f %12.3f" % (
                st["name"], st["count"], st["total_ms"], st["self_ms"]))
    return lines
