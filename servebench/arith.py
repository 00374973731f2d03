"""The benchmark's arithmetic: percentiles, the tail rule, throughput,
span self time, metric names and the result line.  Pure functions, so
test_arith.py can pin them down."""

import json
import math
import re
import statistics

# The tail is reported at the highest of these percentiles that still
# has at least TAIL_BEYOND samples beyond it.  p99.9 is left out: with
# ten samples beyond it, it is the eleventh-largest latency of a run and
# moves with every scheduler hiccup of a shared host.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
TAIL_BEYOND = 10

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list (p in 0..100)."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1]


def beyond(n, p):
    """Samples strictly after the nearest-rank p-th percentile's rank."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail(values):
    """(percentile, value) of the highest ladder percentile with at least
    TAIL_BEYOND samples beyond it.  Runs too short for even the median
    to qualify report the median, flagged by the percentile printed."""
    s = sorted(values)
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if beyond(len(s), p) >= TAIL_BEYOND:
            best = p
    return best, percentile(s, best)


def windowed_tail(samples, start, end, windows=3):
    """The tail percentile the rule picks for all samples in [start, end),
    taken in each of equal sub-windows (a request belongs to the one it
    completed in), then the median of those values.  A host stall in
    one sub-window moves one value, not the result.  samples: (end
    time, latency) pairs.  Returns (percentile, value)."""
    width = (end - start) / windows
    lat = [[] for _ in range(windows)]
    for t, v in samples:
        if start <= t < end:
            lat[min(windows - 1, int((t - start) / width))].append(v)
    if any(not x for x in lat):
        raise ValueError("a sub-window without samples")
    p, _ = tail([v for x in lat for v in x])
    return p, statistics.median(percentile(sorted(x), p) for x in lat)


def throughput(completions, start, end, buckets=5):
    """Median completion rate over equal sub-windows of [start, end).
    A sub-window's rate is (completions - 1) over the time from its
    first to its last completion, so it is not quantized by the window
    length; a host stall in one sub-window moves one bucket, not the
    result."""
    width = (end - start) / buckets
    times = [[] for _ in range(buckets)]
    for t in sorted(completions):
        if start <= t < end:
            times[min(buckets - 1, int((t - start) / width))].append(t)
    rates = [(len(ts) - 1) / (ts[-1] - ts[0]) for ts in times if len(ts) >= 2 and ts[-1] > ts[0]]
    if not rates:
        raise ValueError("too few completions to measure throughput")
    return statistics.median(rates)


def union_length(intervals):
    """Total length covered by possibly overlapping (start, end) pairs."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Per span id, its duration minus the time covered by its children
    (clipped to the parent; overlapping children counted once).
    spans: iterable of dicts with sid, parent, start, end."""
    spans = list(spans)
    by_id = {s["sid"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        kids = [(max(lo, c["start"]), min(hi, c["end"])) for c in children.get(s["sid"], [])]
        kids = [(a, b) for a, b in kids if b > a]
        out[s["sid"]] = (hi - lo) - union_length(kids)
    return out


def aggregate(spans):
    """name -> {count, self, total, amount}, times in the spans' unit."""
    spans = list(spans)
    selfs = self_times(spans)
    agg = {}
    for s in spans:
        a = agg.setdefault(s["name"], {"count": 0, "self": 0.0, "total": 0.0, "amount": 0})
        a["count"] += 1
        a["self"] += selfs[s["sid"]]
        a["total"] += s["end"] - s["start"]
        a["amount"] += s.get("amount", 0)
    return agg


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def result_line(correct, attempted, failed, metrics):
    """The final stdout line.  metrics: name -> (value, unit)."""
    for name, (value, unit) in metrics.items():
        if not valid_name(name) or not valid_unit(unit):
            raise ValueError("bad metric name or unit: %r %r" % (name, unit))
        if not isinstance(value, (int, float)) or math.isnan(value) or math.isinf(value):
            raise ValueError("metric %s is not a finite number: %r" % (name, value))
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )
