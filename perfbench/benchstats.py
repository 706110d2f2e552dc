"""Statistics helpers of the paper-scale benchmark (stdlib only).

Everything that turns raw samples into reported numbers lives here, so the
run script, the compare script and the tests share one definition of each.
"""

import math
import statistics

# A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def tail_percentile(values, beyond=TAIL_BEYOND):
    """The highest percentile that still has `beyond` samples above it.

    Returns (percentile, value, n): the value at rank n - beyond of the
    sorted samples and its percentile 100 * rank / n. With `beyond` or fewer
    samples no such percentile exists and the result is None.
    """
    n = len(values)
    if n <= beyond:
        return None
    rank = n - beyond
    return 100.0 * rank / n, sorted(values)[rank - 1], n


def geomean(values):
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spread(values):
    """Run-to-run spread: the interquartile distance over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


def layer_times(events):
    """Per-pass layer host times from Chrome trace 'X' events.

    Spans nest strictly (one tracing thread), so a span's self time is its
    duration minus the durations of its direct children. Every root span
    named "pass" opens a new pass. Returns one dict per pass mapping a
    layer name to (inclusive_ms, self_ms), summed over the pass's spans.
    """
    spans = []
    for e in events:
        if e.get("ph") != "X":
            continue
        # ts/dur are microseconds with nanosecond decimals: integer ns.
        begin = round(float(e["ts"]) * 1000)
        spans.append((begin, begin + round(float(e["dur"]) * 1000),
                      e["name"]))
    spans.sort(key=lambda s: (s[0], -s[1]))
    passes = []
    stack = []  # [end_ns, name, duration_ns, child_ns]

    def close(frame):
        end, name, dur, child = frame
        if stack:
            stack[-1][3] += dur
        incl, self_ = passes[-1].get(name, (0.0, 0.0))
        passes[-1][name] = (incl + dur / 1e6, self_ + (dur - child) / 1e6)

    for begin, end, name in spans:
        while stack and stack[-1][0] <= begin:
            close(stack.pop())
        if not stack and name == "pass":
            passes.append({})
        elif not passes:
            raise ValueError("span %r outside any pass" % name)
        stack.append([end, name, end - begin, 0])
    while stack:
        close(stack.pop())
    return passes


def judge(base, change, bound, better):
    """Verdict on one metric from two sets of runs.

    Returns (delta, verdict) where delta is the change's median over the
    base's, minus one. A metric whose spread in either set exceeds its bound
    is "unresolved", unless every change run beats every base run.
    """
    b, c = median(base), median(change)
    delta = (c - b) / b if b else 0.0
    worse = delta if better == "lower" else -delta
    if max(spread(base), spread(change)) > bound:
        if better == "lower":
            clean_win = max(change) < min(base)
        else:
            clean_win = min(change) > max(base)
        return delta, "better" if clean_win else "unresolved"
    if worse > bound:
        return delta, "worse"
    if -worse > bound:
        return delta, "better"
    return delta, "same"


def compare(base_records, change_records, metric_specs):
    """Compare two sets of result records, one row per workload.

    Records are dicts with "workload" and "metrics" ({name: {"value"}}).
    metric_specs maps a metric name to {"better", "bound"}. Returns a list
    of (workload, [(metric, delta, verdict), ...]) sorted by workload.
    """
    def group(records):
        out = {}
        for r in records:
            for name, m in r["metrics"].items():
                out.setdefault(r["workload"], {}).setdefault(
                    name, []).append(m["value"])
        return out

    base, change = group(base_records), group(change_records)
    rows = []
    for workload in sorted(set(base) & set(change)):
        cells = []
        for name, spec in metric_specs.items():
            b = base[workload].get(name)
            c = change[workload].get(name)
            if not b or not c:
                continue
            delta, verdict = judge(b, c, spec["bound"], spec["better"])
            cells.append((name, delta, verdict))
        rows.append((workload, cells))
    return rows
