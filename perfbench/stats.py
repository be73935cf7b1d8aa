"""Summary statistics shared by every workload of the benchmark.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it, together with the sample count, so a
tail figure is never read off two or three outliers.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles considered for the reported tail, lowest first.
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * frac)


def highest_supported_percentile(n: int, ladder: Sequence[float] = TAIL_LADDER) -> Optional[float]:
    """The highest percentile of ``ladder`` with >= ``MIN_BEYOND`` samples beyond it.

    ``n`` samples put ``n * (1 - q/100)`` of them beyond the q-th
    percentile; ``None`` when not even the median qualifies.
    """
    best = None
    for q in ladder:
        # Round before comparing: 1000 * (1 - 0.99) is 9.999... in floats.
        if round(n * (1.0 - q / 100.0), 9) >= MIN_BEYOND:
            best = q
    return best


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, the supported tail percentile and the count of ``values``."""
    out: Dict[str, object] = {"n": len(values)}
    if not values:
        return out
    out["p50"] = percentile(values, 50.0)
    tail = highest_supported_percentile(len(values))
    if tail is not None and tail > 50.0:
        out["tail_q"] = tail
        out["tail"] = percentile(values, tail)
    return out


def format_summary(name: str, values: Sequence[float], unit: str) -> str:
    """One report line: ``name p50 [pXX] unit (n=...)``."""
    s = summarize(values)
    if s["n"] == 0:
        return f"{name:<34} -  {unit} (n=0)"
    text = f"{name:<34} p50={s['p50']:.4f}"
    if "tail" in s:
        text += f" p{s['tail_q']:g}={s['tail']:.4f}"
    return text + f" {unit} (n={s['n']})"


#: Consecutive segments a timed phase is split into; see :func:`segmented_percentile`.
SEGMENTS = 10


def segmented_percentile(values: Sequence[float], q: float, segments: int = SEGMENTS) -> float:
    """Median over consecutive segments of ``values`` (in time order) of each segment's q-th percentile.

    On a shared box a few seconds of slowdown inflate the tail of a whole
    run; taking the median of per-segment percentiles discounts the slow
    spells while still reading each segment's own tail.
    """
    n = len(values)
    bounds = [round(k * n / segments) for k in range(segments + 1)]
    parts = [values[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
    ordered = sorted(percentile(part, q) for part in parts)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def geometric_mean(values: Iterable[float]) -> float:
    vals = [float(v) for v in values]
    if not vals or any(v <= 0 for v in vals):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def median_band(values: Sequence[float], lo: float = 40.0, hi: float = 60.0) -> List[int]:
    """Indices of the samples between the ``lo``-th and ``hi``-th percentiles.

    The per-layer tables average the layers over this band, so the rows
    add up to (about) the median request rather than to the mean.
    """
    if not values:
        return []
    a, b = percentile(values, lo), percentile(values, hi)
    band = [i for i, v in enumerate(values) if a <= v <= b]
    return band or [min(range(len(values)), key=lambda i: abs(values[i] - percentile(values, 50.0)))]


def digest(documents: Iterable[object]) -> str:
    """SHA-256 over the canonical JSON of every input document, in order."""
    h = hashlib.sha256()
    for doc in documents:
        if isinstance(doc, bytes):
            h.update(doc)
        else:
            h.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def histogram_quantile(buckets: Sequence[Tuple[float, float]], q: float) -> Optional[float]:
    """Quantile of a cumulative Prometheus histogram (``(le, count)`` pairs).

    Interpolates linearly inside the bucket holding the quantile, the way
    PromQL's ``histogram_quantile`` does; ``None`` for an empty histogram.
    """
    ordered = sorted(buckets)
    if not ordered or ordered[-1][1] <= 0:
        return None
    total = ordered[-1][1]
    rank = q * total
    prev_le, prev_count = 0.0, 0.0
    for le, count in ordered:
        if count >= rank:
            if math.isinf(le):
                return prev_le
            width = count - prev_count
            frac = 0.0 if width <= 0 else (rank - prev_count) / width
            return prev_le + (le - prev_le) * frac
        prev_le, prev_count = le, count
    return prev_le


def parse_prometheus(text: str) -> Dict[str, List[Tuple[Dict[str, str], float]]]:
    """Samples of a Prometheus text exposition, by metric name."""
    out: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        line = line.split(" # ", 1)[0]  # drop an exemplar suffix
        head, _, value = line.rpartition(" ")
        labels: Dict[str, str] = {}
        name = head
        if "{" in head:
            name, _, rest = head.partition("{")
            for part in _split_labels(rest.rstrip("}")):
                key, _, raw = part.partition("=")
                labels[key.strip()] = raw.strip().strip('"')
        try:
            out.setdefault(name, []).append((labels, float(value)))
        except ValueError:
            continue
    return out


def _split_labels(body: str) -> List[str]:
    parts, current, quoted = [], [], False
    for ch in body:
        if ch == '"':
            quoted = not quoted
        if ch == "," and not quoted:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    return [p for p in parts if p.strip()]


def merged_histogram(samples: Dict[str, List[Tuple[Dict[str, str], float]]], family: str) -> List[Tuple[float, float]]:
    """Sum a histogram family's ``_bucket`` series over all label sets."""
    merged: Dict[float, float] = {}
    for labels, value in samples.get(f"{family}_bucket", []):
        le = labels.get("le", "+Inf")
        key = math.inf if le in ("+Inf", "Inf", "inf") else float(le)
        merged[key] = merged.get(key, 0.0) + value
    return sorted(merged.items())


def family_total(samples: Dict[str, List[Tuple[Dict[str, str], float]]], name: str, **match: str) -> float:
    """Sum of every sample of ``name`` whose labels include ``match``."""
    total = 0.0
    for labels, value in samples.get(name, []):
        if all(labels.get(k) == v for k, v in match.items()):
            total += value
    return total
