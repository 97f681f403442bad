"""Zipf / power-law popularity models.

Content popularity in video services is famously heavy-tailed; the
paper's Fig. 2 trace (views of top-50 trending videos in 30 minutes)
shows the classic pattern — a ~140k-view head and a few-thousand-view
tail.  These helpers produce normalized Zipf popularity vectors and
integer view counts matching that shape.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .._validation import check_positive_int, rng_from
from ..exceptions import ValidationError

__all__ = ["zipf_popularity", "zipf_counts", "largest_remainder_round", "fit_zipf_exponent"]


def zipf_popularity(num_items: int, exponent: float = 1.0) -> np.ndarray:
    """Normalized Zipf probabilities ``p[k] ∝ 1 / (k+1)^exponent``.

    The vector is sorted most-popular-first and sums to one.
    """
    check_positive_int(num_items, "num_items")
    if exponent < 0:
        raise ValidationError(f"exponent must be nonnegative, got {exponent}")
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def largest_remainder_round(
    weights: np.ndarray, total: Union[int, np.ndarray], *, minimum: int = 1
) -> np.ndarray:
    """Integer apportionment of ``total`` across ``weights``, sum-exact.

    Every entry gets at least ``minimum``; the rest of the budget is
    split proportionally to ``weights`` and rounded with the classic
    largest-remainder (Hamilton) correction, so the result sums to
    exactly ``total``.  For non-increasing weights the result is
    non-increasing too: floors of a sorted vector stay sorted, and among
    equal floors the fractional remainders inherit the ordering, so the
    ``+1`` corrections land head-first.

    ``total`` may also be a 1-D vector of totals: the result then has
    one row per total, each equal to the scalar call on that total (the
    arithmetic is elementwise per row, and the floors are integers, so
    their row sums are exact in any order).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0:
        raise ValidationError("weights must be a nonempty 1-D vector")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValidationError("weights must be finite and nonnegative")
    if minimum < 0:
        raise ValidationError(f"minimum must be nonnegative, got {minimum}")
    totals = np.asarray(total)
    if totals.ndim > 1:
        raise ValidationError("total must be a scalar or a 1-D vector of totals")
    short = totals < minimum * weights.size
    if np.any(short):
        raise ValidationError(
            f"total {totals[short].min()} cannot cover the minimum of {minimum} for "
            f"{weights.size} item(s)"
        )
    spare = np.atleast_1d(totals - minimum * weights.size)
    mass = float(weights.sum())
    if mass <= 0:
        raw = np.repeat((spare / weights.size)[:, np.newaxis], weights.size, axis=1)
    else:
        raw = (weights / mass)[np.newaxis, :] * spare[:, np.newaxis]
    floors = np.floor(raw)
    remainders = raw - floors
    leftover = np.rint(spare - floors.sum(axis=1)).astype(np.int64)
    counts = floors.astype(np.int64) + minimum
    # Stable sort on the negated remainder: ties go to the smaller index,
    # i.e. the more popular item.  Each row's first ``leftover`` get +1.
    order = np.argsort(-remainders, axis=1, kind="stable")
    bump = np.arange(weights.size)[np.newaxis, :] < leftover[:, np.newaxis]
    counts[np.arange(counts.shape[0])[:, np.newaxis], order] += bump
    counts = counts.astype(np.float64)
    return counts if totals.ndim else counts[0]


def zipf_counts(
    num_items: int,
    *,
    exponent: float = 1.0,
    head_count: float = 140_000.0,
    jitter: float = 0.0,
    total: Union[int, np.ndarray, None] = None,
    rng: Union[int, np.random.Generator, None] = None,
) -> np.ndarray:
    """Integer view counts with a Zipf shape and a fixed head value.

    ``head_count`` pins the most popular item's count (the paper's top
    video has about 140k views); ``jitter`` applies multiplicative
    log-normal noise with that standard deviation so the curve is not
    perfectly smooth, like a real trace.

    With ``total`` set, the jittered shape is renormalized *before*
    rounding and apportioned with a largest-remainder correction so the
    returned counts sum to exactly ``total`` with every item at least 1
    (plain per-entry rounding can miss the requested volume and zero out
    the tail).  ``head_count`` is ignored in that mode — the head follows
    from the shape and the volume.  A 1-D vector of totals returns one
    such row per total, each equal to the scalar call's.
    """
    popularity = zipf_popularity(num_items, exponent)
    counts = popularity / popularity[0] * float(head_count)
    if jitter > 0:
        generator = rng_from(rng)
        # repro-lint: disable=noise-outside-privacy -- popularity jitter for synthetic traces, not a DP release
        noise = generator.lognormal(mean=0.0, sigma=jitter, size=num_items)
        counts = counts * noise
        # Keep the head pinned and the ordering recognisably heavy-tailed.
        counts = np.sort(counts)[::-1]
        counts = counts / counts[0] * float(head_count)
    if total is not None:
        if np.any(np.asarray(total) < num_items):
            raise ValidationError(
                f"total {total} must be at least num_items {num_items} so every "
                "item keeps a count of one"
            )
        if np.ndim(total) == 0:
            total = int(total)
        return largest_remainder_round(counts, total, minimum=1)
    return np.maximum(np.round(counts), 1.0)


def fit_zipf_exponent(counts: np.ndarray) -> float:
    """Least-squares Zipf exponent of a sorted count vector.

    Fits ``log(count) ~ -s * log(rank)`` and returns ``s``; used in tests
    to confirm generated traces keep the intended shape.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size < 2:
        raise ValidationError("counts must be a 1-D vector with at least two entries")
    if np.any(counts <= 0):
        raise ValidationError("counts must be strictly positive to fit a Zipf exponent")
    ordered = np.sort(counts)[::-1]
    ranks = np.arange(1, ordered.size + 1, dtype=np.float64)
    slope, _ = np.polyfit(np.log(ranks), np.log(ordered), deg=1)
    return float(-slope)
