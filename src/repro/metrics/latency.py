"""Latency sample collection and percentile queries."""

from __future__ import annotations

import numpy as np
# ``np.unique`` imports numpy.ma on first use; import it here so the
# first recorder summary does not pay the import inside a run.
import numpy.ma  # noqa: F401

from repro._errors import AnalysisError
from repro.metrics.columns import Column, StringInterner

#: Magnitude below which a negative sample is treated as floating-point
#: noise rather than a genuinely negative latency.  Subtracting two
#: near-equal clock values can produce ``-1e-18``-scale artifacts; a
#: nanosecond is far below anything the simulation resolves.
NEGATIVE_EPSILON = 1e-9


class LatencyRecorder:
    """Collects latency samples, optionally tagged by request type.

    Samples are kept in full (simulations produce at most a few hundred
    thousand requests), so percentiles are exact rather than sketched.
    Storage is columnar: one float64 column of values plus one uint32
    column of interned tag codes, so a sample costs 12 bytes instead of
    a boxed float per list it appears in.  Derived per-tag arrays are
    cached and invalidated by recording, so repeated percentile queries
    against a quiescent recorder slice the columns only once.
    """

    def __init__(self):
        self._values = Column(np.float64)
        self._codes = Column(np.uint32)
        self._interner = StringInterner()
        #: Monotone edit counter; bumped by record()/reset() so cached
        #: derived arrays self-invalidate without a clear on the hot path.
        self._version = 0
        #: tag (or None for "all samples") → (version, array).
        self._array_cache: dict[str | None, tuple[int, np.ndarray]] = {}
        self._tags_cache: tuple[int, list[str]] | None = None
        self.enabled = True

    def record(self, latency: float, tag: str | None = None) -> None:
        """Add one sample (ignored while disabled, e.g. during warmup)."""
        if not self.enabled:
            return
        if latency < 0:
            if latency > -NEGATIVE_EPSILON:
                # Float subtraction of near-equal clocks; clamp to zero
                # instead of killing a multi-hour sweep at the last
                # reduction.
                latency = 0.0
            else:
                raise AnalysisError(f"negative latency sample: {latency}")
        self._values.append(latency)
        self._codes.append(StringInterner.NONE if tag is None
                           else self._interner.encode(tag))
        self._version += 1

    def reset(self) -> None:
        """Drop all samples (end of warmup)."""
        self._values.clear()
        self._codes.clear()
        self._version += 1

    def to_payload(self) -> dict:
        """JSON-native dump of every sample: values, codes, tag vocab.

        The samples cross process boundaries in sharded runs, so the
        dump must survive a canonical-JSON round trip exactly — values
        are plain floats and the tag dimension stays interned (codes +
        vocabulary) rather than exploding into one string per sample.
        """
        return {
            "values": self._values.as_array().tolist(),
            "codes": self._codes.as_array().tolist(),
            "tags": self._interner.names,
        }

    def extend_from_payload(self, payload: dict) -> None:
        """Append another recorder's :meth:`to_payload` samples.

        Tag codes are remapped through this recorder's interner, so
        recorders with different tag-arrival orders merge correctly.
        Appending shard payloads in shard order makes the merged sample
        sequence — and therefore every percentile — deterministic.
        """
        names = payload["tags"]
        remap = [StringInterner.NONE]
        remap.extend(self._interner.encode(name) for name in names[1:])
        self._values.extend(payload["values"])
        self._codes.extend([remap[code] for code in payload["codes"]])
        self._version += 1

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._values)

    @property
    def tags(self) -> list[str]:
        """Request types seen so far, sorted."""
        cached = self._tags_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        codes = np.unique(self._codes.as_array())
        tags = sorted(self._interner.decode(int(code)) for code in codes
                      if code != StringInterner.NONE)
        self._tags_cache = (self._version, tags)
        return tags

    def _array(self, tag: str | None) -> np.ndarray:
        cached = self._array_cache.get(tag)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        if tag is None:
            samples = self._values.as_array()
        else:
            code = self._interner.code_if_known(tag)
            if code is None:
                samples = np.empty(0)
            else:
                samples = self._values.as_array()[
                    self._codes.as_array() == code]
        if len(samples) == 0:
            raise AnalysisError(
                "no latency samples recorded"
                + (f" for tag {tag!r}" if tag else ""))
        self._array_cache[tag] = (self._version, samples)
        return samples

    def mean(self, tag: str | None = None) -> float:
        """Arithmetic mean latency."""
        return float(self._array(tag).mean())

    def percentile(self, p: float, tag: str | None = None) -> float:
        """The ``p``-th percentile (0–100)."""
        if not 0 <= p <= 100:
            raise AnalysisError(f"percentile must be in [0, 100]: {p}")
        return float(np.percentile(self._array(tag), p))

    def p50(self, tag: str | None = None) -> float:
        """Median latency."""
        return self.percentile(50, tag)

    def p95(self, tag: str | None = None) -> float:
        """95th-percentile latency."""
        return self.percentile(95, tag)

    def p99(self, tag: str | None = None) -> float:
        """99th-percentile latency."""
        return self.percentile(99, tag)

    def max(self, tag: str | None = None) -> float:
        """Worst observed latency."""
        return float(self._array(tag).max())

    def __repr__(self) -> str:
        return f"<LatencyRecorder {len(self._values)} samples>"
