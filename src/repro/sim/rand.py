"""Named, reproducible random-number streams.

Every stochastic component of the simulation (each user, each service's
demand sampler, the load balancer, ...) draws from its own named stream, so
that changing one component's consumption of randomness does not perturb any
other component.  Streams are derived from a root seed with
``numpy.random.SeedSequence.spawn``-style child seeding keyed by name, which
makes an experiment fully reproducible from ``(config, seed)``.
"""

from __future__ import annotations

import math
import typing as t
import zlib

import numpy as np
# numpy loads numpy.random on first attribute access; import it here so
# the first simulation does not pay the import inside a run.
import numpy.random  # noqa: F401

from repro._errors import ConfigurationError

#: Maximum standard draws prefetched per Generator call on batched
#: streams.  One vectorized numpy call amortizes the per-call dispatch
#: overhead over ~1k scalar draws; the transforms applied per element are
#: bit-identical to the scalar Generator methods, so batching never
#: changes a result.
_BATCH = 1024

#: First-refill batch size.  Batches double per refill up to ``_BATCH``,
#: so a stream that draws once (e.g. a user's start-jitter stream) holds
#: an 8-double buffer instead of 8 KiB — at 10k simulated users the
#: difference is >150 MB of resident prefetch buffers.  Generator draws
#: consume the bit stream sequentially, so chunked refills produce
#: exactly the values one monolithic batch would.
_BATCH_MIN = 8


class _StreamState:
    """One named stream's generator plus its prefetch buffer.

    ``kind`` is fixed at the first draw: batched streams prefetch ahead
    of consumption, so a second distribution on the same stream would
    see generator state the unbatched code never produced.  Mixing kinds
    on one stream is therefore a configuration error, not a silent
    reordering.
    """

    __slots__ = ("generator", "kind", "buffer", "cursor", "batch")

    def __init__(self, generator: np.random.Generator, kind: str):
        self.generator = generator
        self.kind = kind
        self.buffer: np.ndarray | None = None
        self.cursor = 0
        self.batch = _BATCH_MIN

    def next_standard(self, draw_batch) -> float:
        """The next prefetched standard draw, refilling via ``draw_batch``."""
        buffer = self.buffer
        if buffer is None or self.cursor >= len(buffer):
            size = self.batch
            self.batch = min(size * 2, _BATCH)
            buffer = self.buffer = draw_batch(self.generator, size)
            self.cursor = 0
        value = buffer[self.cursor]
        self.cursor += 1
        return value


def _standard_exponential(generator: np.random.Generator,
                          size: int) -> np.ndarray:
    return generator.standard_exponential(size)


def _standard_uniform(generator: np.random.Generator,
                      size: int) -> np.ndarray:
    return generator.random(size)


def _standard_normal(generator: np.random.Generator,
                     size: int) -> np.ndarray:
    return generator.standard_normal(size)


class RandomStreams:
    """A factory of independent, named :class:`numpy.random.Generator`\\ s."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        #: crc32 key → stream name.  Child seeds are keyed by
        #: ``crc32(name)``; two distinct names with colliding CRCs would
        #: silently share a generator and cross-contaminate their
        #: components, so collisions are a configuration error.
        self._crc_registry: dict[int, str] = {}
        #: fork()-derived seed → fork name, same rationale.
        self._fork_registry: dict[int, str] = {}
        #: name → per-stream draw state (buffer, cursor, kind).
        self._states: dict[str, _StreamState] = {}
        #: (mean, cv) → (mu, sigma) for lognormal_mean_cv; demand
        #: samplers call with a handful of fixed parameterizations, so
        #: the log/sqrt work is paid once per distinct pair.
        self._lognormal_params: dict[tuple[float, float],
                                     tuple[float, float]] = {}
        #: weights tuple → normalized CDF for choice_index.
        self._choice_cdfs: dict[tuple[float, ...], np.ndarray] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same ``(seed, name)`` pair always yields the same sequence.
        """
        generator = self._streams.get(name)
        if generator is None:
            key = zlib.crc32(name.encode())
            owner = self._crc_registry.setdefault(key, name)
            if owner != name:
                raise ConfigurationError(
                    f"random-stream key collision: {name!r} and {owner!r} "
                    f"both hash to crc32={key}; rename one stream or the "
                    f"two components will share a generator")
            child = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(key,))
            generator = np.random.default_rng(child)
            self._streams[name] = generator
        return generator

    def _state(self, name: str, kind: str) -> _StreamState:
        """The stream's draw state, pinned to its first-used ``kind``."""
        state = self._states.get(name)
        if state is None:
            state = _StreamState(self.stream(name), kind)
            self._states[name] = state
        elif state.kind != kind:
            raise ConfigurationError(
                f"stream {name!r} already draws {state.kind}; drawing "
                f"{kind} from the same stream would desynchronize its "
                f"prefetched batch — use a separate stream name")
        return state

    def exponential(self, name: str, mean: float) -> float:
        """One draw from Exp(mean) on stream ``name``."""
        state = self._state(name, "exponential")
        return float(mean * state.next_standard(_standard_exponential))

    def exponential_sampler(self, name: str,
                            mean: float) -> t.Callable[[], float]:
        """A zero-argument sampler equivalent to repeated
        :meth:`exponential` calls with this mean.

        Stream-state resolution happens once at creation; the sampler
        draws from exactly the same stream state, so mixing it with
        direct calls preserves the draw sequence.  Closed-loop users
        use this for their think-time stream, trading the per-draw
        dict lookup and kind check for one bound call.
        """
        draw = self._state(name, "exponential").next_standard
        return lambda: float(mean * draw(_standard_exponential))

    def lognormal_mean_cv(self, name: str, mean: float, cv: float) -> float:
        """One lognormal draw parameterized by mean and coefficient of variation.

        Service-time distributions in server workloads are right-skewed; a
        lognormal with a given mean and CV is the conventional stand-in.
        ``cv == 0`` degenerates to the deterministic mean.
        """
        state, mu, sigma = self._lognormal_source(name, mean, cv)
        if state is None:
            return mean
        return math.exp(mu + sigma * state.next_standard(_standard_normal))

    def lognormal_sampler(self, name: str, mean: float,
                          cv: float) -> t.Callable[[], float]:
        """A zero-argument sampler equivalent to repeated
        :meth:`lognormal_mean_cv` calls with these parameters.

        Parameter derivation and stream-state resolution happen once at
        creation; the sampler draws from exactly the same stream state,
        so mixing it with direct calls preserves the draw sequence.
        Service handlers with fixed per-endpoint demand distributions
        use this to keep per-request lookups off the hot path.
        """
        state, mu, sigma = self._lognormal_source(name, mean, cv)
        if state is None:
            return lambda: mean
        draw = state.next_standard
        exp = math.exp
        return lambda: exp(mu + sigma * draw(_standard_normal))

    def _lognormal_source(self, name: str, mean: float, cv: float
                          ) -> tuple[_StreamState | None, float, float]:
        """Validated ``(state, mu, sigma)`` behind lognormal draws on
        ``name``: each draw is ``exp(mu + sigma * z)`` with ``z`` the
        state's next standard normal.  ``state`` is ``None`` when
        ``cv == 0`` (every draw is ``mean``; the stream is untouched).

        The compiled worker draws from the returned state itself, so
        this is the one place the parameters are derived.
        """
        if mean <= 0:
            raise ValueError(f"mean must be positive: {mean}")
        if cv < 0:
            raise ValueError(f"cv must be non-negative: {cv}")
        if cv == 0:
            return None, mean, 0.0
        mu, sigma = self._lognormal_params_for(mean, cv)
        return self._state(name, "lognormal"), mu, sigma

    def _lognormal_params_for(self, mean: float,
                              cv: float) -> tuple[float, float]:
        """``(mu, sigma)`` for a positive ``mean`` and ``cv``, cached."""
        params = self._lognormal_params.get((mean, cv))
        if params is None:
            sigma2 = np.log1p(cv * cv)
            mu = np.log(mean) - sigma2 / 2.0
            params = (float(mu), float(np.sqrt(sigma2)))
            self._lognormal_params[(mean, cv)] = params
        return params

    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        """One uniform draw on stream ``name``."""
        state = self._state(name, "uniform")
        return float(low
                     + (high - low) * state.next_standard(_standard_uniform))

    def choice_index(self, name: str, weights: "np.ndarray | list[float]") -> int:
        """Sample an index proportionally to ``weights`` on stream ``name``.

        Inverse-CDF sampling on one uniform draw — the same algorithm
        (and generator-state consumption) as ``Generator.choice(n, p)``,
        with the CDF cached per distinct weights vector instead of
        revalidated and re-accumulated on every call.
        """
        key = tuple(float(w) for w in weights)
        cdf = self._choice_cdfs.get(key)
        if cdf is None:
            p = np.asarray(key, dtype=float)
            total = p.sum()
            if total <= 0:
                raise ValueError("weights must sum to a positive value")
            cdf = (p / total).cumsum()
            cdf /= cdf[-1]
            self._choice_cdfs[key] = cdf
        state = self._state(name, "choice")
        draw = state.next_standard(_standard_uniform)
        return int(cdf.searchsorted(draw, side="right"))

    def binomial(self, name: str, n: int, p: float) -> int:
        """One binomial draw (e.g. cache misses among ``n`` lookups)."""
        if n < 0:
            raise ValueError(f"n must be non-negative: {n}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1]: {p}")
        state = self._state(name, "binomial")
        return int(state.generator.binomial(n, p))

    def integers(self, name: str, low: int, high: int) -> int:
        """One integer draw in ``[low, high)`` on stream ``name``."""
        state = self._state(name, "integers")
        return int(state.generator.integers(low, high))

    def fork(self, name: str) -> "RandomStreams":
        """A child factory whose streams are independent of this one's.

        The child seed is ``seed ^ crc32(name)``; a derived seed equal to
        the parent's (``crc32(name) == 0``) or to another fork's would
        alias two supposedly independent factories, so both cases raise.
        """
        derived = self.seed ^ zlib.crc32(name.encode())
        if derived == self.seed:
            raise ConfigurationError(
                f"fork {name!r} derives the parent's own seed "
                f"({self.seed}); rename the fork")
        owner = self._fork_registry.setdefault(derived, name)
        if owner != name:
            raise ConfigurationError(
                f"fork seed collision: {name!r} and {owner!r} both derive "
                f"seed {derived}; rename one fork")
        return RandomStreams(seed=derived)
