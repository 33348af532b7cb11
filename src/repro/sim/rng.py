"""Named, reproducible random-number streams.

Every stochastic component in the library draws from its own
:class:`numpy.random.Generator`, derived deterministically from a root
seed and the component's *stream name*.  This gives two properties the
experiment harness relies on:

* **Reproducibility** — a scenario is a pure function of
  ``(seed, config)``; re-running yields bit-identical metrics.
* **Variance isolation** — changing how one component consumes
  randomness (e.g. swapping the load balancer) does not perturb the
  arrival process, because streams never share state.  This is the
  standard common-random-numbers discipline for simulation comparisons.

Streams are spawned with :class:`numpy.random.SeedSequence` using the
stable 64-bit FNV-1a hash of the stream name as the spawn key, so stream
identity does not depend on creation order.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

__all__ = [
    "RandomStreams",
    "STREAM_REGISTRY",
    "fnv1a64",
    "stream_registered",
]

#: The library's stream-name census: every named stream a ``repro.*``
#: module draws, with its purpose.  The census test
#: ``tests/test_census.py`` runs the library and checks this table in
#: both directions: every name a run draws must be registered, and
#: every entry must be drawn, so the table is always the complete,
#: current answer to "where does randomness enter a replication?".
#: Runtime stays permissive (ad-hoc names in tests and notebooks are
#: fine) — the registry is a tested provenance contract for library
#: code, not a runtime gate.
STREAM_REGISTRY: Dict[str, str] = {
    "arrivals": "workload arrival process (both DES backends)",
    "service": "service-time draws (both DES backends)",
    "workload.mmpp.phase": "MMPP phase trajectory of synthetic workloads",
    "economy.revocation": "spot-capacity revocation schedule",
    "analysis.web": "workload characterization of the web trace",
    "analysis.sci": "workload characterization of the scientific trace",
    "fig3.arrivals": "figure-3 arrival realizations",
    "fig4.arrivals": "figure-4 arrival realizations",
}


def stream_registered(name: str) -> bool:
    """True when ``name`` is a registered stream name."""
    return name in STREAM_REGISTRY

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(text: str) -> int:
    """Stable 64-bit FNV-1a hash of ``text``.

    Python's built-in ``hash`` is salted per process, so it cannot key
    reproducible streams; FNV-1a is tiny, fast, and stable across runs
    and platforms.
    """
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


class RandomStreams:
    """Factory for named :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root seed of the experiment replication.

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> arrivals = streams.get("arrivals")
    >>> service = streams.get("service")
    >>> float(arrivals.random()) != float(service.random())
    True
    >>> streams.get("arrivals") is arrivals   # cached
    True
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._cache: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """Root seed this factory was built from."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for stream ``name`` (cached).

        The same ``(seed, name)`` pair always yields a generator that
        produces the same sequence, regardless of which other streams
        were requested before it.
        """
        gen = self._cache.get(name)
        if gen is None:
            ss = np.random.SeedSequence(entropy=self._seed, spawn_key=(fnv1a64(name),))
            gen = np.random.Generator(np.random.PCG64(ss))
            self._cache[name] = gen
        return gen

    def spawn(self, replication: int) -> "RandomStreams":
        """Derive an independent stream factory for a replication index.

        Used by the experiment runner: replication ``i`` of a scenario
        uses ``streams.spawn(i)`` so replications are independent but
        individually reproducible.
        """
        # Mix the replication index into the root seed through SeedSequence
        # to avoid accidental stream collisions between replications.
        mixed = np.random.SeedSequence(entropy=self._seed, spawn_key=(int(replication),))
        return RandomStreams(int(mixed.generate_state(1, dtype=np.uint64)[0]))

    def names(self) -> Iterable[str]:
        """Names of streams created so far (for diagnostics)."""
        return tuple(self._cache)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RandomStreams seed={self._seed} active={len(self._cache)}>"
