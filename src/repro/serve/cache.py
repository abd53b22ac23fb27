"""Two-tier content-addressed result cache.

Tier 1 is an in-process LRU of :class:`~repro.serve.snapshot.ResultSnapshot`
objects; tier 2 is an on-disk store of checksummed snapshot envelopes
laid out by key prefix, optionally split across ``shards`` directories::

    <cache_dir>/<key[:2]>/<key>.pkl                  (one shard)
    <cache_dir>/shard-NN/<key[:2]>/<key>.pkl         (N shards)

Keys are :func:`~repro.serve.identity.job_key` digests, so the store is
content-addressed and self-invalidating: anything that changes the
computation (program bits, config, inputs, fault, schema version)
changes the key, and stale entries simply stop being addressed.

Robustness rules:

* disk writes are atomic (temp file + ``os.replace``) so a killed worker
  can never publish a torn entry through the normal path;
* entries are checksummed envelopes (:func:`~repro.serve.snapshot.
  pack_snapshot`), so even a write torn *by the filesystem* — or a bit
  flipped at rest — is a deterministic corruption verdict on read, never
  a wrong answer;
* disk reads tolerate corruption — a damaged entry is counted, deleted
  best-effort, and reported as a miss, which makes the cache strictly an
  optimization: the caller recomputes and overwrites;
* each disk shard sits behind its own :class:`~repro.serve.resilience.
  CircuitBreaker`: an I/O-error/corruption storm trips that shard open
  and its keys degrade to memory-only (skipped operations are counted
  as ``disk_skips``), probing their way back closed once the storm
  passes, while the other shards keep their disk tier;
* all traffic is counted in one :class:`CacheStats` so batch reports can
  show exactly where results came from.

Keys are placed on shards by **rendezvous hashing**
(:func:`rendezvous_shard`): stable across restarts, and changing the
shard count moves only the ~``1/N`` of keys whose owner changed.

The default store location is ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``;
pass ``cache_dir=None`` for a memory-only cache (used by tests and the
``--no-cache`` CLI paths via ``ResultCache.disabled()``).  ``chaos``
accepts a :class:`~repro.serve.chaos.ChaosPlane` whose write hooks
inject torn writes and fsync failures; the hook sits behind an
``is not None`` check and costs nothing when absent.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.serve.chaos import ChaosKind
from repro.serve.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.serve.snapshot import (
    CorruptSnapshot,
    ResultSnapshot,
    pack_snapshot,
    unpack_snapshot,
)


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


def rendezvous_shard(key: str, shards: int) -> int:
    """Highest-random-weight owner of ``key`` among ``shards`` buckets."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if shards == 1:
        return 0
    best, best_weight = 0, b""
    for i in range(shards):
        weight = hashlib.sha256(f"{i}|{key}".encode()).digest()
        if weight > best_weight:
            best, best_weight = i, weight
    return best


# Breaker states in escalation order (the worst shard names the cache's).
_SEVERITY = (BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN)


@dataclass
class CacheStats:
    """Traffic counters for one :class:`ResultCache` instance.

    Plain per-instance ints (so tests and reports stay hermetic) that
    optionally mirror every increment into a shared
    :class:`~repro.obs.MetricsRegistry` counter via :meth:`bind` — the
    registry is the cross-component export path, this object the
    compatible accessor surface.
    """

    mem_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt_entries: int = 0
    disk_errors: int = 0
    disk_skips: int = 0
    _counter: object = field(default=None, repr=False, compare=False)

    def bind(self, registry) -> None:
        """Mirror future increments into ``cache_events_total{event}``."""
        self._counter = registry.counter(
            "cache_events_total",
            "result-cache traffic events by type", labels=("event",))

    def bump(self, name: str, amount: int = 1) -> None:
        """Count one event, mirroring into the bound registry (if any)."""
        setattr(self, name, getattr(self, name) + amount)
        if self._counter is not None:
            self._counter.inc(amount, event=name)

    @property
    def hits(self) -> int:
        return self.mem_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_json(self) -> dict:
        return {"mem_hits": self.mem_hits, "disk_hits": self.disk_hits,
                "misses": self.misses, "stores": self.stores,
                "evictions": self.evictions,
                "corrupt_entries": self.corrupt_entries,
                "disk_errors": self.disk_errors,
                "disk_skips": self.disk_skips,
                "hit_rate": round(self.hit_rate, 6)}


class ResultCache:
    """In-memory LRU over an optional on-disk content-addressed store.

    ``shards`` splits the disk tier into that many directories, each
    behind its own breaker (``cache_disk``, or ``cache_disk_s00`` ...).
    """

    def __init__(self, cache_dir: pathlib.Path | str | None = None,
                 mem_entries: int = 256, shards: int = 1, registry=None,
                 chaos=None) -> None:
        if mem_entries < 1:
            raise ValueError("mem_entries must be >= 1")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.cache_dir = (pathlib.Path(cache_dir)
                          if cache_dir is not None else None)
        self.mem_entries = mem_entries
        self.stats = CacheStats()
        self.breakers = [CircuitBreaker(name="cache_disk" if shards == 1
                                        else f"cache_disk_s{i:02d}")
                         for i in range(shards)]
        self.chaos = chaos
        if registry is not None:
            self.stats.bind(registry)
            for breaker in self.breakers:
                breaker.bind(registry)
        self._mem: OrderedDict[str, ResultSnapshot] = OrderedDict()

    @classmethod
    def disabled(cls) -> "ResultCache":
        """A minimal memory-only cache (no disk tier)."""
        return cls(cache_dir=None, mem_entries=1)

    @property
    def degraded(self) -> bool:
        """True while any disk shard is tripped out (memory-only mode)."""
        return (self.cache_dir is not None
                and any(b.state != BREAKER_CLOSED for b in self.breakers))

    def breaker_json(self) -> dict:
        """Worst shard state, total opens, and every shard's breaker."""
        return {"state": max((b.state for b in self.breakers),
                             key=_SEVERITY.index),
                "opens": sum(b.opens for b in self.breakers),
                "shards": [b.to_json() for b in self.breakers]}

    def health(self) -> dict:
        """Operational state for the service ``health`` surface."""
        return {"disk_tier": self.cache_dir is not None,
                "degraded": self.degraded,
                "breaker": self.breaker_json(),
                "stats": self.stats.to_json()}

    def _route(self, key: str) -> tuple[pathlib.Path, CircuitBreaker]:
        """The disk path and breaker of ``key``'s shard."""
        assert self.cache_dir is not None
        shard = rendezvous_shard(key, len(self.breakers))
        directory = (self.cache_dir if len(self.breakers) == 1
                     else self.cache_dir / f"shard-{shard:02d}")
        return directory / key[:2] / f"{key}.pkl", self.breakers[shard]

    # -- lookups -------------------------------------------------------------

    def get(self, key: str) -> ResultSnapshot | None:
        """Return the cached snapshot for ``key``, or None on a miss."""
        return self.lookup(key)[0]

    def lookup(self, key: str) -> tuple[ResultSnapshot | None, str]:
        """Like :meth:`get` but also names the serving tier.

        Returns ``(snapshot, tier)`` with tier one of ``"memory"``,
        ``"disk"``, ``"miss"``.
        """
        hit = self._mem.get(key)
        if hit is not None:
            self._mem.move_to_end(key)
            self.stats.bump("mem_hits")
            return hit, "memory"
        if self.cache_dir is not None:
            path, breaker = self._route(key)
            if breaker.allow():
                snap = self._read_disk(path, breaker)
                if snap is not None:
                    self.stats.bump("disk_hits")
                    self._remember(key, snap)
                    return snap, "disk"
            else:
                self.stats.bump("disk_skips")
        self.stats.bump("misses")
        return None, "miss"

    def _read_disk(self, path: pathlib.Path,
                   breaker: CircuitBreaker) -> ResultSnapshot | None:
        """One breaker-admitted disk read; reports its outcome."""
        try:
            if not path.exists():
                breaker.ok()
                return None
            snap = unpack_snapshot(path.read_bytes())
        except CorruptSnapshot:
            # Torn/garbage/foreign entry: drop it and recompute.
            self.stats.bump("corrupt_entries")
            breaker.fail()
            try:
                path.unlink()
            except OSError:
                pass
            return None
        except OSError:
            self.stats.bump("disk_errors")
            breaker.fail()
            return None
        breaker.ok()
        return snap

    # -- stores --------------------------------------------------------------

    def put(self, key: str, snap: ResultSnapshot) -> None:
        """Store a snapshot under ``key`` in both tiers."""
        self._remember(key, snap)
        if self.cache_dir is not None:
            path, breaker = self._route(key)
            if breaker.allow():
                self._write_disk(path, breaker, snap)
            else:
                self.stats.bump("disk_skips")
        self.stats.bump("stores")

    def _remember(self, key: str, snap: ResultSnapshot) -> None:
        self._mem[key] = snap
        self._mem.move_to_end(key)
        while len(self._mem) > self.mem_entries:
            self._mem.popitem(last=False)
            self.stats.bump("evictions")

    def _write_disk(self, path: pathlib.Path, breaker: CircuitBreaker,
                    snap: ResultSnapshot) -> None:
        """One breaker-admitted disk write; reports its outcome."""
        blob = pack_snapshot(snap)
        action = (self.chaos.next_write_action()
                  if self.chaos is not None else None)
        if action is not None and action.kind is ChaosKind.WRITE_TRUNCATE:
            # A filesystem-level torn write: only a prefix lands.  The
            # envelope checksum turns this into a deterministic
            # corruption verdict on the next read.
            blob = blob[:max(1, len(blob) // 2)]
        try:
            if action is not None and action.kind is ChaosKind.FSYNC_FAIL:
                raise OSError("chaos: injected fsync failure")
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # Disk tier is best-effort: a failed publish must not fail
            # the batch, the result is still returned from memory.
            self.stats.bump("disk_errors")
            breaker.fail()
            return
        breaker.ok()

    # -- maintenance ---------------------------------------------------------

    def clear_memory(self) -> None:
        """Drop the in-memory tier (disk entries survive)."""
        self._mem.clear()

    def __len__(self) -> int:
        return len(self._mem)
