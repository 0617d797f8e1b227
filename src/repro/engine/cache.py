"""EvalCache: the engine's content-addressed result store.

Two tiers:

* an **in-process** dict (always on unless disabled) shared by every
  :class:`~repro.core.design_point.DesignPoint` in the process, so two
  sweeps over overlapping grids — or a fleet plan after a DSE run —
  never recompute a (chip, compiler, workload, batch, budget) tuple;
* an optional **on-disk** tier under a cache directory (default
  ``.repro_cache/``): one pickle per entry named by its key, plus a JSON
  sidecar describing what the entry is. Disk entries survive process
  restarts, so benchmark suites warm across invocations.

Values are opaque to the cache (SimResult, Evaluation, ...); keys come
from :mod:`repro.engine.keys`, which folds in every chip/compiler field —
invalidation is by construction, never by mtime.

The disk tier is crash-safe end to end. Every write goes to a temp file
first and lands via atomic ``os.replace``, so a killed process can never
leave a truncated entry under a live name. Every entry carries a
leading SHA-256 checksum over its payload, verified on read; an entry
that fails the checksum — or fails to unpickle (including legacy
pre-checksum entries) — is *quarantined*: moved to a ``quarantine/``
subdirectory, logged, counted in :attr:`CacheStats.corrupt`, and
treated as a miss so the value is recomputed. Corruption is therefore
never fatal and never silently served.
"""

from __future__ import annotations

import hashlib
import logging
import os
import json
import pickle
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.obs.metrics import metrics

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Environment switches: ``REPRO_CACHE=0`` disables caching entirely,
#: ``REPRO_CACHE_DIR=<path>`` enables the disk tier at <path>.
ENV_DISABLE = "REPRO_CACHE"
ENV_DIR = "REPRO_CACHE_DIR"

#: On-disk entry format: magic + 32-byte SHA-256 of the payload + payload.
#: Files without the magic are legacy plain pickles (still readable).
_MAGIC = b"RPC1"
_DIGEST_BYTES = 32

#: Corrupt entries are moved here (relative to the cache dir), not deleted,
#: so a surprising corruption can still be inspected post-mortem.
QUARANTINE_DIR = "quarantine"

_LOG = logging.getLogger(__name__)


@dataclass
class CacheStats:
    """Lookup counters for one :class:`EvalCache` instance."""

    hits: int = 0          # served from the in-process dict
    disk_hits: int = 0     # served from the disk tier (then promoted)
    misses: int = 0
    puts: int = 0
    corrupt: int = 0       # disk entries quarantined (checksum/unpickle)

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return (self.hits + self.disk_hits) / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt": self.corrupt,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _Entry:
    value: Any
    size_bytes: int
    meta: Optional[dict] = field(default=None)


class EvalCache:
    """Content-addressed store for evaluation records."""

    def __init__(self, disk_dir: Optional[os.PathLike] = None,
                 enabled: bool = True) -> None:
        self._mem: dict[str, _Entry] = {}
        self._lock = threading.Lock()
        self._enabled = enabled
        self._disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.stats = CacheStats()

    # --------------------------------------------------------------- config

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    @property
    def disk_dir(self) -> Optional[Path]:
        return self._disk_dir

    # --------------------------------------------------------------- lookup

    def get(self, key: str) -> Optional[Any]:
        """The cached value, or None. Disk hits are promoted to memory."""
        if not self._enabled:
            return None
        with self._lock:
            entry = self._mem.get(key)
            if entry is not None:
                self.stats.hits += 1
                metrics().count("engine.cache.hits")
                return entry.value
        value = self._disk_read(key)
        if value is not None:
            size = len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
            with self._lock:
                self.stats.disk_hits += 1
                self._mem[key] = _Entry(value, size)
            metrics().count("engine.cache.disk_hits")
            return value
        self.stats.misses += 1
        metrics().count("engine.cache.misses")
        return None

    def put(self, key: str, value: Any,
            meta: Optional[dict] = None) -> None:
        """Store a value in memory and (if configured) on disk."""
        if not self._enabled:
            return
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._mem[key] = _Entry(value, len(blob), meta)
            self.stats.puts += 1
        metrics().count("engine.cache.puts")
        if self._disk_dir is not None:
            self._disk_write(key, blob, meta)

    # ------------------------------------------------------------ accounting

    def entry_count(self) -> int:
        with self._lock:
            return len(self._mem)

    def size_bytes(self) -> int:
        """Approximate in-memory footprint (pickled sizes)."""
        with self._lock:
            return sum(e.size_bytes for e in self._mem.values())

    def disk_entry_count(self) -> int:
        if self._disk_dir is None or not self._disk_dir.is_dir():
            return 0
        return sum(1 for _ in self._disk_dir.glob("*.pkl"))

    def disk_size_bytes(self) -> int:
        if self._disk_dir is None or not self._disk_dir.is_dir():
            return 0
        return sum(p.stat().st_size for p in self._disk_dir.glob("*.pkl"))

    def clear(self, disk: bool = False) -> None:
        """Drop in-memory entries (and the disk tier when ``disk=True``)."""
        with self._lock:
            self._mem.clear()
        if disk and self._disk_dir is not None and self._disk_dir.is_dir():
            for path in list(self._disk_dir.glob("*.pkl")):
                path.unlink(missing_ok=True)
            for path in list(self._disk_dir.glob("*.json")):
                path.unlink(missing_ok=True)
            quarantine = self._disk_dir / QUARANTINE_DIR
            if quarantine.is_dir():
                for path in list(quarantine.iterdir()):
                    path.unlink(missing_ok=True)

    def describe(self) -> str:
        disk = (f", disk {self.disk_entry_count()} entries / "
                f"{self.disk_size_bytes():,} B at {self._disk_dir}"
                if self._disk_dir is not None else ", disk tier off")
        state = "enabled" if self._enabled else "DISABLED"
        s = self.stats
        corrupt = f", {s.corrupt} quarantined" if s.corrupt else ""
        return (f"EvalCache ({state}): {self.entry_count()} entries / "
                f"{self.size_bytes():,} B in memory{disk}; "
                f"{s.hits} hits, {s.disk_hits} disk hits, {s.misses} misses "
                f"({s.hit_rate:.0%} hit rate){corrupt}")

    # ------------------------------------------------------------- disk tier

    def _path(self, key: str) -> Path:
        return self._disk_dir / f"{key}.pkl"

    def _quarantine(self, key: str, path: Path, reason: str) -> None:
        """Move a corrupt entry aside (never served, never fatal)."""
        with self._lock:
            self.stats.corrupt += 1
        metrics().count("engine.cache.corrupt")
        target_dir = self._disk_dir / QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError:
            path.unlink(missing_ok=True)
        sidecar = path.with_suffix(".json")
        if sidecar.exists():
            try:
                os.replace(sidecar, target_dir / sidecar.name)
            except OSError:
                sidecar.unlink(missing_ok=True)
        _LOG.warning("quarantined corrupt cache entry %s (%s); "
                     "the value will be recomputed", key, reason)

    def _disk_read(self, key: str) -> Optional[Any]:
        if self._disk_dir is None:
            return None
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            return None
        if raw.startswith(_MAGIC):
            header = len(_MAGIC) + _DIGEST_BYTES
            digest, payload = raw[len(_MAGIC):header], raw[header:]
            if hashlib.sha256(payload).digest() != digest:
                self._quarantine(key, path, "checksum mismatch")
                return None
        else:
            payload = raw  # legacy pre-checksum entry: plain pickle
        try:
            return pickle.loads(payload)
        except Exception:
            self._quarantine(key, path, "unreadable pickle")
            return None

    def _disk_write(self, key: str, blob: bytes,
                    meta: Optional[dict]) -> None:
        self._disk_dir.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self._disk_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_MAGIC)
                fh.write(hashlib.sha256(blob).digest())
                fh.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        if meta is not None:
            try:
                path.with_suffix(".json").write_text(
                    json.dumps(meta, sort_keys=True, indent=1))
            except OSError:
                pass


# ------------------------------------------------------------- global cache

_GLOBAL: Optional[EvalCache] = None
_GLOBAL_LOCK = threading.Lock()


def get_cache() -> EvalCache:
    """The process-wide cache, created on first use from the environment."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            disabled = os.environ.get(ENV_DISABLE, "").lower() in ("0", "off")
            disk = os.environ.get(ENV_DIR)
            _GLOBAL = EvalCache(disk_dir=Path(disk) if disk else None,
                                enabled=not disabled)
        return _GLOBAL


def configure_cache(disk_dir: Optional[os.PathLike] = None,
                    enabled: bool = True) -> EvalCache:
    """Replace the global cache (e.g. to turn the disk tier on)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        _GLOBAL = EvalCache(disk_dir=disk_dir, enabled=enabled)
        return _GLOBAL


def set_cache(cache: Optional[EvalCache]) -> Optional[EvalCache]:
    """Swap the global cache instance in; returns the previous one."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        previous, _GLOBAL = _GLOBAL, cache
        return previous


@contextmanager
def cache_disabled() -> Iterator[None]:
    """Temporarily disable the global result cache (cold-path timing)."""
    cache = get_cache()
    was_enabled = cache.enabled
    cache.disable()
    try:
        yield
    finally:
        if was_enabled:
            cache.enable()
