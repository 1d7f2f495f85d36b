"""Content-addressed on-disk cache for sweep measurements.

Every sweep point's full input — machine recipe, kernel identity and
arguments, size, protocol, repetitions, core set, SIMD width — is
hashed together with a simulator *version salt* into a SHA-256 key.
The key addresses a small JSON file under the cache root (sharded by
the first two hex digits, ``ab/abcdef....json``), holding the
measurement payload plus a checksum over its canonical encoding.

Integrity rules:

* entries are written atomically (temp file + ``os.replace``) so a
  crashed run can leave at worst a stray temp file, never a torn entry;
* every read from disk re-verifies the checksum and the envelope; a
  truncated, corrupted, or stale entry is treated as a *miss* (and
  counted as ``corrupt``), so the point is transparently re-simulated —
  bad bytes are never silently returned;
* :data:`VERSION_SALT` participates in every key.  Bump it whenever a
  simulator change alters measured values; old entries then simply stop
  being addressed, no invalidation pass required.

Each :class:`SweepCache` object also remembers the payloads it has read
and verified, up to :data:`MEMORY_ENTRIES` of them, so a repeated lookup
of one key reads its file once.  Damaged entries are never remembered;
``store`` and ``gc`` forget the entries they replace or remove.  A file
damaged after its verified read goes unseen until a new cache object
reads it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Optional, Tuple

from ..errors import SweepError
from .serialize import PAYLOAD_SCHEMA

#: simulator version salt — part of every cache key.  Bump on any
#: change that can move a measured W/Q/T value (timing model, cache
#: simulation, codegen, measurement protocol).
VERSION_SALT = "roofline-sim-2"

#: default cache location, relative to the working directory unless
#: overridden by the REPRO_SWEEP_CACHE environment variable
DEFAULT_CACHE_DIR = os.path.join("artifacts", "sweepcache")

#: lookup outcomes
HIT, MISS, CORRUPT = "hit", "miss", "corrupt"

#: verified payloads one cache object keeps in memory, least recently
#: used evicted first (about 4 MB at the 3.6 KB of a typical payload)
MEMORY_ENTRIES = 1024


def canonical_json(doc: dict) -> str:
    """Deterministic encoding: sorted keys, no whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def point_key(point, salt: str = VERSION_SALT) -> str:
    """SHA-256 hex key for one sweep point under ``salt``."""
    doc = {"salt": salt, "schema": PAYLOAD_SCHEMA, "point": point.key_doc()}
    try:
        encoded = canonical_json(doc)
    except (TypeError, ValueError) as exc:
        raise SweepError(
            f"sweep point is not canonically hashable: {exc}"
        ) from exc
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _checksum(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def default_cache_dir() -> str:
    return os.environ.get("REPRO_SWEEP_CACHE", DEFAULT_CACHE_DIR)


class SweepCache:
    """Filesystem-backed, checksum-verified measurement store.

    Safe to share between threads: the in-memory table of verified
    payloads is guarded by a lock, and entry files are replaced
    atomically.  Callers must not mutate a returned payload, which may
    be the remembered one.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root or default_cache_dir()
        self._memory: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()

    def path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Tuple[Optional[dict], str]:
        """``(payload, status)``: payload is ``None`` unless status=hit.

        Any defect — unreadable file, bad or too deeply nested JSON,
        wrong envelope, key or checksum mismatch — downgrades to a miss
        so the caller re-simulates; a defective *existing* entry reports
        ``corrupt``.  Nothing an entry file holds makes this raise.
        A key verified once before answers from memory.
        """
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                self._memory.move_to_end(key)
                return payload, HIT
        path = self.path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            payload = entry.get("payload") if isinstance(entry, dict) \
                else None
            valid = (isinstance(payload, dict) and entry.get("key") == key
                     and entry.get("checksum") == _checksum(payload))
        except FileNotFoundError:
            return None, MISS
        except (OSError, ValueError, RecursionError):
            return None, CORRUPT
        if not valid:
            return None, CORRUPT
        with self._lock:
            self._memory[key] = payload
            if len(self._memory) > MEMORY_ENTRIES:
                self._memory.popitem(last=False)
        return payload, HIT

    def _forget(self, key: str) -> None:
        with self._lock:
            self._memory.pop(key, None)

    def store(self, key: str, payload: dict) -> str:
        """Atomically persist one payload; returns the entry path.

        The key's remembered payload, if any, is forgotten: the next
        lookup reads and verifies the new file.
        """
        self._forget(key)
        path = self.path(key)
        entry = {
            "key": key,
            "salt": VERSION_SALT,
            "checksum": _checksum(payload),
            "payload": payload,
        }
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def entries(self):
        """Yield ``(path, size_bytes, mtime)`` for every cache entry."""
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                path = os.path.join(shard_dir, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                yield path, st.st_size, st.st_mtime

    def gc(self, max_bytes: Optional[int] = None,
           max_age_seconds: Optional[float] = None,
           now: Optional[float] = None) -> dict:
        """Prune the cache: drop stale entries, then the oldest past a
        size budget.

        ``max_age_seconds`` removes every entry older than that (by
        mtime; ``store`` rewrites an entry, refreshing it).  After the
        age pass, ``max_bytes`` evicts oldest-first until the remaining
        entries (plus stray ``.tmp`` droppings, which are always
        removed) fit the budget.  Either bound may be ``None``.

        Returns a summary: ``scanned`` / ``removed`` entry counts,
        bytes ``reclaimed``, bytes ``kept``.  Concurrently-vanishing
        files are skipped, so gc is safe to run beside live sweeps.
        """
        import time as _time
        now = _time.time() if now is None else now
        scanned = removed = reclaimed = 0
        survivors = []  # (mtime, size, path), age-pruned
        for path, size, mtime in self.entries():
            if path.endswith(".tmp"):
                removed += self._unlink(path)
                reclaimed += size
                continue
            scanned += 1
            if (max_age_seconds is not None
                    and now - mtime > max_age_seconds):
                removed += self._unlink(path)
                reclaimed += size
                continue
            survivors.append((mtime, size, path))
        kept = sum(size for _, size, _ in survivors)
        if max_bytes is not None and kept > max_bytes:
            survivors.sort()  # oldest first
            while survivors and kept > max_bytes:
                _mtime, size, path = survivors.pop(0)
                removed += self._unlink(path)
                reclaimed += size
                kept -= size
        self._prune_empty_shards()
        return {"scanned": scanned, "removed": removed,
                "reclaimed_bytes": reclaimed, "kept_bytes": kept}

    def _unlink(self, path: str) -> int:
        key, _ext = os.path.splitext(os.path.basename(path))
        self._forget(key)
        try:
            os.unlink(path)
            return 1
        except OSError:
            return 0

    def _prune_empty_shards(self) -> None:
        if not os.path.isdir(self.root):
            return
        for shard in os.listdir(self.root):
            shard_dir = os.path.join(self.root, shard)
            if os.path.isdir(shard_dir) and not os.listdir(shard_dir):
                try:
                    os.rmdir(shard_dir)
                except OSError:
                    pass

    def __repr__(self) -> str:
        return f"SweepCache({self.root!r})"
