"""Packed SQLite result store for the sweep engine (replaces JSON-per-cell).

The original cache (PR 2) wrote one ``<sha256>.json`` file per finished
cell.  At 173 cells that is fine; at the 10,000-cell design-space sweeps
of :mod:`repro.bench.dse` it means 10,000 ``open``/``rename`` pairs per
run and a directory the filesystem hates.  This module packs the same
content-addressed entries into one SQLite file:

- **keys are unchanged** — the ``sha256(cell config + code version)``
  string of :func:`repro.bench.sweep.cache_key` is the primary key, so
  the cache-invalidation story (any source edit under ``src/repro``
  changes every key) carries over verbatim;
- **atomic** — each ``put`` is one SQLite transaction; a killed sweep
  never leaves a torn entry, and concurrent sweeps sharing the store
  serialize on SQLite's own locking (``busy_timeout``);
- **concurrent** — the store runs in WAL journal mode (when the
  filesystem supports it), so readers never block the writer and
  multiple *processes* — a long-running advisor server plus batch
  sweeps, say — can share one store file: writers queue on the WAL
  write lock (30 s ``busy_timeout``), readers see consistent
  snapshots, and ``INSERT OR REPLACE`` makes racing same-key puts
  idempotent.  Within one process the connection is shared across
  threads behind an internal lock (``check_same_thread=False``), so
  async servers may probe it from worker threads.
  ``tests/test_store.py`` proves no lost puts or torn reads under
  multi-process contention;
- **LRU-bounded** — every entry tracks ``last_used``; when the store
  exceeds ``max_bytes`` (``REPRO_STORE_MAX_MB``, default 1024) the
  least-recently-used entries are evicted, so the store is safe to leave
  growing across runs;
- **cross-run** — entries record wall-clock (``wall_s``) and a work-size
  hint per cell, which is the calibration set of the sweep scheduler's
  cost model (:mod:`repro.bench.cost`); calibration deliberately spans
  code versions, since a code edit invalidates *results* but not the
  relative cost of re-running them.

Within one sweep the store is only ever written by the *parent* process
(workers return results over the pool); across runs, any number of
sweeps and advisor servers may read and write it concurrently.
"""

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["ResultStore", "STORE_FILENAME", "DEFAULT_MAX_MB"]

#: store file name inside the cache directory (``cache_dir()/store.sqlite``)
STORE_FILENAME = "store.sqlite"

#: default LRU bound, in MiB (override with ``REPRO_STORE_MAX_MB``)
DEFAULT_MAX_MB = 1024

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key          TEXT PRIMARY KEY,
    cell_id      TEXT NOT NULL,
    experiment   TEXT NOT NULL,
    code_version TEXT NOT NULL,
    telemetry    INTEGER NOT NULL DEFAULT 0,
    result       TEXT NOT NULL,
    wall_s       REAL,
    work_units   REAL,
    nbytes       INTEGER NOT NULL,
    created_at   REAL NOT NULL,
    last_used    REAL NOT NULL,
    hits         INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_results_last_used ON results(last_used);
CREATE INDEX IF NOT EXISTS idx_results_version ON results(code_version);
"""

#: evictions are checked every this many puts (a SUM over the nbytes
#: column is cheap, but not per-put cheap at 10k cells)
_EVICT_CHECK_EVERY = 256


class ResultStore:
    """One content-addressed result store backed by a SQLite file.

    Open with :meth:`open`; ``get``/``put`` are the hot path, everything
    else is maintenance.
    """

    def __init__(self, path: Path, max_bytes: Optional[int] = None):
        self.path = Path(path)
        if max_bytes is None:
            max_bytes = int(float(os.environ.get(
                "REPRO_STORE_MAX_MB", DEFAULT_MAX_MB)) * (1 << 20))
        self.max_bytes = max_bytes
        self._pid = os.getpid()
        self._puts_since_check = 0
        # one connection shared across this process's threads; every
        # transaction holds this lock (SQLite connections serialize
        # internally, but our read-modify-write sequences must not
        # interleave between threads)
        self._lock = threading.RLock()
        self.journal_mode = "?"
        self._conn = self._connect()

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def open(cls, directory: Path, max_bytes: Optional[int] = None) -> "ResultStore":
        """Open (creating if needed) the store under ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        return cls(directory / STORE_FILENAME, max_bytes=max_bytes)

    def _connect(self) -> sqlite3.Connection:
        try:
            return self._connect_once()
        except sqlite3.DatabaseError:
            # A corrupt/garbage store file is a cache, not data: recreate
            # it empty rather than failing the sweep.
            try:
                self.path.unlink()
            except OSError:
                pass
            return self._connect_once()

    def _connect_once(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=30.0,
                               check_same_thread=False)
        conn.execute("PRAGMA busy_timeout=30000")
        # WAL lets concurrent readers (other sweeps, a running advisor
        # server) proceed while a writer commits; some filesystems
        # (network mounts) refuse it, in which case SQLite stays on the
        # rollback journal and concurrency degrades to coarse locking
        # rather than failing.
        try:
            mode = conn.execute("PRAGMA journal_mode=WAL").fetchone()[0]
        except sqlite3.DatabaseError:  # pragma: no cover - exotic fs
            mode = "delete"
        self.journal_mode = str(mode).lower()
        if self.journal_mode == "wal":
            # fsync on WAL checkpoints only: a power-cut may lose the
            # last results (they re-simulate) but never corrupts
            conn.execute("PRAGMA synchronous=NORMAL")
        conn.executescript(_SCHEMA)
        conn.commit()
        return conn

    @property
    def conn(self) -> sqlite3.Connection:
        # A forked worker inheriting this object must not reuse the
        # parent's connection (SQLite connections are not fork-safe).
        if os.getpid() != self._pid:
            with self._lock:
                if os.getpid() != self._pid:
                    self._pid = os.getpid()
                    self._conn = self._connect()
        return self._conn

    def close(self) -> None:
        try:
            self._conn.close()
        except sqlite3.Error:  # pragma: no cover - defensive
            pass

    # -- hot path --------------------------------------------------------------

    def get(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, result)``; a hit bumps the LRU clock and the
        entry's hit counter.  Corrupt rows count as misses."""
        with self._lock:
            try:
                row = self.conn.execute(
                    "SELECT result FROM results WHERE key = ?", (key,)).fetchone()
            except sqlite3.DatabaseError:
                return False, None
            if row is None:
                return False, None
            try:
                result = json.loads(row[0])
            except json.JSONDecodeError:
                with self.conn:
                    self.conn.execute("DELETE FROM results WHERE key = ?", (key,))
                return False, None
            try:
                with self.conn:
                    self.conn.execute(
                        "UPDATE results SET last_used = ?, hits = hits + 1 "
                        "WHERE key = ?", (time.time(), key))
            except sqlite3.OperationalError:
                # a concurrent writer held the lock past the busy
                # timeout; the LRU bump is advisory, the hit is real
                pass
        return True, result

    def wall_of(self, key: str) -> Optional[float]:
        """Recorded execution wall-clock of one entry (or None)."""
        with self._lock:
            row = self.conn.execute(
                "SELECT wall_s FROM results WHERE key = ?", (key,)).fetchone()
        return None if row is None else row[0]

    def put(self, key: str, *, cell_id: str, experiment: str,
            code_version: str, result: Any, telemetry: bool = False,
            wall_s: Optional[float] = None,
            work_units: Optional[float] = None) -> None:
        """Insert or replace one entry (one transaction: atomic)."""
        payload = json.dumps(result, sort_keys=True, separators=(",", ":"))
        now = time.time()
        with self._lock:
            with self.conn:
                self.conn.execute(
                    "INSERT OR REPLACE INTO results "
                    "(key, cell_id, experiment, code_version, telemetry, result, "
                    " wall_s, work_units, nbytes, created_at, last_used, hits) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0)",
                    (key, cell_id, experiment, code_version, int(telemetry),
                     payload, wall_s, work_units, len(payload), now, now))
            self._puts_since_check += 1
            if self._puts_since_check >= _EVICT_CHECK_EVERY:
                self._puts_since_check = 0
                self.evict_lru()

    # -- maintenance -----------------------------------------------------------

    def evict_lru(self) -> int:
        """Drop least-recently-used entries until under ``max_bytes``."""
        with self._lock:
            total = self.conn.execute(
                "SELECT COALESCE(SUM(nbytes), 0) FROM results").fetchone()[0]
            if total <= self.max_bytes:
                return 0
            evicted = 0
            with self.conn:
                for key, nbytes in self.conn.execute(
                        "SELECT key, nbytes FROM results ORDER BY last_used ASC"
                ).fetchall():
                    if total <= self.max_bytes:
                        break
                    self.conn.execute("DELETE FROM results WHERE key = ?", (key,))
                    total -= nbytes
                    evicted += 1
        return evicted

    def gc(self, current_version: str,
           older_than_s: Optional[float] = None) -> Dict[str, int]:
        """Garbage-collect entries.

        Always removes entries whose ``code_version`` no longer matches
        ``current_version`` (they can never be read again — any source
        edit changes every cache key).  With ``older_than_s``, only stale
        entries last used more than that many seconds ago are collected,
        *and* current-version entries older than the cutoff are collected
        too (an age-based trim of live entries).
        """
        cutoff = None if older_than_s is None else time.time() - older_than_s
        with self._lock, self.conn:
            if cutoff is None:
                cur = self.conn.execute(
                    "DELETE FROM results WHERE code_version != ?",
                    (current_version,))
                stale_removed, aged_removed = cur.rowcount, 0
            else:
                cur = self.conn.execute(
                    "DELETE FROM results WHERE code_version != ? AND last_used < ?",
                    (current_version, cutoff))
                stale_removed = cur.rowcount
                cur = self.conn.execute(
                    "DELETE FROM results WHERE code_version = ? AND last_used < ?",
                    (current_version, cutoff))
                aged_removed = cur.rowcount
        with self._lock:
            self.conn.execute("VACUUM")
        return {"stale_removed": stale_removed, "aged_removed": aged_removed,
                "remaining": self.count()}

    def count(self) -> int:
        with self._lock:
            return self.conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()[0]

    def stats(self, current_version: Optional[str] = None) -> Dict[str, Any]:
        """Describe the store (for ``repro cache stats`` and CI artifacts)."""
        with self._lock:
            conn = self.conn
            entries, payload_bytes, hits_total = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(nbytes), 0), COALESCE(SUM(hits), 0) "
                "FROM results").fetchone()
            by_experiment = dict(conn.execute(
                "SELECT experiment, COUNT(*) FROM results "
                "GROUP BY experiment ORDER BY experiment").fetchall())
            stale = 0
            if current_version is not None:
                stale = conn.execute(
                    "SELECT COUNT(*) FROM results WHERE code_version != ?",
                    (current_version,)).fetchone()[0]
        try:
            file_bytes = self.path.stat().st_size
        except OSError:
            file_bytes = 0
        return {
            "store_file": str(self.path),
            "entries": entries,
            "bytes": payload_bytes,
            "file_bytes": file_bytes,
            "hits_total": hits_total,
            "stale_entries": stale,
            "max_bytes": self.max_bytes,
            "journal_mode": self.journal_mode,
            "by_experiment": by_experiment,
        }

    def calibration_samples(self, limit: int = 5000,
                            ) -> List[Tuple[str, float, float]]:
        """``(experiment, work_units, wall_s)`` rows for the cost model.

        Most-recently-used first, capped at ``limit``; spans code
        versions on purpose (see module docstring).
        """
        with self._lock:
            return self.conn.execute(
                "SELECT experiment, work_units, wall_s FROM results "
                "WHERE wall_s IS NOT NULL AND work_units IS NOT NULL "
                "ORDER BY last_used DESC LIMIT ?", (limit,)).fetchall()

    # -- introspection helpers (tests) ----------------------------------------

    def keys(self) -> Iterable[str]:
        with self._lock:
            return [r[0] for r in self.conn.execute(
                "SELECT key FROM results ORDER BY key").fetchall()]
