"""Persistent on-disk cache for experiment-cell results.

Simulated cells are deterministic: the same :class:`ExperimentSpec` (plus
the same ``REPRO_SCALE``) always produces the same
:class:`~repro.clients.workload.BenchmarkResult`.  That makes results
safe to memoize *across* processes and across benchmark/test runs, which
turns the second run of any figure grid into a sub-second disk read.

Layout: one JSON file per cell under ``benchmarks/results/.cache/``
(override with ``REPRO_CACHE_DIR``), named by a SHA-256 of the canonical
spec payload.  The payload embeds:

- every field of the spec (including a serialized cost model, when one
  is set);
- the effective ``REPRO_SCALE`` and ``TIME_COMPRESSION`` values, since
  both change the numbers a cell produces;
- a SHA-256 of the ``repro`` package's source (:func:`source_digest`),
  so any edit to a simulator module invalidates every cached cell at
  once, whether or not it moves a number.

Specs whose payload cannot be canonicalized to JSON (e.g. an exotic
custom cost object) are simply not cached.  Clearing the cache is always
safe: delete the directory or call :meth:`ResultCache.clear`.
"""

import dataclasses
import functools
import hashlib
import json
import os
import pathlib
from typing import Optional

#: the ``repro`` package directory (this file lives at
#: ``<package>/analysis/cache.py``)
PACKAGE_DIR = pathlib.Path(__file__).resolve().parents[1]

#: default location, relative to the repository root (this file lives at
#: ``<root>/src/repro/analysis/cache.py``)
DEFAULT_CACHE_DIR = (pathlib.Path(__file__).resolve().parents[3]
                     / "benchmarks" / "results" / ".cache")


def default_cache_dir() -> pathlib.Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    return pathlib.Path(env) if env else DEFAULT_CACHE_DIR


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over every ``.py`` file under :data:`PACKAGE_DIR` (relative
    path and bytes, in path order); computed once per process."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE_DIR).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def spec_payload(spec) -> Optional[dict]:
    """Canonical, JSON-ready description of everything a cell depends on.

    Returns None when the spec is not serializable (→ uncacheable).
    """
    from repro.analysis.experiments import TIME_COMPRESSION, _scale

    if spec.live_only:
        return None  # never serve a live sink's cell from disk
    payload = {"schema": source_digest(),
               "scale": _scale(),
               "time_compression": TIME_COMPRESSION}
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        if field.name == "costs" and value is not None:
            if dataclasses.is_dataclass(value):
                value = dataclasses.asdict(value)
            else:
                return None  # unknown cost object: don't risk stale hits
        payload[field.name] = value
    try:
        json.dumps(payload, sort_keys=True)
    except (TypeError, ValueError):
        return None
    return payload


def spec_key(spec) -> Optional[str]:
    """Stable hash key for a spec, or None when uncacheable."""
    payload = spec_payload(spec)
    if payload is None:
        return None
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """Directory of ``<spec-hash>.json`` files holding cell results.

    Results are stored and returned as plain dicts (the
    ``dataclasses.asdict`` form of a ``BenchmarkResult``); the runner
    reconstructs the dataclass so cached and fresh results are
    indistinguishable.
    """

    def __init__(self, directory=None) -> None:
        self.directory = pathlib.Path(directory) if directory is not None \
            else default_cache_dir()

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    def get(self, key: Optional[str]) -> Optional[dict]:
        """The cached result dict for ``key``, or None on a miss."""
        if key is None:
            return None
        path = self._path(key)
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None  # missing or corrupt: treat as a miss
        return entry.get("result")

    def put(self, key: Optional[str], spec, result_dict: dict) -> None:
        """Store one result (atomic write; no-op for uncacheable specs)."""
        if key is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        entry = {"spec": spec_payload(spec), "result": result_dict}
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(entry, sort_keys=True, indent=1))
        os.replace(tmp, path)

    def clear(self) -> int:
        """Delete every cached cell; returns how many were removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for __ in self.directory.glob("*.json"))
