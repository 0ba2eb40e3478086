"""Content-addressed result cache for sweep cells.

The cache key of a cell is the SHA-256 of (a) the *canonicalized* scenario
spec -- a deterministic, key-order-independent rendering of the whole spec
tree, (b) the engine and seed, and (c) a code-version fingerprint (the
digest of every ``.py`` file under ``src/repro``), so editing any source
file invalidates every cached cell while reruns of an unchanged tree only
compute the delta.

Values are pickled payloads of :class:`~repro.results.ExperimentResult`
rows plus the picklable subset of its artifacts, written atomically
(``tmp`` + ``os.replace``) under ``.sweep-cache/`` -- a ``kill -9`` at any
point leaves either a complete entry or no entry, never a torn one, which
is what makes the whole sweep fabric crash-only: recovery is simply
"rerun; hit the cache".
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.results import ExperimentResult
from repro.scenarios.spec import ScenarioSpec

#: Bumped whenever the payload layout changes; mismatched entries are misses.
CACHE_VERSION = 1

#: Default cache directory, relative to the current working directory.
DEFAULT_CACHE_DIR = ".sweep-cache"

_CODE_FINGERPRINTS: Dict[str, str] = {}


def canonicalize(value: Any) -> Any:
    """Render a value as a deterministic JSON-able structure.

    Mappings are sorted by their canonicalized keys (so insertion order
    never leaks into the hash), dataclasses become ``[qualname, fields]``,
    arbitrary objects fall back to their class plus ``vars()``/slots state,
    and anything whose only rendering would embed a memory address is
    rejected loudly rather than silently poisoning the key.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return ["f", repr(value)]
    if isinstance(value, (bytes, bytearray)):
        return ["b", hashlib.sha256(bytes(value)).hexdigest()]
    if isinstance(value, dict):
        items = [[canonicalize(k), canonicalize(v)] for k, v in value.items()]
        items.sort(key=lambda pair: json.dumps(pair[0], sort_keys=True))
        return {"__map__": items}
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [canonicalize(item) for item in value]
        items.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {"__set__": items}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: canonicalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dc__": _qualname(type(value)), "fields": canonicalize(fields)}
    try:  # NumPy scalars and arrays, without importing numpy here.
        import numpy as np

        if isinstance(value, np.generic):
            return canonicalize(value.item())
        if isinstance(value, np.ndarray):
            return {"__nd__": list(value.shape), "data": canonicalize(value.tolist())}
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        pass
    if callable(value) and hasattr(value, "__qualname__"):
        return {"__fn__": _qualname(value)}
    state = getattr(value, "__dict__", None)
    if state is None and hasattr(type(value), "__slots__"):
        state = {
            slot: getattr(value, slot)
            for slot in type(value).__slots__
            if hasattr(value, slot)
        }
    if state is not None:
        return {"__obj__": _qualname(type(value)), "state": canonicalize(state)}
    rendered = repr(value)
    if " at 0x" in rendered:
        raise ValueError(
            f"cannot canonicalize {type(value).__name__} for a cache key: "
            f"its repr embeds a memory address ({rendered})"
        )
    return {"__repr__": rendered}


def _qualname(obj: Any) -> str:
    return f"{getattr(obj, '__module__', '?')}.{getattr(obj, '__qualname__', repr(obj))}"


def spec_fingerprint(spec: ScenarioSpec) -> str:
    """A stable digest of one scenario spec (key-order independent)."""
    rendered = json.dumps(canonicalize(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def code_fingerprint(root: Optional[Path] = None) -> str:
    """Digest of every ``.py`` file under ``src/repro`` (the code version).

    Any source edit changes the fingerprint, invalidating every cached
    cell computed by the previous code.  Cached per root per process.
    """
    if root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
    root = Path(root)
    cache_key = str(root)
    cached = _CODE_FINGERPRINTS.get(cache_key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py"), key=lambda p: p.relative_to(root).as_posix()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    fingerprint = digest.hexdigest()
    _CODE_FINGERPRINTS[cache_key] = fingerprint
    return fingerprint


def task_key(
    spec: ScenarioSpec,
    engine: Optional[str] = None,
    seed: Optional[int] = None,
    code: Optional[str] = None,
) -> str:
    """The content address of one sweep cell.

    ``engine``/``seed`` default to the spec's own; ``code`` defaults to the
    live :func:`code_fingerprint` (pass a fixed string in tests).
    """
    material = json.dumps(
        {
            "spec": canonicalize(spec),
            "engine": engine if engine is not None else spec.engine,
            "seed": seed if seed is not None else spec.seed,
            "code": code if code is not None else code_fingerprint(),
            "version": CACHE_VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def encode_result(result: ExperimentResult) -> Dict[str, Any]:
    """Reduce a result to a picklable payload (rows + data artifacts).

    The live ``network`` an engine leaves behind is always dropped: a
    finished packet network pickles whole (every port, endpoint and
    delivery log), many times the size of everything else, and no sweep
    consumer reads it.  Other artifacts that cannot be pickled are dropped
    too.  Either way the name is recorded under ``dropped_artifacts`` so
    consumers know what did not survive the trip.
    """
    artifacts: Dict[str, Any] = {}
    dropped = []
    for name, value in result.artifacts.items():
        if name == "network":
            dropped.append(name)
            continue
        try:
            pickle.dumps(value)
        except Exception:
            dropped.append(name)
        else:
            artifacts[name] = value
    return {
        "version": CACHE_VERSION,
        "experiment_id": result.experiment_id,
        "title": result.title,
        "notes": result.notes,
        "paper_reference": result.paper_reference,
        "rows": result.rows,
        "artifacts": artifacts,
        "dropped_artifacts": tuple(dropped),
    }


def decode_result(payload: Dict[str, Any]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from a cache payload."""
    result = ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        rows=list(payload["rows"]),
        notes=payload.get("notes", ""),
        paper_reference=payload.get("paper_reference", ""),
        artifacts=dict(payload.get("artifacts", {})),
    )
    dropped = tuple(payload.get("dropped_artifacts", ()))
    if dropped:
        result.artifacts["dropped_artifacts"] = dropped
    return result


class ResultCache:
    """Content-addressed on-disk store of sweep-cell payloads.

    Entries are sharded by the first two hex digits of the key.  Reads
    tolerate missing, torn or version-skewed files by reporting a miss
    (crash-only: a bad entry just means the cell is recomputed); writes go
    through a temp file plus ``os.replace`` so concurrent writers and
    ``kill -9`` cannot tear an entry.
    """

    def __init__(self, root: Any = DEFAULT_CACHE_DIR):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        try:
            payload = pickle.loads(blob)
        except Exception:
            return None
        if not isinstance(payload, dict) or payload.get("version") != CACHE_VERSION:
            return None
        if payload.get("cache_key") not in (None, key):
            return None
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> Path:
        payload = dict(payload)
        payload.setdefault("version", CACHE_VERSION)
        payload["cache_key"] = key
        # Stamped for garbage collection: entries from a different code
        # version (already unreachable -- the fingerprint feeds the key) and
        # entries older than a cutoff can be swept without inverting keys.
        payload.setdefault("code", code_fingerprint())
        payload.setdefault("written_at", time.time())
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def gc(
        self,
        *,
        max_age_days: Optional[float] = None,
        dry_run: bool = False,
        code: Optional[str] = None,
        now: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Drop stale entries; return what was (or would be) swept.

        An entry is stale when it is torn/unreadable, version-skewed, was
        written by a different code fingerprint (such entries are already
        unreachable -- the fingerprint feeds the key), or is older than
        ``max_age_days``.  Torn entries never raise: crash-only tolerance
        extends to the GC itself.  ``dry_run`` reports without deleting.
        Leftover ``*.tmp`` spills older than an hour are swept too.
        """
        code = code if code is not None else code_fingerprint()
        now = now if now is not None else time.time()
        cutoff = None if max_age_days is None else now - max_age_days * 86400.0
        report: Dict[str, Any] = {
            "scanned": 0,
            "kept": 0,
            "torn": 0,
            "stale_code": 0,
            "expired": 0,
            "tmp": 0,
            "deleted": [],
            "dry_run": dry_run,
        }

        def sweep(path: Path, kind: str) -> None:
            report[kind] += 1
            report["deleted"].append(str(path))
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    pass

        if not self.root.is_dir():
            return report
        for path in sorted(self.root.glob("*/*.pkl")):
            report["scanned"] += 1
            try:
                payload = pickle.loads(path.read_bytes())
                if not isinstance(payload, dict):
                    raise ValueError("not a payload dict")
            except Exception:
                sweep(path, "torn")
                continue
            if payload.get("version") != CACHE_VERSION:
                sweep(path, "torn")
                continue
            if payload.get("code") != code:
                sweep(path, "stale_code")
                continue
            written_at = payload.get("written_at")
            if cutoff is not None and (written_at is None or written_at < cutoff):
                sweep(path, "expired")
                continue
            report["kept"] += 1
        for tmp in sorted(self.root.glob("*/.*.tmp")):
            try:
                if now - tmp.stat().st_mtime > 3600.0:
                    sweep(tmp, "tmp")
            except OSError:
                pass
        return report
