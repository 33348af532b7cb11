"""Incremental lint cache — skip unchanged files on warm runs.

One JSON document keyed by *content*, not mtime: every scanned file's
sha256 maps to the complete per-file analysis product — its dotted
module name, per-rule findings, suppression table, extracted
whole-program facts (:mod:`repro.lint.program`) and any parse error.
A warm run replays those records without touching :mod:`ast` at all;
only files whose bytes changed are re-parsed, which is what makes the
cached ``repro lint`` of the full tree a few-hundred-millisecond
affair (CI asserts ≥3× over cold).

Correctness rests on three invariants:

* **per-file completeness** — everything a finalize rule needs from an
  unchanged module must be in its facts record, which is why rules
  consume facts rather than ASTs (see :mod:`repro.lint.program`);
* **module matching** — a record replays only while the file's dotted
  module name is the one it was analyzed under: that name comes from
  the ``__init__.py`` chain *around* the file, which the content hash
  does not cover, and it decides where rules apply;
* **signature matching** — the cache carries a signature hashing the
  engine version, :data:`~repro.lint.program.FACTS_VERSION` and the
  active rule set.  Any mismatch (new rule, upgraded engine, different
  ``--rules`` selection) discards the whole cache rather than risking
  stale replays.

The cache is strictly opt-in (``cache_path=None`` disables it), so
programmatic callers and fixture tests never leave stray files behind;
the CLI opts in with ``.reprolint-cache.json`` unless ``--no-cache``.
Corrupt or unreadable cache files are treated as empty — the cache can
never turn a clean tree red.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterable, Optional

from .program import FACTS_VERSION

__all__ = ["ENGINE_VERSION", "LintCache", "cache_signature"]

_FORMAT = "repro-lint-cache"
_FORMAT_VERSION = 1

#: Bump on any change to how findings are produced from unchanged
#: source (rule logic, suppression semantics, finding fields) — the
#: cache signature includes it, so old caches self-invalidate.
ENGINE_VERSION = 1


def cache_signature(rule_names: Iterable[str]) -> str:
    """Stable digest of everything the cached analysis depends on."""
    payload = json.dumps(
        [_FORMAT_VERSION, ENGINE_VERSION, FACTS_VERSION, sorted(rule_names)],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


class LintCache:
    """sha256-keyed per-file analysis records behind one JSON file."""

    def __init__(self, path: Path, signature: str) -> None:
        self.path = Path(path)
        self.signature = signature
        self._entries: Dict[str, dict] = self._load()
        #: records produced or confirmed this run (what gets saved)
        self._fresh: Dict[str, dict] = {}

    def _load(self) -> Dict[str, dict]:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        if (
            not isinstance(data, dict)
            or data.get("format") != _FORMAT
            or data.get("version") != _FORMAT_VERSION
            or data.get("signature") != self.signature
            or not isinstance(data.get("entries"), dict)
        ):
            return {}
        return data["entries"]

    def get(self, rel: str, sha: str, module: str) -> Optional[dict]:
        """The cached record for ``rel`` iff its content hash and module match."""
        entry = self._entries.get(rel)
        if (
            entry is not None
            and entry.get("sha") == sha
            and entry.get("module") == module
        ):
            self._fresh[rel] = entry
            return entry
        return None

    def put(self, rel: str, sha: str, record: dict) -> None:
        record = dict(record)
        record["sha"] = sha
        self._fresh[rel] = record

    def save(self) -> None:
        """Atomically persist the records touched by this run.

        Only this run's files are kept — the cache tracks one scan
        shape; alternating scan sets simply rebuild.  Write failures
        are swallowed: a cache that cannot persist is a slow lint, not
        a broken one.
        """
        document = {
            "format": _FORMAT,
            "version": _FORMAT_VERSION,
            "signature": self.signature,
            "entries": self._fresh,
        }
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            tmp.write_text(
                json.dumps(document, separators=(",", ":")), encoding="utf-8"
            )
            os.replace(tmp, self.path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass
