"""Rule ``lease-protocol`` — campaign leases are released and renewed.

PR 8's sharded campaign scheduler coordinates workers through
filesystem leases (``O_CREAT|O_EXCL`` claim files with mtime
heartbeats).  The protocol's two liveness obligations are textbook
leak bugs when violated, and both are *cross-procedural*, so this rule
rides the whole-program engine:

* **release on all paths** — every ``claim``/``claim_all`` call in
  ``repro.campaigns.*`` must be guaranteed a matching
  ``release``/``release_all``: post-dominated by an unconditional
  release in its own (or an enclosing) block, or covered by a ``try``
  whose ``finally`` releases (enclosing the claim, or entered directly
  after it).  A claim that can leak only until the TTL expires is
  still a finding: a leaked lease stalls every peer for a full
  staleness window, and TTL-steal (the rename-aside tombstone path) is
  the *crash* recovery mechanism, not an excuse for exception paths.
* **heartbeat reachability** — from every claiming function, a
  ``renew(...)`` call must be reachable through the call graph,
  otherwise executing a cell longer than the TTL gets its lease stolen
  mid-run.  Reachability uses the engine's reference edges, so the
  scheduler's pattern — ``claim_all`` registers the key with a
  heartbeat object that starts ``threading.Thread(target=self._run)``
  whose loop calls ``store.renew`` — resolves across the thread
  boundary.

Adapter code is exempt from both checks: a claim call inside a class
that itself defines a release-like method (``_Claims`` wrapping the
store, the store's own retry loop) is the protocol *implementation*,
whose pairing discipline lives at its call sites.  The rule fires only
for ``repro.campaigns.*`` modules — fixture trees reproduce the
package path to exercise it.
"""

from __future__ import annotations

from typing import Iterator, Set, Tuple

from ..findings import Finding
from ..program import RELEASE_NAMES
from .base import Rule

__all__ = ["LeaseProtocolRule"]

_SCOPE = "repro.campaigns"

_RELEASE_HINT = (
    "wrap the claimed work in try/finally with release/release_all in "
    "the finally, or release unconditionally before any early exit"
)
_RENEW_HINT = (
    "register the claimed key with the heartbeat (so a renew() call is "
    "reachable from the claiming path), or execution longer than the "
    "TTL gets its lease stolen mid-run"
)


def _in_scope(module: str) -> bool:
    return module == _SCOPE or module.startswith(_SCOPE + ".")


class LeaseProtocolRule(Rule):
    name = "lease-protocol"
    description = (
        "every campaign lease claim is post-dominated by a release (or "
        "a finally that releases), and a heartbeat renew() is "
        "reachable from every claiming path"
    )

    def finalize(self, project) -> Iterator[Finding]:
        index = project.index
        #: claiming functions already cleared for renew reachability
        renew_ok: Set[Tuple[str, str]] = set()
        renew_flagged: Set[Tuple[str, str]] = set()
        for rel in sorted(project.facts):
            facts = project.facts[rel]
            if facts is None or not _in_scope(facts["module"]):
                continue
            module = facts["module"]
            classes = facts.get("classes", {})
            for claim in facts.get("claims", []):
                cls = claim.get("cls")
                if cls is not None:
                    members = classes.get(cls, {}).get("members", {})
                    if any(name in members for name in RELEASE_NAMES):
                        continue  # protocol adapter — checked at call sites
                if not claim.get("guarded"):
                    yield Finding(
                        path=rel,
                        line=claim["line"],
                        col=claim["col"],
                        rule=self.name,
                        message=(
                            f"lease {claim['base']}() in "
                            f"{claim['caller'] or module} is not released "
                            "on all paths (no post-dominating release or "
                            "finally)"
                        ),
                        hint=_RELEASE_HINT,
                    )
                key = (module, claim["caller"])
                if key in renew_ok or key in renew_flagged:
                    continue
                if index.reaches_call(module, claim["caller"], "renew"):
                    renew_ok.add(key)
                    continue
                renew_flagged.add(key)
                yield Finding(
                    path=rel,
                    line=claim["line"],
                    col=claim["col"],
                    rule=self.name,
                    message=(
                        "no heartbeat renew() is reachable from claiming "
                        f"path {claim['caller'] or module} — a held lease "
                        "goes stale during long execution"
                    ),
                    hint=_RENEW_HINT,
                )
