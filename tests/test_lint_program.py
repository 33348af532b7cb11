"""The whole-program engine: incremental cache, facts, and the
cross-module rules ``rng-streams`` and ``lease-protocol``, each pinned
with fire and no-fire fixture trees.

The cache tests pin the load-bearing invariant of the engine: finalize
rules consume *facts*, so a warm run that re-parses nothing still
reproduces every cross-module finding.
"""

from __future__ import annotations

import json

from lint_support import by_rule, lint_tree, write_tree

from repro.lint import run_lint

# ---------------------------------------------------------------------------
# incremental cache
# ---------------------------------------------------------------------------

#: Two findings (one per-module, one suppressed) to prove replay fidelity.
_CACHE_TREE = {
    "repro/cloud/a.py": """
        import time

        def stamp():
            return time.time()
    """,
    "repro/cloud/b.py": """
        import time

        def stamp():
            return time.time()  # reprolint: disable=determinism
    """,
}


def test_warm_run_replays_without_reparsing(tmp_path):
    root = write_tree(tmp_path / "tree", _CACHE_TREE)
    cache = tmp_path / "cache.json"
    r1 = run_lint([root], root=root, cache_path=cache)
    assert r1.parsed == r1.files and r1.cached == 0
    assert [f.rule for f in r1.findings] == ["determinism"]
    assert r1.suppressed == 1

    r2 = run_lint([root], root=root, cache_path=cache)
    assert r2.parsed == 0 and r2.cached == r2.files
    assert r2.findings == r1.findings
    assert r2.suppressed == r1.suppressed


def test_content_change_reparses_only_that_file(tmp_path):
    root = write_tree(tmp_path / "tree", _CACHE_TREE)
    cache = tmp_path / "cache.json"
    r1 = run_lint([root], root=root, cache_path=cache)

    (root / "repro/cloud/b.py").write_text(
        "import time\n\ndef stamp():\n    return time.time()\n",
        encoding="utf-8",
    )
    r2 = run_lint([root], root=root, cache_path=cache)
    assert r2.parsed == 1
    assert r2.cached == r1.files - 1
    # the suppression comment is gone, so b.py now reports too
    assert [f.rule for f in r2.findings] == ["determinism", "determinism"]
    assert r2.suppressed == 0


def test_rule_set_change_invalidates_whole_cache(tmp_path):
    root = write_tree(tmp_path / "tree", _CACHE_TREE)
    cache = tmp_path / "cache.json"
    run_lint([root], root=root, cache_path=cache)
    r2 = run_lint([root], root=root, cache_path=cache, rules=["determinism"])
    assert r2.cached == 0 and r2.parsed == r2.files


def test_engine_version_bump_invalidates_cache(tmp_path, monkeypatch):
    root = write_tree(tmp_path / "tree", _CACHE_TREE)
    cache = tmp_path / "cache.json"
    run_lint([root], root=root, cache_path=cache)
    monkeypatch.setattr("repro.lint.cache.ENGINE_VERSION", 999)
    r2 = run_lint([root], root=root, cache_path=cache)
    assert r2.cached == 0 and r2.parsed == r2.files


def test_corrupt_cache_is_treated_as_empty(tmp_path):
    root = write_tree(tmp_path / "tree", _CACHE_TREE)
    cache = tmp_path / "cache.json"
    cache.write_text("{ not json", encoding="utf-8")
    result = run_lint([root], root=root, cache_path=cache)
    assert result.cached == 0 and result.parsed == result.files
    # ... and the run repaired it into a valid document.
    assert json.loads(cache.read_text(encoding="utf-8"))["format"]


def test_no_cache_path_writes_nothing(tmp_path):
    root = write_tree(tmp_path / "tree", _CACHE_TREE)
    run_lint([root], root=root)
    assert list(tmp_path.glob("*.json")) == []


def test_package_layout_change_reanalyzes_unchanged_file(tmp_path):
    # The file's bytes stay the same, but the __init__.py chain that
    # appears around it turns a loose module into repro.sim.x — inside
    # the determinism rule's scope.  The cached record is stale.
    root = tmp_path / "t"
    (root / "repro/sim").mkdir(parents=True)
    (root / "repro/sim/x.py").write_text(
        "import time\n\ndef stamp():\n    return time.time()\n", encoding="utf-8"
    )
    cache = tmp_path / "cache.json"
    r1 = run_lint([root], root=root, cache_path=cache)
    assert r1.findings == []

    (root / "repro/__init__.py").write_text("", encoding="utf-8")
    (root / "repro/sim/__init__.py").write_text("", encoding="utf-8")
    r2 = run_lint([root], root=root, cache_path=cache)
    cold = run_lint([root], root=root)
    assert [f.rule for f in cold.findings] == ["determinism"]
    assert r2.findings == cold.findings
    assert r2.parsed == 3 and r2.cached == 0


def test_parse_error_replays_from_cache(tmp_path):
    root = write_tree(tmp_path / "tree", {"repro/cloud/bad.py": "def broken(:\n"})
    cache = tmp_path / "cache.json"
    r1 = run_lint([root], root=root, cache_path=cache)
    r2 = run_lint([root], root=root, cache_path=cache)
    assert r2.parsed == 0
    assert [f.rule for f in r1.findings] == [f.rule for f in r2.findings]
    assert "parse-error" in [f.rule for f in r2.findings]


# ---------------------------------------------------------------------------
# rng-streams
# ---------------------------------------------------------------------------

#: A miniature registry module — the rule reads the *scanned*
#: STREAM_REGISTRY, so fixture trees carry their own.
_MINI_RNG = """
    class RandomStreams:
        def __init__(self, seed):
            self.seed = seed

        def get(self, name):
            return name

    STREAM_REGISTRY = {
        "arrivals": "per-replication arrival process",
        "service.*": "per-tier service streams",
    }
"""


def test_rng_streams_clean_tree_no_fire(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/sim/rng.py": _MINI_RNG,
            "repro/workloads/w.py": """
                STREAM = "arrivals"

                def a(streams):
                    return streams.get(STREAM)

                def b(streams, tier):
                    return streams.get(f"service.{tier}")
            """,
        },
        rules=["rng-streams"],
    )
    assert by_rule(result, "rng-streams") == []


def test_rng_streams_fires_on_violations(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/sim/rng.py": _MINI_RNG.replace(
                '"service.*": "per-tier service streams",',
                '"service.*": "per-tier service streams",\n'
                '    "unused.stream": "nobody draws this",',
            ),
            "repro/workloads/w.py": """
                import numpy as np

                def ok(streams, tier):
                    return streams.get("arrivals"), streams.get(f"service.{tier}")

                def bad(streams):
                    return streams.get("bogus")

                def dyn(streams, name):
                    return streams.get(name)

                def adhoc():
                    return np.random.default_rng(0)
            """,
        },
        rules=["rng-streams"],
    )
    messages = [f.message for f in by_rule(result, "rng-streams")]
    assert len(messages) == 4
    assert any("unregistered stream name 'bogus'" in m for m in messages)
    assert any("cannot be resolved statically" in m for m in messages)
    assert any("ad-hoc numpy generator construction" in m for m in messages)
    assert any(
        "registered stream 'unused.stream' is never drawn" in m for m in messages
    )


def test_rng_streams_flags_duplicate_registry_entries(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/sim/rng.py": """
                STREAM_REGISTRY = {
                    "arrivals": "first",
                    "arrivals": "second",
                }

                def use(streams):
                    return streams.get("arrivals")
            """,
        },
        rules=["rng-streams"],
    )
    messages = [f.message for f in by_rule(result, "rng-streams")]
    assert any("duplicate STREAM_REGISTRY entry 'arrivals'" in m for m in messages)


def test_rng_streams_chained_factory_call(tmp_path):
    # RandomStreams(0).get("x") types through the constructor chain.
    result = lint_tree(
        tmp_path,
        {
            "repro/sim/rng.py": _MINI_RNG,
            "repro/workloads/w.py": """
                from repro.sim.rng import RandomStreams

                def a(tier):
                    return RandomStreams(0).get("arrivals")

                def b(tier):
                    return RandomStreams(0).get(f"service.{tier}")
            """,
        },
        rules=["rng-streams"],
    )
    assert by_rule(result, "rng-streams") == []


# ---------------------------------------------------------------------------
# lease-protocol
# ---------------------------------------------------------------------------


def test_lease_protocol_fires_on_leaky_claim(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/campaigns/leak.py": """
                def run(store):
                    cell = store.claim("cell")
                    if cell:
                        work(cell)
                        store.release(cell)
            """,
        },
        rules=["lease-protocol"],
    )
    messages = [f.message for f in by_rule(result, "lease-protocol")]
    assert any("not released on all paths" in m for m in messages)
    assert any("no heartbeat renew() is reachable" in m for m in messages)


def test_lease_protocol_finally_and_thread_heartbeat_no_fire(tmp_path):
    # The scheduler idiom: claim, register with a heartbeat whose daemon
    # thread renews, work under try/finally.  Renew reachability must
    # resolve through the Thread(target=self._run) reference edge.
    result = lint_tree(
        tmp_path,
        {
            "repro/campaigns/hb.py": """
                import threading

                class Heartbeat:
                    def __init__(self, store):
                        self._store = store

                    def start(self):
                        threading.Thread(target=self._run).start()

                    def _run(self):
                        self._store.renew("k")

                def run(store):
                    cell = store.claim("cell")
                    hb = Heartbeat(store)
                    hb.start()
                    try:
                        work(cell)
                    finally:
                        store.release(cell)
            """,
        },
        rules=["lease-protocol"],
    )
    assert by_rule(result, "lease-protocol") == []


def test_lease_protocol_adapter_class_is_exempt(tmp_path):
    # A class that itself defines release_all is the protocol
    # implementation — its internal claim calls are not call sites.
    result = lint_tree(
        tmp_path,
        {
            "repro/campaigns/adapter.py": """
                class Claims:
                    def __init__(self, store):
                        self._store = store

                    def claim_all(self, cells):
                        return [c for c in cells if self._store.claim(c)]

                    def release_all(self, cells):
                        for c in cells:
                            self._store.release(c)
            """,
        },
        rules=["lease-protocol"],
    )
    assert by_rule(result, "lease-protocol") == []


def test_lease_protocol_ignores_modules_outside_campaigns(tmp_path):
    result = lint_tree(
        tmp_path,
        {
            "repro/experiments/elsewhere.py": """
                def run(store):
                    return store.claim("cell")
            """,
        },
        rules=["lease-protocol"],
    )
    assert by_rule(result, "lease-protocol") == []


def test_whole_program_finding_survives_cache_replay(tmp_path):
    """The engine's core invariant: finalize rules consume facts, so a
    warm run that re-parses *nothing* still reproduces cross-module
    findings."""
    root = write_tree(
        tmp_path / "tree",
        {
            "repro/sim/rng.py": _MINI_RNG,
            "repro/workloads/w.py": """
                def bad(streams):
                    return streams.get("bogus")
            """,
        },
    )
    cache = tmp_path / "cache.json"
    r1 = run_lint([root], root=root, cache_path=cache, rules=["rng-streams"])
    r2 = run_lint([root], root=root, cache_path=cache, rules=["rng-streams"])
    assert r2.parsed == 0 and r2.cached == r2.files
    assert [f.message for f in r1.findings] == [f.message for f in r2.findings]
    assert any("'bogus'" in f.message for f in r2.findings)
