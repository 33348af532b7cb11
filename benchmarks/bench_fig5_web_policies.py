"""Figure 5 — web scenario: Adaptive vs Static-{50,75,100,125,150}.

One simulated week of the Wikipedia-model workload through the DES at
rate scale 1/``REPRO_WEB_SCALE`` (default 400; the rescaling preserves
fleet sizes, rejection, utilization and VM-hours — DESIGN.md §4).
Prints the four panels' metrics per policy and asserts the paper's
shape:

* (a) Adaptive varies ≈ 55 → 153 instances;
* (b) Adaptive ≈ 0 rejection at ≥ 0.8 utilization; small statics reject
  heavily at near-1 utilization; Static-150 wastes ≈ 40 % capacity;
* (c) Adaptive saves ≈ 26 % VM-hours versus Static-150;
* (d) all response times ≤ Ts (admission control), saturated statics
  pushed toward the k·Tr bound.
"""

from __future__ import annotations

from conftest import WEB_POLICIES, campaign_rows, seeds, web_scale

from repro.metrics import format_table


def test_fig5_policy_panels(benchmark, tmp_path):
    block = dict(
        scenario="web",
        scale=web_scale(),
        horizon="week",
        policies=WEB_POLICIES,
        backends=["des"],
        seeds=",".join(str(s) for s in seeds()),
    )
    data, rows = benchmark.pedantic(
        campaign_rows, args=("fig5", block, tmp_path), rounds=1, iterations=1
    )
    print()
    print(format_table(data.headers, data.rows, title=data.title))

    adaptive = rows["Adaptive"]

    # (a) instance range — paper: 55 → 153.
    assert 48 <= adaptive["min inst"] <= 60
    assert 145 <= adaptive["max inst"] <= 160

    # (b) rejection & utilization.
    assert adaptive["rejection"] < 0.005
    assert adaptive["utilization"] >= 0.78
    assert rows["Static-50"]["rejection"] > 0.35
    assert rows["Static-75"]["rejection"] > 0.12
    assert rows["Static-125"]["rejection"] < 0.05
    assert rows["Static-150"]["rejection"] < 0.001
    assert rows["Static-150"]["utilization"] < 0.65

    # (c) VM hours — Adaptive ≈ 26 % below Static-150 (paper).
    saving = 1.0 - adaptive["VM hours"] / rows["Static-150"]["VM hours"]
    print(f"VM-hour saving vs Static-150: {saving:.1%} (paper: 26%)")
    assert 0.18 <= saving <= 0.35
    # Equivalent 24/7 fleet ≈ paper's 111 instances.
    equiv = adaptive["VM hours"] / 168.0
    print(f"equivalent 24/7 fleet: {equiv:.1f} instances (paper: 111)")
    assert 100 <= equiv <= 122

    # (d) response times: bounded by Ts for everyone; saturation raises
    # the mean toward k·Tr = 0.2+ s.
    for name, row in rows.items():
        assert row["avg Tr (s)"] <= 0.250, name
        assert row["QoS violations"] == 0, name
    assert rows["Static-50"]["avg Tr (s)"] > adaptive["avg Tr (s)"]
