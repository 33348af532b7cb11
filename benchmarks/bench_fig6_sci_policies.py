"""Figure 6 — scientific scenario: Adaptive vs Static-{15..75}.

One simulated day of the Grid-Workloads-Archive BoT model at full paper
scale (≈ 8.3 k requests/day) with three replications.  Prints the four
panels' metrics per policy and asserts the paper's shape:

* (a) Adaptive varies ≈ 13 → 80 instances;
* (b) Adaptive ≈ 0 rejection at ≈ 0.78 utilization; Static-45 rejects
  ≈ 32 %; Static-75 copes with peak at only ≈ 42 % utilization;
* (c) Adaptive ≈ 46 % fewer VM-hours than Static-75 (≈ 40 × 24 h);
* (d) every accepted request within Ts = 700 s.
"""

from __future__ import annotations

from conftest import SCI_POLICIES, campaign_rows

from repro.metrics import format_table


def test_fig6_policy_panels(benchmark, tmp_path):
    block = dict(
        scenario="scientific",
        horizon="day",
        policies=SCI_POLICIES,
        backends=["des"],
        seeds="0-2",
    )
    data, rows = benchmark.pedantic(
        campaign_rows, args=("fig6", block, tmp_path), rounds=1, iterations=1
    )
    print()
    print(format_table(data.headers, data.rows, title=data.title))

    adaptive = rows["Adaptive"]

    # (a) instance range — paper: 13 → 80.
    assert 11 <= adaptive["min inst"] <= 16
    assert 75 <= adaptive["max inst"] <= 88

    # (b) rejection & utilization.
    assert adaptive["rejection"] < 0.01
    assert 0.70 <= adaptive["utilization"] <= 0.85  # paper: 0.78
    assert 0.25 <= rows["Static-45"]["rejection"] <= 0.40  # paper: 0.317
    assert rows["Static-15"]["rejection"] > 0.55
    assert rows["Static-75"]["rejection"] < 0.01
    assert 0.35 <= rows["Static-75"]["utilization"] <= 0.50  # paper: 0.42

    # (c) VM hours — paper: ≈ 40 instances × 24 h, 46 % below Static-75.
    saving = 1.0 - adaptive["VM hours"] / rows["Static-75"]["VM hours"]
    equiv = adaptive["VM hours"] / 24.0
    print(f"VM-hour saving vs Static-75: {saving:.1%} (paper: 46%)")
    print(f"equivalent 24 h fleet: {equiv:.1f} instances (paper: 40)")
    assert 0.38 <= saving <= 0.55
    assert 34 <= equiv <= 46

    # (d) admission control bounds every policy's response time.
    for name, row in rows.items():
        assert row["avg Tr (s)"] <= 700.0, name
        assert row["QoS violations"] == 0, name
