"""Full-paper-scale regeneration of Figures 5 and 6 via the fluid engine.

The paper's web scenario pushes ≈ 500 M requests/week; the fluid engine
evaluates the identical control plane (same analyzer cadence, same
Algorithm 1) analytically at scale 1, in milliseconds.  This is both
the full-scale reproduction and the DES cross-check: the fleet
trajectories must agree with the rate-scaled DES results.
"""

from __future__ import annotations

from repro.backends import FluidBackend
from repro.experiments import fig5_data, fig6_data
from repro.metrics import format_table


def test_fig5_fluid_fullscale(benchmark):
    data = benchmark.pedantic(
        fig5_data,
        kwargs=dict(scale=1.0, seeds=(0,), backend=FluidBackend()),
        rounds=1,
        iterations=1,
    )
    print()
    print(format_table(data.headers, data.rows, title=data.title))
    results = {name: runs[0] for name, runs in data.raw["results"].items()}
    adaptive = results["Adaptive"]

    # Paper headline numbers at full scale.
    assert 48 <= adaptive.min_instances <= 58  # paper: 55
    assert 148 <= adaptive.max_instances <= 158  # paper: 153
    assert adaptive.rejection_rate < 0.005
    assert adaptive.utilization > 0.75
    equiv = adaptive.vm_hours / 168.0
    print(f"equivalent 24/7 fleet: {equiv:.1f} (paper: 111)")
    assert 104 <= equiv <= 118

    saving = 1.0 - adaptive.vm_hours / results["Static-150"].vm_hours
    print(f"VM-hour saving vs Static-150: {saving:.1%} (paper: 26%)")
    assert 0.20 <= saving <= 0.32

    # Total offered traffic ≈ 500.12 M requests (paper).
    print(f"offered requests: {adaptive.total_requests/1e6:.1f} M (paper: 500.12 M)")
    assert 4.8e8 < adaptive.total_requests < 5.6e8

    # Static sweep shape.
    assert results["Static-50"].rejection_rate > 0.35
    assert results["Static-150"].rejection_rate < 1e-6
    assert results["Static-150"].utilization < 0.65


def test_fig6_fluid_crosscheck(benchmark):
    data = benchmark.pedantic(
        fig6_data, kwargs=dict(seeds=(0,), backend=FluidBackend()), rounds=1, iterations=1
    )
    print()
    print(format_table(data.headers, data.rows, title=data.title))
    results = {name: runs[0] for name, runs in data.raw["results"].items()}
    adaptive = results["Adaptive"]

    assert 12 <= adaptive.min_instances <= 16  # paper: 13
    assert 75 <= adaptive.max_instances <= 88  # paper: 80
    assert adaptive.rejection_rate < 0.01
    saving = 1.0 - adaptive.vm_hours / results["Static-75"].vm_hours
    print(f"VM-hour saving vs Static-75: {saving:.1%} (paper: 46%)")
    assert 0.38 <= saving <= 0.55
    # Static-45 loses the peak flow the paper quantifies at 31.7 %.
    assert 0.20 <= results["Static-45"].rejection_rate <= 0.40
