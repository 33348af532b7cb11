"""Unit tests of least-loaded placement and the data center."""

from __future__ import annotations

import pytest

from repro.cloud import DEFAULT_VM_SPEC, Datacenter
from repro.errors import PlacementError


# ----------------------------------------------------------------------
# least-loaded placement
# ----------------------------------------------------------------------
def test_least_loaded_spreads_evenly():
    dc = Datacenter(num_hosts=10)
    for _ in range(30):
        dc.create_vm(now=0.0)
    counts = [h.vm_count for h in dc.hosts]
    assert max(counts) - min(counts) <= 1  # perfectly balanced
    assert sum(counts) == 30


def test_least_loaded_prefers_freed_host():
    dc = Datacenter(num_hosts=3)
    vms = [dc.create_vm(0.0) for _ in range(6)]  # 2 per host
    # Free both VMs of one host; next placements should go there first.
    victims = [vm for vm in vms if vm.host_id == 1]
    for vm in victims:
        dc.destroy_vm(vm, 1.0)
    new = [dc.create_vm(2.0) for _ in range(2)]
    assert {vm.host_id for vm in new} == {1}


# ----------------------------------------------------------------------
# data center
# ----------------------------------------------------------------------
def test_max_vms_paper_geometry():
    dc = Datacenter(num_hosts=1000)
    # 8 cores and 16 GB per host → 8 one-core/2-GB VMs per host.
    assert dc.max_vms(DEFAULT_VM_SPEC) == 8000


def test_capacity_exhaustion_raises():
    dc = Datacenter(num_hosts=1)
    for _ in range(8):
        dc.create_vm(0.0)
    with pytest.raises(PlacementError):
        dc.create_vm(0.0)


def test_destroy_then_create_reuses_capacity():
    dc = Datacenter(num_hosts=1)
    vms = [dc.create_vm(0.0) for _ in range(8)]
    dc.destroy_vm(vms[0], 1.0)
    dc.create_vm(2.0)  # must not raise
    assert dc.live_vms == 8


def test_destroy_unknown_vm_raises():
    dc = Datacenter(num_hosts=2)
    vm = dc.create_vm(0.0)
    dc.destroy_vm(vm, 1.0)
    with pytest.raises(PlacementError):
        dc.destroy_vm(vm, 2.0)


def test_vm_seconds_ledger():
    dc = Datacenter(num_hosts=2)
    a = dc.create_vm(0.0)
    b = dc.create_vm(10.0)
    dc.destroy_vm(a, 100.0)  # a lived 100 s
    # At t=110: a closed (100), b live (100).
    assert dc.vm_seconds(110.0) == pytest.approx(200.0)
    assert dc.vm_hours(110.0) == pytest.approx(200.0 / 3600.0)


def test_free_cores_accounting():
    dc = Datacenter(num_hosts=2)
    assert dc.total_cores == 16
    dc.create_vm(0.0)
    assert dc.free_cores == 15


def test_invalid_host_count():
    with pytest.raises(ValueError):
        Datacenter(num_hosts=0)
