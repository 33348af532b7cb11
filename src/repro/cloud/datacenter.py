"""The IaaS data center: hosts + VM lifecycle + placement.

Reproduces the paper's simulated infrastructure (§V-A): one data
center, 1000 homogeneous hosts (8 cores / 16 GB each), and a resource
provisioner that places each new 1-core/2-GB VM on the host with the
fewest running instances.  The data center also keeps the VM-hours
ledger used by Figures 5(c) and 6(c).
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import PlacementError
from .host import Host
from .placement import LeastLoadedPlacement
from .vm import DEFAULT_VM_SPEC, VirtualMachine, VMSpec

__all__ = ["Datacenter"]


class Datacenter:
    """A cloud data center owning hosts and placing VMs.

    Parameters
    ----------
    num_hosts:
        Number of physical hosts (paper: 1000).
    cores_per_host, ram_per_host_mb:
        Host capacity (paper: 8 cores, 16 GB).
    name:
        Label used in reports (``c_i`` in the paper's notation).
    """

    def __init__(
        self,
        num_hosts: int = 1000,
        cores_per_host: int = 8,
        ram_per_host_mb: int = 16_384,
        name: str = "dc-0",
    ) -> None:
        if num_hosts < 1:
            raise ValueError(f"data center needs at least one host, got {num_hosts}")
        self.name = name
        self.hosts: List[Host] = [
            Host(i, cores_per_host, ram_per_host_mb) for i in range(num_hosts)
        ]
        self.placement = LeastLoadedPlacement()
        self._vms: Dict[int, VirtualMachine] = {}
        self._next_vm_id = 0
        self._vm_seconds_closed = 0.0  # lifetime of already-destroyed VMs
        self._core_seconds_closed = 0.0  # cores×time of destroyed VMs

    # ------------------------------------------------------------------
    # capacity introspection
    # ------------------------------------------------------------------
    @property
    def total_cores(self) -> int:
        """Aggregate physical cores across all hosts."""
        return sum(h.cores for h in self.hosts)

    @property
    def free_cores(self) -> int:
        """Aggregate unallocated cores."""
        return sum(h.free_cores for h in self.hosts)

    @property
    def live_vms(self) -> int:
        """VMs currently placed (provisioning or running)."""
        return len(self._vms)

    def max_vms(self, spec: VMSpec = DEFAULT_VM_SPEC) -> int:
        """Upper bound on simultaneously placeable VMs of ``spec``.

        This is the ``MaxVMs`` input of Algorithm 1 when the
        application provider has not negotiated a smaller quota.
        """
        per_host = min(
            self.hosts[0].cores // spec.cores,
            self.hosts[0].ram_mb // spec.ram_mb,
        )
        return per_host * len(self.hosts)

    # ------------------------------------------------------------------
    # VM lifecycle
    # ------------------------------------------------------------------
    def create_vm(self, now: float) -> VirtualMachine:
        """Place and return a new VM of :data:`~repro.cloud.vm.DEFAULT_VM_SPEC`
        (state PROVISIONING).

        Raises
        ------
        PlacementError
            If no host can fit another VM of that spec.
        """
        spec = DEFAULT_VM_SPEC
        host = self.placement.select(self.hosts, spec)
        if host is None:
            raise PlacementError(
                f"{self.name}: no host can fit VM spec {spec.name} "
                f"({spec.cores} cores / {spec.ram_mb} MB); "
                f"{self.live_vms} VMs already placed"
            )
        vm = VirtualMachine(self._next_vm_id, spec, host.host_id, created_at=now)
        self._next_vm_id += 1
        host.attach(vm)
        self._vms[vm.vm_id] = vm
        return vm

    def destroy_vm(self, vm: VirtualMachine, now: float) -> None:
        """Destroy ``vm``, releasing its host resources."""
        if vm.vm_id not in self._vms:
            raise PlacementError(f"VM {vm.vm_id} is not live in {self.name}")
        host = self.hosts[vm.host_id]
        host.detach(vm)
        self.placement.notify_detach(host)
        del self._vms[vm.vm_id]
        vm.destroy(now)
        self._vm_seconds_closed += vm.lifetime(now)
        self._core_seconds_closed += vm.core_seconds(now)

    def resize_vm(self, vm: VirtualMachine, new_cores: int, now: float) -> bool:
        """Vertically scale a live VM to ``new_cores`` cores.

        Returns ``False`` (leaving the VM unchanged) when the host
        cannot satisfy a growth request — the vertical-scaling policy's
        analogue of a placement refusal.
        """
        if vm.vm_id not in self._vms:
            raise PlacementError(f"VM {vm.vm_id} is not live in {self.name}")
        if new_cores == vm.allocated_cores:
            return True
        host = self.hosts[vm.host_id]
        if not host.can_resize(vm, new_cores):
            return False
        host.apply_resize(vm, new_cores)
        vm.record_resize(new_cores, now)
        self.placement.notify_detach(host)  # its load ranking changed
        return True

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def vm_seconds(self, now: float) -> float:
        """Total VM wall-clock seconds accrued so far (the VM-hours ledger).

        Sums closed lifetimes of destroyed VMs plus the elapsed lifetime
        of every live VM.  ``vm_hours = vm_seconds / 3600``.
        """
        live = sum(vm.lifetime(now) for vm in self._vms.values())
        return self._vm_seconds_closed + live

    def vm_hours(self, now: float) -> float:
        """Convenience wrapper: :meth:`vm_seconds` in hours."""
        return self.vm_seconds(now) / 3600.0

    def core_seconds(self, now: float) -> float:
        """Total core × wall-clock seconds accrued (vertical-scaling cost).

        Equals :meth:`vm_seconds` when every VM keeps its 1-core spec.
        """
        live = sum(vm.core_seconds(now) for vm in self._vms.values())
        return self._core_seconds_closed + live

    def core_hours(self, now: float) -> float:
        """Convenience wrapper: :meth:`core_seconds` in hours."""
        return self.core_seconds(now) / 3600.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Datacenter {self.name} hosts={len(self.hosts)} vms={self.live_vms}>"
