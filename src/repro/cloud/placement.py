"""VM-to-host placement (the IaaS *resource provisioner*).

The paper treats resource provisioning as out of scope and assumes a
"simple load-balance policy ... where new VMs are created, if possible,
in the host with fewer running virtualized application instances"
(§V-A).  :class:`LeastLoadedPlacement` implements exactly that, and
:class:`~repro.cloud.datacenter.Datacenter` places every VM with it.

Implementation note: least-loaded selection uses a lazy min-heap keyed
by VM count rather than a linear scan, so placing the 150th VM into a
1000-host data center stays O(log n).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence

from .host import Host
from .vm import VMSpec

__all__ = ["LeastLoadedPlacement"]


class LeastLoadedPlacement:
    """Paper's policy: host with the fewest running VMs wins.

    Maintains a lazy heap of ``(vm_count, host_id)`` entries; stale
    entries are discarded on pop.  Ties break on the lower host id,
    which makes placement deterministic and therefore reproducible.
    """

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._initialized = False

    def _rebuild(self, hosts: Sequence[Host]) -> None:
        self._heap = [(h.vm_count, h.host_id, h) for h in hosts]
        heapq.heapify(self._heap)
        self._initialized = True

    def select(self, hosts: Sequence[Host], spec: VMSpec) -> Optional[Host]:
        """Return the least-loaded host with room for ``spec``, or
        ``None`` when nothing fits."""
        if not self._initialized:
            self._rebuild(hosts)
        heap = self._heap
        popped = []
        chosen: Optional[Host] = None
        while heap:
            count, hid, host = heap[0]
            if count != host.vm_count:
                # Stale entry — refresh it in place.
                heapq.heapreplace(heap, (host.vm_count, hid, host))
                continue
            if host.can_fit(spec):
                chosen = host
                break
            popped.append(heapq.heappop(heap))
        # Hosts that could not fit stay eligible for future (smaller) specs.
        for entry in popped:
            heapq.heappush(heap, entry)
        if chosen is not None:
            # Account for the imminent attach so consecutive selections
            # spread across hosts even before attach() is called.
            heapq.heapreplace(heap, (chosen.vm_count + 1, chosen.host_id, chosen))
        return chosen

    def notify_detach(self, host: Host) -> None:
        """A VM left (or resized on) ``host``: re-rank it."""
        if self._initialized:
            heapq.heappush(self._heap, (host.vm_count, host.host_id, host))
