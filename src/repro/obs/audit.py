"""Decision audit log — every Algorithm-1 invocation, explainable.

The paper's modeler answers "how many instances?", but a black-box
answer is useless when a run misbehaves: the operator needs the inputs
(predicted ``λ``, monitored ``T_m``, current fleet) *and* the search
trajectory that led to the chosen ``m``.  The control plane emits
exactly that as one ``decision`` trace event per estimate
(:meth:`repro.core.controlplane.ControlPlane.on_estimate`),
:class:`DecisionAuditLog` rebuilds them from a trace
(:meth:`DecisionAuditLog.from_trace`), and :func:`explain_record`
renders one record as the step-by-step narrative the "explain this
provisioning decision" workflow needs.

Direction inference: Algorithm 1 only ever *grows* ``m`` when QoS is
unmet and *bisects down* when QoS holds but predicted utilization is
below target, so the grow/shrink label of each step is recoverable
from the trajectory alone — no extra per-step state is recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Mapping, Tuple, Union

__all__ = ["DecisionRecord", "DecisionAuditLog", "explain_record"]


@dataclass(frozen=True)
class DecisionRecord:
    """One audited Algorithm-1 invocation.

    Attributes
    ----------
    time:
        Simulation time of the invocation.
    arrival_rate, service_time, current:
        The inputs: predicted ``λ``, monitored ``T_m``, and the fleet
        size the search started from.
    chosen, iterations, meets_qos:
        The outcome: selected ``m``, loop count, and whether the
        selected point satisfies the QoS check.
    cache_hit:
        Whether the decision was served from the quantized LRU cache
        (the recorded path is then the original search's).
    path:
        The grow/shrink trajectory of candidate fleet sizes.
    rho, blocking, response:
        Predicted per-instance offered load, blocking probability and
        mean response time at the chosen ``m``.
    """

    time: float
    arrival_rate: float
    service_time: float
    current: int
    chosen: int
    iterations: int
    meets_qos: bool
    cache_hit: bool
    path: Tuple[int, ...]
    rho: float
    blocking: float
    response: float


class DecisionAuditLog:
    """Append-only record of modeler invocations.

    A view of a run's trace: :meth:`from_trace` is the only
    constructor, rebuilding one :class:`DecisionRecord` per ``decision``
    event (trace the run to audit it).
    """

    def __init__(self) -> None:
        self.records: List[DecisionRecord] = []

    def record(self, record: DecisionRecord) -> None:
        """Append one invocation (called by :meth:`from_trace`)."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @classmethod
    def from_trace(
        cls, events: Union[str, Path, Iterable[Mapping[str, object]]]
    ) -> "DecisionAuditLog":
        """Reconstruct the audit log from ``decision`` trace events.

        ``events`` may be a JSONL path or any iterable of event dicts
        (e.g. a :class:`~repro.obs.bus.RingBufferSink`'s buffer).
        """
        if isinstance(events, (str, Path)):
            from .schema import iter_trace

            events = iter_trace(events)
        log = cls()
        for ev in events:
            if ev.get("type") != "decision":
                continue
            log.record(
                DecisionRecord(
                    time=float(ev["t"]),
                    arrival_rate=float(ev["arrival_rate"]),
                    service_time=float(ev["service_time"]),
                    current=int(ev["current"]),
                    chosen=int(ev["chosen"]),
                    iterations=int(ev["iterations"]),
                    meets_qos=bool(ev["meets_qos"]),
                    cache_hit=bool(ev["cache_hit"]),
                    path=tuple(int(m) for m in ev["path"]),
                    rho=float(ev["rho"]),
                    blocking=float(ev["blocking"]),
                    response=float(ev["response"]),
                )
            )
        return log

    def explain(self, index: int) -> str:
        """Human-readable narrative of the ``index``-th decision."""
        return explain_record(self.records[index])


def explain_record(record: DecisionRecord) -> str:
    """Render one decision as a step-by-step Algorithm-1 narrative."""
    lines = [
        f"Algorithm-1 decision at t={record.time:g}s "
        f"({'cache hit' if record.cache_hit else 'full search'})",
        f"  inputs: predicted λ={record.arrival_rate:g} req/s, "
        f"monitored T_m={record.service_time:g} s, current fleet m={record.current}",
    ]
    path = record.path
    for step, (a, b) in enumerate(zip(path, path[1:]), start=1):
        if b > a:
            lines.append(
                f"  step {step}: m={a} fails QoS "
                f"(blocking or T_q over target) → grow to m={b}"
            )
        elif b < a:
            lines.append(
                f"  step {step}: m={a} meets QoS but predicted utilization "
                f"below target → bisect down to m={b}"
            )
        else:
            lines.append(f"  step {step}: m={a} stable → converged")
    qos = "meets QoS" if record.meets_qos else "does NOT meet QoS (quota-capped)"
    lines.append(
        f"  chosen m={record.chosen} after {record.iterations} iteration(s); "
        f"predicted ρ={record.rho:.4g}, Pr(S_k)={record.blocking:.4g}, "
        f"T_q={record.response:.4g}s — {qos}"
    )
    return "\n".join(lines)
