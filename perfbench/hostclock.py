"""Wall time net of the CPU time the host took from this machine's vCPUs.

On a shared virtual machine the hypervisor can hold a vCPU that has work to
run; Linux counts that time as "steal" in /proc/stat. A stage that keeps the
vCPUs busy is then slowed by the share of its CPU demand that was stolen, so

    net wall = wall * busy / (busy + steal)

estimates its wall time on an unshared host (busy = user + nice + system +
irq + softirq ticks, all CPUs, over the same interval). Where /proc/stat is
missing or shows no steal, net wall equals wall.
"""

from __future__ import annotations

import time


def cpu_ticks() -> tuple[int, int]:
    """(busy, steal) clock ticks summed over all CPUs since boot."""
    try:
        with open("/proc/stat") as fh:
            f = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = f
    return user + nice + system + irq + softirq, steal


class Window:
    """Measures one interval: wall seconds and the share of CPU demand served."""

    def __init__(self) -> None:
        self.busy0, self.steal0 = cpu_ticks()
        self.t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """(wall seconds, served share busy / (busy + steal))."""
        wall = time.perf_counter() - self.t0
        busy1, steal1 = cpu_ticks()
        busy, steal = busy1 - self.busy0, steal1 - self.steal0
        return wall, (busy / (busy + steal) if busy + steal > 0 else 1.0)
