"""Memory and CPU of the processes under measurement, read from ``/proc``.

psutil is not a dependency, so peak RSS comes from ``VmHWM`` in
``/proc/<pid>/status`` and CPU time from fields 14-15 (``utime``,
``stime``) of ``/proc/<pid>/stat``.  ``pid=None`` means this process,
whose CPU time comes from :func:`os.times` at full resolution.

On a virtual machine the hypervisor may run other guests on our CPUs;
:class:`StealMeter` reports that share of CPU time (``steal`` in
``/proc/stat``) over a window, so a run disturbed by it can be told
apart from a slower program.
"""

from __future__ import annotations

import os
from pathlib import Path

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int | str) -> list[str]:
    stat = Path(f"/proc/{pid}/stat").read_text()
    # The command name (field 2) may hold spaces; fields restart after ')'.
    return stat[stat.rindex(")") + 2 :].split()


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (``VmHWM``) of *pid* in MiB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in /proc/{pid or 'self'}/status")


def cpu_seconds(pid: int | None = None) -> float:
    """User plus system CPU seconds consumed so far by *pid*."""
    if pid is None:
        t = os.times()
        return t.user + t.system
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _TICKS


def child_pids(pid: int) -> list[int]:
    """Direct children of *pid* (the pool's worker processes), found by
    scanning the parent pid of every process in ``/proc``."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            if int(_stat_fields(entry.name)[1]) == pid:
                children.append(int(entry.name))
        except (OSError, ValueError, IndexError):
            continue  # the process exited while we looked
    return sorted(children)


class StealMeter:
    """Share of all CPU time the hypervisor took from this machine
    between construction and :meth:`share`."""

    def __init__(self) -> None:
        self._start = self._read()

    @staticmethod
    def _read() -> tuple[int, int]:
        cpu_line = Path("/proc/stat").read_text().split("\n", 1)[0]
        fields = [int(x) for x in cpu_line.split()[1:9]]
        return fields[7], sum(fields)

    def share(self) -> float:
        steal, total = self._read()
        return (steal - self._start[0]) / max(1, total - self._start[1])
