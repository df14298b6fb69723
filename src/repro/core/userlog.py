"""The user job log and the notification channel (paper §4.1).

Users can "obtain access to detailed logs, providing a complete history
of their jobs' execution" and "be informed of job termination or
problems, via callbacks or asynchronous mechanisms such as e-mail".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..sim.fastcopy import FrozenDict


@dataclass(frozen=True)
class LogEvent:
    time: float
    job_id: str
    event: str
    details: dict = field(default_factory=dict)

    def __str__(self) -> str:
        kv = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{self.time:12.3f}] {self.job_id:<14} {self.event:<12} {kv}"


class UserLog:
    """The user log *file*: append-only, on the submit machine's disk.

    One record per event in the stable namespace it is given; every
    query reads the file, so what a rebooted agent shows is exactly what
    was written before the crash.
    """

    def __init__(self, file) -> None:
        self._file = file
        self._next = len(file.keys())

    def add(self, time: float, job_id: str, event: str,
            **details: Any) -> None:
        self._file.put(f"{self._next:09d}",
                       (time, job_id, event, FrozenDict(details)))
        self._next += 1

    @property
    def events(self) -> list[LogEvent]:
        return [LogEvent(*record) for _key, record in self._file.items()]

    def for_job(self, job_id: str) -> list[LogEvent]:
        return [e for e in self.events if e.job_id == job_id]


@dataclass(frozen=True)
class Email:
    time: float
    to: str
    subject: str
    body: str


class Notifier:
    """Simulated e-mail to `user` plus synchronous callbacks.

    ``inbox`` is the user's mailbox, which is not on the submit machine:
    an agent built again after a reboot hands over the same list, while
    the in-process ``callbacks`` start empty.
    """

    def __init__(self, user: str, inbox: Optional[list] = None) -> None:
        self.address = f"{user}@example.edu"
        self.inbox: list[Email] = [] if inbox is None else inbox
        self.callbacks: list[Callable[[str, str, dict], None]] = []

    def email(self, time: float, subject: str, body: str = "") -> None:
        self.inbox.append(Email(time, self.address, subject, body))

    def subscribe(self, fn: Callable[[str, str, dict], None]) -> None:
        """fn(job_id, event, details) on every job transition."""
        self.callbacks.append(fn)

    def fire(self, job_id: str, event: str, **details: Any) -> None:
        for fn in self.callbacks:
            fn(job_id, event, details)

    def emails_about(self, fragment: str) -> list[Email]:
        return [m for m in self.inbox if fragment in m.subject]
