"""Simulated files.

File *content* is modelled as a (possibly empty) string plus an explicit
size in bytes, so large transfers can be represented without large
strings: executables and physics datasets carry only a size, while
stdout/stderr streams carry real text (benchmarks assert on both).

Every file carries a deterministic ``checksum`` over ``(path, size,
data)``.  Transfer services (GridFTP third-party fetch, the
TransferScheduler in :mod:`repro.data`) compare the checksum of an
arrived copy against the expected one to detect truncated or corrupted
replicas; the chaos invariants audit the same property post-mortem.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.rng import sha256


def file_digest(path: str, size: int, data: str) -> str:
    """Deterministic short digest of a file's identity and content."""
    h = sha256(f"{path}|{size}|{data}".encode())
    return h.hexdigest()[:16]


@dataclass
class SimFile:
    """A named blob with a size, optional literal content and a checksum."""

    path: str
    size: int = 0
    data: str = ""
    checksum: str = ""

    def __post_init__(self) -> None:
        if self.data and self.size == 0:
            self.size = len(self.data)
        if self.size < 0:
            raise ValueError(f"negative size for {self.path!r}: {self.size}")
        if self.data and self.size != len(self.data):
            raise ValueError(
                f"size/data mismatch for {self.path!r}: "
                f"size={self.size} but len(data)={len(self.data)}")
        self.checksum = file_digest(self.path, self.size, self.data)

    def append(self, text: str) -> None:
        self.data += text
        self.size += len(text)
        self.checksum = file_digest(self.path, self.size, self.data)


class FileStore:
    """A host's file namespace, optionally persisted to stable storage."""

    def __init__(self, stable_ns=None):
        self._files: dict[str, SimFile] = {}
        self._stable = stable_ns
        if stable_ns is not None:
            for path, record in stable_ns.items():
                # __post_init__ recomputes the stored checksum
                self._files[path] = SimFile(**record)

    def put(self, file: SimFile) -> None:
        self._files[file.path] = file
        self._persist(file)

    def get(self, path: str) -> SimFile:
        f = self._files.get(path)
        if f is None:
            raise FileNotFoundError(path)
        return f

    def exists(self, path: str) -> bool:
        return path in self._files

    def append(self, path: str, text: str) -> SimFile:
        f = self._files.get(path)
        if f is None:
            f = SimFile(path)
            self._files[path] = f
        f.append(text)
        self._persist(f)
        return f

    def delete(self, path: str) -> None:
        self._files.pop(path, None)
        if self._stable is not None:
            self._stable.delete(path)

    def _persist(self, f: SimFile) -> None:
        if self._stable is not None:
            self._stable.put(f.path, {"path": f.path, "size": f.size,
                                      "data": f.data,
                                      "checksum": f.checksum})
