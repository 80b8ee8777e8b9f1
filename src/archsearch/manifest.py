"""Run manifests and run-directory locking.

Every pipeline stage appends an entry to `manifest.json` in the run directory:
what it consumed (paths + content hashes), what it produced (paths + content
hashes), the seed and config hash it ran under, and when it finished.
Timestamps live only here — the data files themselves are byte-deterministic,
so two runs from the same inputs produce identical output hashes and the
manifests differ only in their clock fields.

A run directory is guarded by an exclusive flock on its `.lock` file; a
second process refusing to share the directory fails fast instead of
interleaving writes. The kernel drops the lock when its holder dies, so a
killed stage leaves no stale lock behind.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping

from . import __version__
from .model import parse_json, read_json, write_json


class LockError(RuntimeError):
    """The run directory is already locked by another process."""


def sha256_file(path: Path | str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def file_stamp(path: Path | str, base: Path | str | None = None) -> dict:
    """Path (relative to the run dir when possible) plus content hash."""
    p = Path(path)
    shown = p
    if base is not None:
        try:
            shown = p.relative_to(base)
        except ValueError:
            pass
    return {"path": str(shown), "sha256": sha256_file(p)}


@dataclass(frozen=True)
class ManifestFile:
    """manifest.json: the tool that wrote it and one entry per stage run."""

    tool: str
    version: str
    stages: dict[str, dict[str, object]]

    from_json = classmethod(parse_json)


class RunManifest:
    """The per-run-directory ledger of stage inputs and outputs."""

    def __init__(self, out_dir: Path | str):
        self.out_dir = Path(out_dir)
        self.path = self.out_dir / "manifest.json"
        if self.path.exists():
            self.data = asdict(read_json(self.path, ManifestFile.from_json))
        else:
            self.data = {"tool": "archsearch", "version": __version__, "stages": {}}

    def record_stage(
        self,
        stage: str,
        seed: int | None,
        config_path: Path | str | None,
        inputs: Mapping[str, Path | str],
        outputs: Mapping[str, Path | str],
        extra: Mapping | None = None,
    ) -> None:
        entry = {
            "completed_utc": datetime.now(timezone.utc).isoformat(),
            "seed": seed,
            "inputs": {k: file_stamp(v, self.out_dir) for k, v in sorted(inputs.items())},
            "outputs": {k: file_stamp(v, self.out_dir) for k, v in sorted(outputs.items())},
        }
        if config_path is not None:
            entry["config"] = file_stamp(config_path)
        if extra:
            entry["extra"] = dict(extra)
        self.data["stages"][stage] = entry
        self.save()

    def save(self) -> None:
        write_json(self.path, self.data)


class RunLock:
    """Exclusive lock on a run directory, held for the life of one command."""

    def __init__(self, out_dir: Path | str):
        self.lock_path = Path(out_dir) / ".lock"
        self._fd: int | None = None

    def __enter__(self) -> "RunLock":
        while True:
            fd = os.open(self.lock_path, os.O_CREAT | os.O_WRONLY, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                os.close(fd)
                raise LockError(
                    f"run directory is locked ({self.lock_path} is held by another command)"
                ) from None
            # The holder we waited on may have unlinked the file before we
            # locked it; a lock on a file no longer at lock_path guards nothing.
            try:
                if os.stat(self.lock_path).st_ino == os.fstat(fd).st_ino:
                    break
            except FileNotFoundError:
                pass
            os.close(fd)
        self._fd = fd
        os.ftruncate(fd, 0)
        os.write(fd, f"{os.getpid()}\n".encode())
        return self

    def __exit__(self, *exc_info) -> None:
        # Unlink while still holding the lock, so no process can lock the old
        # file after we release it and believe it holds the directory.
        self.lock_path.unlink(missing_ok=True)
        os.close(self._fd)
        self._fd = None
