"""Plot-ready delimiter-separated tables and run manifests.

One logical table per file: optional '#'-prefixed metadata lines, a header
row, then data rows. Floats are rendered at 12 significant digits so that
identical runs produce byte-identical numeric output on one platform
(cross-platform identity is not promised). Manifests are plain-text
key=value blocks written next to the tables they describe.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["format_value", "write_table", "read_table", "RunManifest", "sha256_file"]


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def write_table(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    metadata: Mapping[str, object] | None = None,
) -> Path:
    path = Path(path)
    lines = []
    for key, val in (metadata or {}).items():
        lines.append(f"# {key}={format_value(val)}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_table(path: str | Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """(metadata, header, rows) of a table written by write_table."""
    metadata: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    for raw in Path(path).read_text(encoding="utf-8", errors="surrogateescape").splitlines():
        if not raw.strip():
            continue
        if raw.startswith("#"):
            body = raw[1:].strip()
            if "=" in body:
                key, _, val = body.partition("=")
                metadata[key.strip()] = val.strip()
            continue
        if not header:
            header = [h.strip() for h in raw.split(",")]
        else:
            rows.append([f.strip() for f in raw.split(",")])
    return metadata, header, rows


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    """Reproducibility record accompanying every command's outputs.

    Re-running the command with the same parameter set and inputs reproduces
    the numeric output files byte for byte; the manifest itself records
    wall-clock duration, which naturally varies. A None param is written
    as an empty value and a list param comma-joined in its order.
    """

    command: str
    version: str
    params: dict = field(default_factory=dict)
    input_digests: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    _started: float = field(default_factory=time.monotonic, repr=False)

    def add_input(self, path: str | Path) -> None:
        self.input_digests[str(path)] = sha256_file(path)

    def write(self, path: str | Path) -> Path:
        """Write the manifest; its duration runs from creation to this call."""
        duration_s = time.monotonic() - self._started
        path = Path(path)
        lines = [f"command={self.command}", f"version={self.version}"]
        for key in sorted(self.params):
            value = self.params[key]
            if isinstance(value, list):
                value = ",".join(map(format_value, value))
            lines.append(f"param.{key}={'' if value is None else format_value(value)}")
        for name in sorted(self.input_digests):
            lines.append(f"input.sha256.{name}={self.input_digests[name]}")
        for name in self.outputs:
            lines.append(f"output={name}")
        lines.append(f"duration_s={duration_s:.3f}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path
