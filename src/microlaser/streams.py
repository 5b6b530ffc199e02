"""Photon-detection timestamp streams and their on-disk formats.

The binary format is bit-exact so simulated runs can be archived and
re-analyzed: an ASCII header line ``MLTS1 <channel> <duration_ps> <count>``
followed by ``count`` little-endian uint64 timestamps in integer picoseconds,
nondecreasing. A one-column CSV export (``timestamp_ps``) is also supported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAGIC = b"MLTS1"
PS_PER_SECOND = 1e12


@dataclass(frozen=True)
class TimestampStream:
    """Nondecreasing detection times (seconds) for one detector channel."""

    times: np.ndarray
    channel: int
    duration: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1:
            raise ValueError("times must be a 1-d array")
        # negated comparisons, so that NaN fails each check
        if not self.duration >= 0.0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        if t.size:
            bad = np.flatnonzero(~(np.diff(t) >= 0.0))
            if bad.size:
                raise ValueError(
                    f"times must be nondecreasing and not NaN; violation at index {bad[0] + 1}"
                )
            if not (t[0] >= 0.0 and t[-1] <= self.duration):
                raise ValueError("times must lie within [0, duration]")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)

    @property
    def count(self) -> int:
        return self.times.size

    @property
    def rate(self) -> float:
        return self.count / self.duration if self.duration > 0.0 else 0.0


def write_mlts1(stream: TimestampStream, path) -> None:
    """Write the bit-exact binary timestamp format."""
    ps = np.round(stream.times * PS_PER_SECOND).astype(np.uint64)
    duration_ps = int(round(stream.duration * PS_PER_SECOND))
    header = f"MLTS1 {stream.channel} {duration_ps} {ps.size}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(ps.astype("<u8").tobytes())


def read_mlts1(path) -> TimestampStream:
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header.startswith(MAGIC + b" "):
            raise ValueError(f"{path}: not an MLTS1 file")
        fields = header.decode("ascii").split()
        if len(fields) != 4:
            raise ValueError(f"{path}: malformed MLTS1 header {header!r}")
        channel = int(fields[1])
        duration_ps = int(fields[2])
        count = int(fields[3])
        payload = fh.read(8 * count)
    if len(payload) != 8 * count:
        raise ValueError(f"{path}: truncated payload ({len(payload)} bytes for {count} events)")
    ps = np.frombuffer(payload, dtype="<u8")
    return TimestampStream(
        times=ps.astype(float) / PS_PER_SECOND,
        channel=channel,
        duration=duration_ps / PS_PER_SECOND,
    )


def write_timestamps_csv(stream: TimestampStream, path) -> None:
    ps = np.round(stream.times * PS_PER_SECOND).astype(np.uint64)
    with open(path, "w") as fh:
        fh.write(f"# channel = {stream.channel}\n")
        fh.write(f"# duration_ps = {int(round(stream.duration * PS_PER_SECOND))}\n")
        fh.write("timestamp_ps\n")
        for value in ps:
            fh.write(f"{value}\n")


def read_timestamps_csv(path) -> TimestampStream:
    channel = 0
    duration_ps = None
    values = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("channel"):
                    channel = int(body.split("=", 1)[1])
                elif body.startswith("duration_ps"):
                    duration_ps = int(body.split("=", 1)[1])
                continue
            if line == "timestamp_ps":
                continue
            values.append(int(line))
    ps = np.asarray(values, dtype=np.uint64)
    if duration_ps is None:
        duration_ps = int(ps[-1]) if ps.size else 0
    return TimestampStream(
        times=ps.astype(float) / PS_PER_SECOND,
        channel=channel,
        duration=duration_ps / PS_PER_SECOND,
    )


def read_stream(path) -> TimestampStream:
    """Dispatch on content: MLTS1 binary, else the CSV export."""
    with open(path, "rb") as fh:
        head = fh.read(6)
    if head.startswith(MAGIC + b" "):
        return read_mlts1(path)
    return read_timestamps_csv(path)
