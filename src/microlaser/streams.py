"""Photon-detection timestamp streams and their on-disk formats.

The binary format is bit-exact so simulated runs can be archived and
re-analyzed: an ASCII header line ``MLTS1 <channel> <duration_ps> <count>``
followed by ``count`` little-endian uint64 timestamps in integer picoseconds,
nondecreasing. A one-column CSV of integer picoseconds (``timestamp_ps``,
with optional ``# channel = ...`` and ``# duration_ps = ...`` lines) is also
read as input.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

MAGIC = b"MLTS1"
PS_PER_SECOND = 1e12
# events per read of an MLTS1 payload: the integer block stays in cache
READ_BLOCK = 1 << 17


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
            unordered = t[1:] >= t[:-1]
            np.logical_not(unordered, out=unordered)
            if unordered.any():
                raise ValueError(
                    f"times must be nondecreasing and not NaN; violation at index "
                    f"{np.argmax(unordered) + 1}"
                )
            # ordered, so only the last time can be +inf
            if not (t[0] >= 0.0 and t[-1] <= self.duration and np.isfinite(t[-1])):
                raise ValueError("times must be finite and lie within [0, duration]")
        t.flags.writeable = False
        object.__setattr__(self, "times", t)

    @property
    def count(self) -> int:
        return self.times.size


def write_mlts1(stream: TimestampStream, path) -> None:
    """Write the bit-exact binary timestamp format."""
    ps = stream.times * PS_PER_SECOND
    np.round(ps, out=ps)
    ps = ps.astype("<u8")
    duration_ps = int(round(stream.duration * PS_PER_SECOND))
    header = f"MLTS1 {stream.channel} {duration_ps} {ps.size}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(ps)


def read_mlts1(path) -> TimestampStream:
    """Read an MLTS1 file, READ_BLOCK events at a time, into float seconds."""
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
        # a header that promises more events than the file holds is refused
        # before the payload is allocated
        payload = os.fstat(fh.fileno()).st_size - len(header)
        if 8 * count > payload:
            raise ValueError(
                f"{path}: truncated payload ({payload} bytes for {count} events)"
            )
        times = np.empty(count)
        block = np.empty(min(count, READ_BLOCK), dtype="<u8")
        for lo in range(0, count, READ_BLOCK):
            part = block[: min(READ_BLOCK, count - lo)]
            got = fh.readinto(part)
            if got != part.nbytes:
                raise ValueError(
                    f"{path}: truncated payload ({8 * lo + got} bytes for {count} events)"
                )
            np.divide(part, PS_PER_SECOND, out=times[lo : lo + part.size])
    return TimestampStream(
        times=times,
        channel=channel,
        duration=duration_ps / PS_PER_SECOND,
    )


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
    """Dispatch on content: MLTS1 binary, else the timestamp CSV."""
    with open(path, "rb") as fh:
        head = fh.read(6)
    if head.startswith(MAGIC + b" "):
        return read_mlts1(path)
    return read_timestamps_csv(path)
