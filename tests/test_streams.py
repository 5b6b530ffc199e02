import tracemalloc

import numpy as np
import pytest

from microlaser.streams import (
    READ_BLOCK,
    TimestampStream,
    read_mlts1,
    read_stream,
    read_timestamps_csv,
    write_mlts1,
)


def test_stream_rejects_unsorted_with_index():
    with pytest.raises(ValueError, match="index 2"):
        TimestampStream(np.array([1e-6, 2e-6, 1.5e-6, 3e-6]), 1, 1.0)


def test_stream_rejects_out_of_range():
    with pytest.raises(ValueError):
        TimestampStream(np.array([-1e-9]), 1, 1.0)
    with pytest.raises(ValueError):
        TimestampStream(np.array([2.0]), 1, 1.0)


@pytest.mark.parametrize(
    "times, duration",
    [
        ([0.1, np.nan, 0.3], 1.0),
        ([np.nan, 0.1, 0.3], 1.0),
        ([0.1, 0.3, np.nan], 1.0),
        ([np.nan], 1.0),
        ([0.1, 0.3], np.nan),
        ([], np.nan),
    ],
    ids=["middle", "first", "last", "only", "duration", "empty-duration"],
)
def test_stream_rejects_nan(times, duration):
    with pytest.raises(ValueError):
        TimestampStream(np.array(times, dtype=float), 1, duration)


@pytest.mark.parametrize(
    "times, duration",
    [([0.1, np.inf], np.inf), ([0.1, np.inf, np.inf], np.inf), ([np.inf], np.inf),
     ([-np.inf, 0.1], 1.0)],
    ids=["trailing", "repeated", "only", "negative"],
)
def test_stream_rejects_infinite_times(times, duration):
    with pytest.raises(ValueError, match="finite|nondecreasing"):
        TimestampStream(np.array(times), 1, duration)


def test_stream_allows_ties_and_empty():
    s = TimestampStream(np.array([0.5e-6, 0.5e-6]), 1, 1e-3)
    assert s.count == 2
    empty = TimestampStream(np.array([]), 2, 1.0)
    assert empty.count == 0


def test_mlts1_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    times = np.sort(rng.uniform(0.0, 1e-2, 10_000))
    stream = TimestampStream(times, 1, 1e-2)
    path = tmp_path / "s.mlts1"
    write_mlts1(stream, path)
    back = read_mlts1(path)
    assert back.channel == 1
    assert back.duration == pytest.approx(1e-2, abs=1e-12)
    # picosecond quantization only
    assert np.max(np.abs(back.times - stream.times)) <= 0.5e-12
    assert back.count == stream.count


def test_mlts1_header_layout(tmp_path):
    stream = TimestampStream(np.array([1e-9, 3e-9]), 2, 1e-6)
    path = tmp_path / "s.mlts1"
    write_mlts1(stream, path)
    raw = path.read_bytes()
    header, _, payload = raw.partition(b"\n")
    assert header == b"MLTS1 2 1000000 2"
    assert len(payload) == 16
    assert np.frombuffer(payload, dtype="<u8").tolist() == [1000, 3000]


def test_mlts1_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTAFORMAT\x00\x01")
    with pytest.raises(ValueError):
        read_mlts1(path)
    path.write_bytes(b"MLTS1 1 1000000 5\n\x00\x01")  # truncated payload
    with pytest.raises(ValueError, match="truncated"):
        read_mlts1(path)


def _mlts1_bytes(ps, count=None):
    count = len(ps) if count is None else count
    return f"MLTS1 2 {int(ps[-1]) + 1 if len(ps) else 0} {count}\n".encode() + ps.tobytes()


def test_mlts1_reads_blocks_and_a_partial_block(tmp_path):
    rng = np.random.default_rng(8)
    ps = np.cumsum(rng.integers(0, 10**9, 3 * READ_BLOCK + 5)).astype("<u8")
    path = tmp_path / "blocks.mlts1"
    path.write_bytes(_mlts1_bytes(ps))
    back = read_mlts1(path)
    assert back.count == ps.size and back.channel == 2
    assert np.array_equal(back.times, ps.astype(float) / 1e12)
    write_mlts1(back, tmp_path / "again.mlts1")
    assert (tmp_path / "again.mlts1").read_bytes() == path.read_bytes()


def test_mlts1_empty_payload(tmp_path):
    path = tmp_path / "empty.mlts1"
    path.write_bytes(b"MLTS1 1 5000 0\n")
    back = read_mlts1(path)
    assert back.count == 0 and back.times.dtype == float
    assert back.duration == 5e-9


@pytest.mark.parametrize("kept_bytes", [8 * 2 * READ_BLOCK, 8 * (2 * READ_BLOCK + 7) + 3],
                         ids=["block-edge", "inside-block"])
def test_mlts1_truncated_in_a_later_block(tmp_path, kept_bytes):
    ps = np.arange(0, 3 * READ_BLOCK + 5, dtype="<u8") * 1000
    header, payload = _mlts1_bytes(ps).split(b"\n", 1)
    path = tmp_path / "cut.mlts1"
    path.write_bytes(header + b"\n" + payload[:kept_bytes])
    with pytest.raises(ValueError, match=f"truncated payload \\({kept_bytes} bytes"):
        read_mlts1(path)


def test_mlts1_header_beyond_the_file_is_refused_before_allocating(tmp_path):
    # a count of 1e11 events would ask for 745 GiB before the first read
    path = tmp_path / "corrupt.mlts1"
    path.write_bytes(b"MLTS1 1 1000 100000000000\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"truncated payload \(0 bytes for 100000000000 events"):
            read_mlts1(path)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# channel = 1\n# duration_ps = 1000000\ntimestamp_ps\n2000\n5000\n\n5000\n")
    back = read_timestamps_csv(path)
    assert back.channel == 1
    assert back.duration == 1e-6
    assert back.times.tolist() == [2e-9, 5e-9, 5e-9]
    # without header lines: channel 0, the run ends at the last event
    path.write_text("timestamp_ps\n7\n9\n")
    back = read_timestamps_csv(path)
    assert (back.channel, back.duration, back.count) == (0, 9e-12, 2)


def test_read_stream_dispatches(tmp_path):
    stream = TimestampStream(np.array([1e-9]), 1, 1e-6)
    write_mlts1(stream, tmp_path / "a.mlts1")
    (tmp_path / "a.csv").write_text("timestamp_ps\n1000\n")
    assert read_stream(tmp_path / "a.mlts1").count == 1
    assert read_stream(tmp_path / "a.csv").count == 1
