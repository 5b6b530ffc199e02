import numpy as np
import pytest

from microlaser.streams import (
    TimestampStream,
    read_mlts1,
    read_stream,
    read_timestamps_csv,
    write_mlts1,
    write_timestamps_csv,
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


def test_stream_allows_ties_and_empty():
    s = TimestampStream(np.array([0.5e-6, 0.5e-6]), 1, 1e-3)
    assert s.count == 2
    empty = TimestampStream(np.array([]), 2, 1.0)
    assert empty.count == 0
    assert empty.rate == 0.0


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


def test_csv_roundtrip(tmp_path):
    stream = TimestampStream(np.array([2e-9, 5e-9, 5e-9]), 1, 1e-6)
    path = tmp_path / "s.csv"
    write_timestamps_csv(stream, path)
    back = read_timestamps_csv(path)
    assert back.channel == 1
    assert back.duration == pytest.approx(1e-6)
    assert np.max(np.abs(back.times - stream.times)) <= 0.5e-12


def test_read_stream_dispatches(tmp_path):
    stream = TimestampStream(np.array([1e-9]), 1, 1e-6)
    write_mlts1(stream, tmp_path / "a.mlts1")
    write_timestamps_csv(stream, tmp_path / "a.csv")
    assert read_stream(tmp_path / "a.mlts1").count == 1
    assert read_stream(tmp_path / "a.csv").count == 1
