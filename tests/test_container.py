"""Container framing shared by checkpoints and datasets: pinned bytes, bounds."""

import hashlib
import struct
import zlib

import numpy as np
import pytest

from dualspike import container
from dualspike.data import SyntheticSpec, generate_split, serialize_dataset
from dualspike.model import build, serialize_checkpoint
from dualspike.tensor import CheckpointError

# sha256 of each format for a fixed input; a framing change that moves a byte fails here
DATASET_SHA256 = "0a159b6562478cdbd4de5a4feb3541f2990849efd8c4424c1a9eae33ef09e7c3"
CHECKPOINT_SHA256 = "f6caf1fc5417348af11a8983c43334f278bc3340ecb9bec49d70a78a4197510a"


def test_formats_pinned():
    ds = serialize_dataset(generate_split(SyntheticSpec(), 8, "train"))
    ck = serialize_checkpoint(build("Nano", seed=0))
    assert hashlib.sha256(ds).hexdigest() == DATASET_SHA256
    assert hashlib.sha256(ck).hexdigest() == CHECKPOINT_SHA256


def test_frame_layout(tmp_path):
    blob = container.pack(b"TEST", 3, b"payload")
    body = b"TEST" + struct.pack("<I", 3) + b"payload"
    assert blob == body + struct.pack("<I", zlib.crc32(body))
    path = tmp_path / "c.bin"
    path.write_bytes(blob)
    r = container.read(path, b"TEST", 3, "test container")
    assert r.take(7) == b"payload"
    r.finish()


def test_reader_is_bounds_checked(tmp_path):
    path = tmp_path / "c.bin"
    path.write_bytes(container.pack(b"TEST", 1, struct.pack("<I", 7) + b"\x01\x02"))
    r = container.read(path, b"TEST", 1, "test container")
    assert r.u32() == 7
    with pytest.raises(CheckpointError, match="truncated"):
        r.array(np.float64, 1)
    with pytest.raises(CheckpointError, match="2 trailing bytes"):
        r.finish()
