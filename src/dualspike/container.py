"""Binary container framing shared by checkpoints (.dskc) and datasets (.dsds).

    magic (4 bytes) | version (<I) | payload | crc32 of everything before it (<I)

`read` verifies magic, CRC and version before handing out a bounds-checked
`Reader` over the payload, so an unreadable, short or malformed file raises
CheckpointError rather than an OS, struct or NumPy error.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .tensor import CheckpointError

_U32 = struct.Struct("<I")


def pack(magic: bytes, version: int, payload: bytes) -> bytes:
    body = magic + _U32.pack(version) + payload
    return body + _U32.pack(zlib.crc32(body))


class Reader:
    """Cursor over a container payload; a read past its end, or text that is not UTF-8, raises CheckpointError."""

    def __init__(self, blob: bytes, start: int, end: int, what: str):
        self.blob = blob
        self.pos = start
        self.end = end
        self.what = what

    def take(self, n: int) -> bytes:
        if self.pos + n > self.end:
            raise CheckpointError(f"{self.what} truncated")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{self.what}: text is not valid UTF-8") from None

    def u32(self) -> int:
        return self.unpack("<I")[0]

    def array(self, dtype, count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        return np.frombuffer(self.take(count * dt.itemsize), dtype=dt)

    def finish(self) -> None:
        if self.pos != self.end:
            raise CheckpointError(f"{self.what} has {self.end - self.pos} trailing bytes")


def read(path, magic: bytes, version: int, what: str) -> Reader:
    """Open a container file and check its framing; returns a reader over the payload."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read {what}: {exc.strerror}") from None
    if len(blob) < len(magic) + 2 * _U32.size:
        raise CheckpointError(f"{what} truncated")
    if blob[: len(magic)] != magic:
        raise CheckpointError(f"{what}: bad magic {blob[: len(magic)]!r}")
    end = len(blob) - _U32.size
    (stored,) = _U32.unpack_from(blob, end)
    actual = zlib.crc32(memoryview(blob)[:end])
    if actual != stored:
        raise CheckpointError(f"{what} corrupt: crc32 {actual:#010x} fails the integrity check ({stored:#010x} stored)")
    (found,) = _U32.unpack_from(blob, len(magic))
    if found != version:
        raise CheckpointError(f"{what}: format version {found} unsupported (expected {version})")
    return Reader(blob, len(magic) + _U32.size, end, what)
