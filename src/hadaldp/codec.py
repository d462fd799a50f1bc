"""The one binary layout every blob and file of the package uses.

A blob is a little-endian struct header whose first two fields are the
4-byte magic and the uint16 version, followed by flat little-endian
arrays, back to back, with nothing after them.  The header's remaining
fields fix how long each array is, so a decoder knows the blob's exact
length before it reads any array.  `encode` writes that layout and
`decode` reads it back; every framing check lives in `decode`.
"""

import numpy as np


def encode(header, magic, version, fields, arrays):
    """header.pack(magic, version, *fields), then each (dtype, values) pair
    of `arrays` as flat bytes of that little-endian dtype, in order.

    An array already C-contiguous in its dtype goes into the join as a
    view, so its bytes are copied once, into the blob."""
    parts = [header.pack(magic, version, *fields)]
    parts += [memoryview(np.ascontiguousarray(values, dtype=dtype))
              for dtype, values in arrays]
    return b"".join(parts)


def decode(blob, header, magic, version, shapes):
    """Inverse of encode: return the header's fields after magic and
    version, and the arrays as native-order copies.

    `shapes(fields)` gives the (dtype, count) of each array.  Raises
    ValueError on a blob shorter than the header, a wrong magic, a wrong
    version, or any length other than the header plus those arrays.
    """
    if len(blob) < header.size:
        raise ValueError(f"blob is {len(blob)} bytes, shorter than the "
                         f"{header.size}-byte header")
    got_magic, got_version, *fields = header.unpack_from(blob, 0)
    if got_magic != magic:
        raise ValueError(f"bad magic {got_magic!r}, expected {magic!r}")
    if got_version != version:
        raise ValueError(f"unsupported version {got_version}")
    layout = [(np.dtype(dtype), count) for dtype, count in shapes(fields)]
    expected = header.size + sum(dt.itemsize * count for dt, count in layout)
    if len(blob) != expected:
        raise ValueError(f"blob is {len(blob)} bytes, expected {expected}")
    arrays, offset = [], header.size
    for dt, count in layout:
        arrays.append(np.frombuffer(blob, dt, count, offset)
                      .astype(dt.newbyteorder("=")))
        offset += dt.itemsize * count
    return fields, arrays
