"""Binary PGM (P5) and PPM (P6) reading and writing.

8-bit payloads are one byte per sample; maxval above 255 switches to
two bytes per sample, most significant byte first. Header comments
starting with ``#`` are tolerated on read and never written.
"""

import numpy as np


class PnmError(Exception):
    """Malformed or unsupported PNM content."""


def _skip_comment(buf: bytes, i: int) -> int:
    """Index of the newline that ends a comment starting at ``buf[i]``."""
    end = buf.find(b"\n", i)
    return len(buf) if end < 0 else end


def _read_tokens(buf: bytes, count: int, start: int) -> tuple[list[int], int]:
    """Parse ``count`` integer header tokens from ``buf[start:]``.

    A ``#`` anywhere in the header starts a comment that runs to the end
    of its line, also right after a token; a comment after the last token
    ends at its newline, which is then the one whitespace byte before the
    raster.  Returns the tokens and the offset of the raster.
    """
    tokens = []
    i = start
    n = len(buf)
    while len(tokens) < count:
        while i < n and buf[i:i + 1].isspace():
            i += 1
        if i < n and buf[i] == ord("#"):
            i = _skip_comment(buf, i)
            continue
        j = i
        while j < n and not buf[j:j + 1].isspace() and buf[j] != ord("#"):
            j += 1
        if j == i:
            raise PnmError("truncated header")
        if not buf[i:j].isdigit():  # ASCII digits only: no sign, no underscore
            raise PnmError(f"bad header token {buf[i:j]!r}")
        tokens.append(int(buf[i:j]))
        i = j
    if i < n and buf[i] == ord("#"):
        i = _skip_comment(buf, i)
    if i >= n or not buf[i:i + 1].isspace():
        raise PnmError("missing whitespace after header")
    return tokens, i + 1


def read_pnm(path) -> tuple[np.ndarray, int]:
    """Read a P5/P6 file.

    Returns (samples, maxval); samples are uint8 or uint16 with shape
    (H, W) for PGM and (H, W, 3) for PPM.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    magic = buf[:2]
    if magic not in (b"P5", b"P6"):
        raise PnmError(f"unsupported magic {magic!r} (only binary P5/P6)")
    (width, height, maxval), data_start = _read_tokens(buf, 3, 2)
    if width < 1 or height < 1:
        raise PnmError(f"bad dimensions {width}x{height}")
    if not 0 < maxval < 65536:
        raise PnmError(f"bad maxval {maxval}")
    channels = 3 if magic == b"P6" else 1
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height * channels
    payload = buf[data_start:data_start + count * dtype.itemsize]
    if len(payload) != count * dtype.itemsize:
        raise PnmError("truncated pixel data")
    arr = np.frombuffer(payload, dtype=dtype).astype(
        np.uint16 if maxval > 255 else np.uint8)
    if arr.max(initial=0) > maxval:
        raise PnmError("sample value exceeds maxval")
    if channels == 3:
        return arr.reshape(height, width, 3), maxval
    return arr.reshape(height, width), maxval


def write_pnm(path, samples: np.ndarray, maxval: int) -> None:
    """Write a P5 (2-D input) or P6 ((H, W, 3) input) file."""
    a = np.asarray(samples)
    if a.ndim == 2:
        magic = b"P5"
    elif a.ndim == 3 and a.shape[2] == 3:
        magic = b"P6"
    else:
        raise PnmError(f"cannot encode shape {a.shape} as PGM/PPM")
    if not 0 < maxval < 65536:
        raise PnmError(f"bad maxval {maxval}")
    if maxval > 255 and magic == b"P6":
        raise PnmError("16-bit PPM not supported")
    if not np.issubdtype(a.dtype, np.integer):
        raise PnmError("samples must be integers")
    if a.min(initial=0) < 0 or a.max(initial=0) > maxval:
        raise PnmError("sample values outside [0, maxval]")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    height, width = a.shape[:2]
    header = b"%s\n%d %d\n%d\n" % (magic, width, height, maxval)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(a, dtype=dtype).tobytes())
