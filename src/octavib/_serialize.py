"""Deterministic JSON: sorted keys, floats at 17 significant digits.

``format_float`` is the one float rule of every output: ``%.1f`` for an
integral value below 1e16, else ``%.17g``.  ``format_rows`` applies it to a
whole array, for the exported CSV trajectories and for float arrays in JSON,
once per distinct value: through ``_kernels.format_values``, an exact array
kernel, from ``KERNEL_MIN_VALUES`` distinct values on, and value by value
(``_per_value``) below.  ``json_rows`` writes an array's rows as JSON lists
with it: ``dumps`` writes every 2-D float array so, a spectrum's eigenbasis
included.  The kernels, and their inverse ``_kernels.parse_values``, are
imported on first use.  ``write_over`` writes every file the package writes.
"""

import os

import numpy as np

# string escapes as json.dumps writes them: quote, backslash, control characters
_ESCAPES = str.maketrans(
    {chr(c): f"\\u{c:04x}" for c in range(0x20)}
    | {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f"}
    | {"\n": "\\n", "\r": "\\r", "\t": "\\t"}
)


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("non-finite float in JSON document")
        return format_float(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return f'"{value.translate(_ESCAPES)}"'
    if isinstance(value, dict):
        items = sorted(value.items())
        body = ",".join(f"{_fmt(str(k))}:{_fmt(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    if isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.ndim == 2:
        return "[" + b",".join(json_rows(value)).decode() + "]"
    try:
        return _fmt(float(value))
    except (TypeError, ValueError):
        raise TypeError(f"cannot serialize {type(value)!r}") from None


def dumps(doc):
    return _fmt(doc)


def json_rows(data):
    """Each row of a 2-D float array as ``dumps`` writes the list of its
    values, as ASCII bytes; a non-finite cell is a ``ValueError``."""
    if not np.isfinite(data).all():
        raise ValueError("non-finite float in JSON document")
    return [b"[" + row + b"]" for row in format_rows(data)]


def write_over(path, data):
    """Write the bytes data to path, over the file's old bytes.

    The file is created (mode 0o666 less the umask, as ``open(path, "w")``
    makes it) or overwritten in place and trimmed to ``len(data)``, never
    truncated to zero first: on ext4 with ``auto_da_alloc`` a file truncated
    to zero and rewritten starts its write-back at ``close()``.  A FIFO or
    ``os.devnull``, whose size reads 0, is written and left as it is.  Like
    ``open(path, "w")`` it is not atomic: a reader may see old and new
    bytes mixed, and an error part way leaves the file partly written.
    Returns path.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        longer = os.fstat(fd).st_size > len(data)
        fh.write(data)
        if longer:
            fh.truncate()
    return path


def format_float(x):
    x = float(x)
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _integral(values):
    """Whether each value of a float array takes ``%.1f``: integral and
    below 1e16, as ``format_float`` tests it."""
    return (values == np.trunc(values)) & (np.abs(values) < 1e16)


# below this many distinct values the kernel's fixed cost loses to formatting
# value by value (the crossover lay at 350-500 values on a 2-core x86 VM)
KERNEL_MIN_VALUES = 512


def format_rows(data):
    """Yield each row of a 2-D float array as ASCII bytes: its cells joined
    by "," with every cell as ``format_float`` prints it.

    A mode repeats its coordinates across columns and half a period apart,
    so the rule runs once per distinct bit pattern of the whole array (-0.0
    is not 0.0) and the rows are joined from that table in bounded slices.
    Non-finite cells come out as ``%.17g`` writes them, for the caller to
    refuse.
    """
    bits, index = distinct_bits(data)
    values = bits.view(float)
    if len(values) >= KERNEL_MIN_VALUES:
        from ._kernels import format_values

        table = format_values(values)
    else:
        table = _per_value(values)
    for start in range(0, len(index), 256):
        for cells in table[index[start : start + 256]].tolist():
            yield b",".join(cells)


def distinct_bits(data):
    """The sorted distinct bit patterns of a 2-D float array and, shaped like
    it, each cell's position among them: what ``np.unique`` returns with
    ``return_inverse=True`` for the array's ``uint64`` view.

    The patterns are sorted column by column with a stable sort (timsort),
    which takes a column's monotone runs whole: each column of a sampled
    sinusoid is a few long runs, where a row-major order alternates between
    the coordinates.
    """
    bits = np.ascontiguousarray(np.asarray(data, dtype=float).T).view(np.uint64)
    flat = bits.ravel()
    order = flat.argsort(kind="stable")
    ordered = flat[order]
    new = np.empty(len(ordered), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    index = np.empty(len(flat), dtype=np.intp)
    index[order] = np.cumsum(new) - 1
    return ordered[new], index.reshape(bits.shape).T


def _per_value(values):
    """The rule one value at a time, as an object array of ASCII bytes."""
    table = np.empty(len(values), dtype=object)
    table[:] = list(map(b"%.17g".__mod__, values.tolist()))
    integral = np.flatnonzero(_integral(values))
    table[integral] = [b"%.1f" % x for x in values[integral].tolist()]
    return table


class RowWidthError(ValueError):
    """``_kernels.parse_values`` input with a row of another number of cells."""
