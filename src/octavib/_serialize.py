"""Deterministic JSON: sorted keys, floats at 17 significant digits.

``format_float`` is the one float rule of every output: ``%.1f`` for an
integral value below 1e16, else ``%.17g``.  ``format_rows`` applies it to a
whole array, for the exported CSV trajectories and for float arrays in JSON,
once per distinct value: through ``_kernels.format_values``, an exact array
kernel, from ``KERNEL_MIN_VALUES`` distinct values on, and value by value
(``_per_value``) below.  The kernels, and their inverse
``_kernels.parse_values``, are imported on first use.
"""

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
        # a list of rows, written as the nested lists of its values would be
        if not np.isfinite(value).all():
            raise ValueError("non-finite float in JSON document")
        return "[" + ",".join(f"[{row}]" for row in format_rows(value)) + "]"
    try:
        return _fmt(float(value))
    except (TypeError, ValueError):
        raise TypeError(f"cannot serialize {type(value)!r}") from None


def dumps(doc):
    return _fmt(doc)


def format_float(x):
    x = float(x)
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


# below this many distinct values the kernel's fixed cost loses to formatting
# value by value (the crossover lay at 350-500 values on a 2-core x86 VM)
KERNEL_MIN_VALUES = 512


def format_rows(data):
    """Yield each row of a 2-D float array as its cells joined by ","
    with every cell as ``format_float`` prints it.

    A mode repeats its coordinates across columns and half a period apart,
    so the rule runs once per distinct bit pattern of the whole array (-0.0
    is not 0.0) and the rows are joined from that table in bounded slices.
    Non-finite cells come out as ``%.17g`` writes them, for the caller to
    refuse.
    """
    data = np.ascontiguousarray(data, dtype=float)
    bits, index = np.unique(data.view(np.uint64), return_inverse=True)
    values = bits.view(float)
    if len(values) >= KERNEL_MIN_VALUES:
        from ._kernels import format_values

        table = format_values(values)
    else:
        table = _per_value(values)
    index = index.reshape(data.shape)
    for start in range(0, len(index), 256):
        for cells in table[index[start : start + 256]].tolist():
            yield b",".join(cells).decode()


def _per_value(values):
    """The rule one value at a time, as an object array of ASCII bytes."""
    table = np.empty(len(values), dtype=object)
    table[:] = list(map(b"%.17g".__mod__, values.tolist()))
    integral = np.flatnonzero((values == np.trunc(values)) & (np.abs(values) < 1e16))
    table[integral] = [b"%.1f" % x for x in values[integral].tolist()]
    return table


class RowWidthError(ValueError):
    """``_kernels.parse_values`` input with a row of another number of cells."""
