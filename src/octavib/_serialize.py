"""Deterministic JSON: sorted keys, floats at 17 significant digits.

``format_float`` is the one float rule of every output: ``%.1f`` for an
integral value below 1e16, else ``%.17g``.  ``format_rows`` applies it to a
whole array, for the exported CSV trajectories and for float arrays in JSON.
"""

import functools

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


def format_rows(data):
    """Yield each row of a finite 2-D float array as its cells joined by ","
    with every cell as ``format_float`` prints it.

    The cells printed as ``%.1f`` are found for the whole array at once,
    ``(x == trunc(x)) & (|x| < 1e16)``; each row is then one ``%`` on the
    template of its mask.  Non-finite cells are the caller's to refuse.
    """
    integral = (data == np.trunc(data)) & (np.abs(data) < 1e16)
    packed = np.ascontiguousarray(np.packbits(integral, axis=1))
    width = data.shape[1]
    keys = packed.view(f"V{packed.shape[1]}")[:, 0].tolist() if width else [b""] * len(data)
    templates = {key: _template(key, width) for key in set(keys)}
    for key, row in zip(keys, data.tolist()):
        yield templates[key] % tuple(row)


@functools.lru_cache(maxsize=1024)
def _template(key, width):
    """The ``%`` template of a row whose integral cells are the bits of key."""
    integral = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=width)
    return ",".join(np.where(integral, "%.1f", "%.17g"))
