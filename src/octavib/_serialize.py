"""Deterministic JSON: sorted keys, floats at 17 significant digits."""

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
