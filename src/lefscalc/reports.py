"""Command reports with a stable JSON form.

Every command prints exactly one report: a kind and the fields FIELDS
lists for it, in the order the text form prints them.  Reports serialize
to plain JSON (sorted keys, deterministic ordering of every list) and
parse back to an equal report, so downstream tooling can diff command
output structurally.
"""

from __future__ import annotations

import json
from collections import Counter

from .errors import DegenerateInputError, ParseError, shown
from .exact import GaussianRational
from .records import Value

# kind -> field names, in printed order
FIELDS = {
    "chi": ("chi",),
    "integral": ("integral",),
    "lefschetz": ("global_trace", "degree_traces"),
    "localization": ("global_trace", "sum_of_local", "equal", "components"),
    "cycle-table": ("component", "regime", "sign", "table", "total"),
    "cc": ("table", "total"),
    "index-check": ("index_sum", "integral", "equal"),
    "pushforward": ("values", "source_integral", "target_integral", "equal"),
    "flag-model": ("n", "blocks", "cell_count", "chi", "component_count"),
    "worked-example": ("components", "total", "chi_of_divisor"),
    "verify": ("seed", "checks", "all_ok", "digest"),
}


def _unique_keys(pairs: list) -> dict:
    """The object of `pairs`; the first repeated key, in the order keys
    first occur, is refused."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        twice = next(key for key in obj if counts[key] > 1)
        raise ParseError(f"key {twice!r} repeated in a JSON object")
    return obj


def read_json(text: str):
    """The one reader of JSON text, for problem files and report payloads:
    a repeated key in any object, malformed JSON, an integer past Python's
    digit limit and nesting past the recursion limit are each a ParseError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integers past the digit limit
        raise ParseError(f"not valid JSON: {exc}") from exc


def _plain(value):
    """Recursively normalize to JSON-safe content (tuples become lists)."""
    if isinstance(value, GaussianRational):
        return value.to_json()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _frozen(value):
    """Recursively normalize parsed JSON for structural equality."""
    if isinstance(value, list):
        return tuple(_frozen(v) for v in value)
    if isinstance(value, dict):
        if set(value) == {"re", "im"}:
            try:
                return GaussianRational.of(value)
            except DegenerateInputError as exc:
                raise ParseError(f"invalid value {shown(value)}: {exc}") from exc
        return {k: _frozen(v) for k, v in value.items()}
    return value


class Report(Value):
    """A read-only report of one kind; its fields read as attributes, and
    `_fields` is the kind followed by the fields FIELDS lists for it."""

    __hash__ = None  # fields may hold dicts and lists

    def __init__(self, kind: str, **fields):
        names = FIELDS.get(kind)
        if names is None:
            raise TypeError(f"unknown report kind {kind!r}")
        if set(fields) != set(names):
            raise TypeError(
                f"a {kind!r} report takes fields {names}, got {tuple(fields)}"
            )
        # __setattr__ refuses every write, so fill the instance dict directly
        vars(self).update(fields, kind=kind, _fields=("kind", *names))

    @property
    def holds(self) -> bool:
        """False when the report's identity field, `equal` or `all_ok`, is."""
        return getattr(self, "equal", True) and getattr(self, "all_ok", True)

    def to_json(self) -> dict:
        return {name: _plain(getattr(self, name)) for name in self._fields}

    def to_text(self) -> str:
        lines = []
        for name, value in self.to_json().items():
            if isinstance(value, (list, dict)):
                value = json.dumps(value, sort_keys=True)
            lines.append(f"{name}: {value}")
        return "\n".join(lines)


def parse_report(data) -> Report:
    if isinstance(data, str):
        data = read_json(data)
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError("report must be a JSON object with a kind")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in FIELDS:
        raise ParseError(f"unknown report kind {kind!r}")
    names = FIELDS[kind]
    extra = sorted(set(data) - set(names) - {"kind"})
    if extra:
        raise ParseError(f"unknown report fields {extra}")
    for name in names:
        if name not in data:
            raise ParseError(f"report misses field {name!r}")
    return Report(kind, **{name: _frozen(data[name]) for name in names})


def print_report(report: Report, as_json: bool) -> str:
    if as_json:
        return json.dumps(report.to_json(), sort_keys=True, indent=2)
    return report.to_text()
