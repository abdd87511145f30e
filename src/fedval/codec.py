"""The one strict codec of fedval's JSON files.

Each JSON object of a config, sweep spec, dataset schema or model file is
a `Section`: one table of its JSON keys and their kinds that both reads
(`decode`) and writes (`encode`) it.  An absent key takes the default of
the attribute it fills.  An unknown key, a value of another kind than
its key's, or a value the section's class turns down with a DataError
(`clients[2].skew is invalid: ...`) is a ConfigError that names the key
by its path, such as `train.lr` or `clients[2].skew.ratio`.  INT takes a
JSON integer (not a bool, not 2.0), FLOAT a finite number (not a bool,
not NaN or Infinity), BOOL true or false and STR a string; null is taken
where the attribute's default is None.  The files themselves are read by
`read_json` and written by `write_json`.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import MISSING, fields

from .errors import ConfigError, DataError


def read_json(path, what: str | None = None):
    """The JSON document in the `what` file at `path`; every fault of it is a ConfigError.

    A missing file is one too, unless `what` is None: then it stays an OSError.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        if what is None:
            raise
        raise ConfigError(f"{what} file not found: {path}") from None
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # a UnicodeDecodeError, a JSONDecodeError, an integer past Python's
        # digit limit or nesting too deep to parse
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def write_json(path, obj) -> None:
    """Write `obj` to `path` as JSON indented by 2, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def malformed(what, path, detail) -> ConfigError:
    return ConfigError(f"malformed {what}: {path or what} {detail}")


# how a JSON value is read, `decode(value, what, path)`, and written, `encode(value)`;
# errors name the file by `what` ("config", "sweep spec") and the value by `path`
Kind = namedtuple("Kind", "decode encode", defaults=(lambda value: value,))


def _scalar(name, accepts, read=lambda value: value) -> Kind:
    def decode(value, what, path):
        if accepts(value):
            try:
                return read(value)
            except OverflowError:  # an integer beyond the float range
                pass
        raise malformed(what, path, f"must be {name}, got {value!r}")
    return Kind(decode, read)  # written as read: a numpy float64 as a float


# type(v) is int, not isinstance: a bool is an int to isinstance.  Python's
# json reads NaN, Infinity and -Infinity as floats; FLOAT turns them down.
INT = _scalar("an integer", lambda v: type(v) is int)
FLOAT = _scalar("a number", lambda v: type(v) is int or (type(v) is float and math.isfinite(v)), float)
BOOL = _scalar("true or false", lambda v: type(v) is bool)
STR = _scalar("a string", lambda v: type(v) is str)


def list_of(kind: Kind, length=None) -> Kind:
    """A JSON array of `kind`, read as a tuple; `length`, if given, is its only length."""
    def decode(value, what, path):
        if not isinstance(value, list) or length not in (None, len(value)):
            shape = "a list" if length is None else f"a list of {length}"
            raise malformed(what, path, f"must be {shape}, got {value!r}")
        return tuple(kind.decode(v, what, f"{path}[{i}]") for i, v in enumerate(value))
    return Kind(decode, lambda value: [kind.encode(v) for v in value])


class Section:
    """A JSON object whose keys, `{key: kind}` in the order written, fill attributes of `cls`.

    A key fills the attribute of its name, or the one `attrs` maps it to.
    It is required when that attribute has no default or `required` names
    it, and may be null when the default is None; `retired` keys are
    ignored, and a `sparse` key is left out when written with its default.
    With `shorthand`, a bare string stands for `{shorthand: string}`.  A
    section with no `cls` decodes to a dict; held by another section, its
    keys fill attributes of the holder's object.
    """

    def __init__(self, cls, keys, *, attrs=None, required=(), retired=(), sparse=(), shorthand=None):
        self.cls, self.keys, self.retired, self.shorthand = cls, keys, set(retired), shorthand
        # the attribute each key fills; None for a held section with no class
        self.attrs = {
            key: None if isinstance(kind, Section) and kind.cls is None else (attrs or {}).get(key, key)
            for key, kind in keys.items()
        }
        defaults = {f.name: f.default for f in fields(cls)} if cls else {}
        default = {key: defaults.get(attr, MISSING) for key, attr in self.attrs.items() if attr}
        self.required = set(required) | {key for key, d in default.items() if cls and d is MISSING}
        self.nullable = {key for key, d in default.items() if d is None}
        self.sparse = {key: default[key] for key in sparse}

    def decode(self, value, what, path=""):
        if self.shorthand and isinstance(value, str):
            value = {self.shorthand: value}
        if not isinstance(value, dict):
            raise malformed(what, path, f"must be an object, got {value!r}")
        unknown = sorted(set(value) - set(self.keys) - self.retired)
        if unknown:
            raise ConfigError(f"unknown {what} keys{' in ' + path if path else ''}: {unknown}")
        found = {}
        for key, kind in self.keys.items():
            at, attr = f"{path}.{key}" if path else key, self.attrs[key]
            if key not in value:
                if key in self.required:
                    raise malformed(what, at, "is missing")
            elif value[key] is None and key in self.nullable:
                found[attr] = None
            elif attr is None:  # a held section with no class
                found.update(kind.decode(value[key], what, at))
            else:
                found[attr] = kind.decode(value[key], what, at)
        if self.cls is None:
            return found
        try:
            return self.cls(**found)
        except DataError as exc:  # a value out of the class's range, such as a skew ratio of 1.5
            raise malformed(what, path, f"is invalid: {exc}") from None

    def encode(self, obj) -> dict:
        values = {key: obj if a is None else getattr(obj, a) for key, a in self.attrs.items()}
        return {
            key: None if v is None else self.keys[key].encode(v)
            for key, v in values.items() if key not in self.sparse or v != self.sparse[key]
        }
