"""One reader for every input file, option and library value: JSON syntax,
field kinds, bounds, choices and array shapes, each checked where the value
enters. Param declares a value once: a file's field, or a CLI option with
its flag, config key, default and help, which the library constructor or
function that takes the value checks it through too.

A malformed value raises SchemaError naming the file and the field, e.g.
"spec.json: classes[1]: script: field 'duration_s' must be an integer, got
'abc'". A bool is never a number, an int slot takes only ints, and a float
slot takes an int or a finite float, returned unchanged. Invariants that tie
fields together stay with the classes that own them.
"""

from __future__ import annotations

import json
import operator
import sys
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from .errors import DataError, SchemaError

REQUIRED = object()  # the default of a key that must be present

_NAMES = {int: "an integer", float: "a finite number", str: "a string",
          list: "a list", dict: "an object"}


class Param(NamedTuple):
    """A declared value: its key (the field of a file, the key of a config
    file and, with '-' for '_', a flag), its kind, its default (REQUIRED where
    it must be given; None makes it nullable), its bounds (`minimum` and
    `maximum` inclusive, `above` exclusive), its allowed values, a flag's
    help, and the keyword a library call takes it as where that is not the
    key."""

    key: str
    kind: type | tuple
    default: object = REQUIRED
    minimum: float | None = None
    choices: object = None
    nullable: bool = False
    help: str = ""
    arg: str | None = None
    above: float | None = None
    maximum: float | None = None

    @property
    def keyword(self) -> str:
        return self.arg or self.key

    def read(self, value, where: str | None = None):
        """`value` through read() against this declaration, named `where`,
        by default "field '<keyword>'", as a library call takes it."""
        return read(value, self.kind, where or f"field '{self.keyword}'", self.minimum,
                    self.choices, self.nullable or self.default is None, self.above,
                    self.maximum)

    def get(self, obj: dict, at: str = "", shape: tuple | None = None):
        """obj[key] through read(), or through array() where a `shape` is
        given, named "field '<at><key>'". A missing key gives the default,
        or is an error where that is REQUIRED."""
        where = f"field '{at}{self.key}'"
        if self.key not in obj:
            if self.default is REQUIRED:
                raise SchemaError(f"{where} is missing")
            return self.default
        if shape is not None:
            return array(obj[self.key], where, shape, self.kind)
        return self.read(obj[self.key], where)


def show(value) -> str:
    """repr(value), cut to 60 characters."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _is(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_is(value, k) for k in kind)
    if kind is float:
        return _is(value, int) or isinstance(value, float) and abs(value) <= sys.float_info.max
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def read(value, kind, where: str, minimum=None, choices=None, nullable: bool = False,
         above=None, maximum=None):
    """`value` if it is of `kind` (a type or a tuple of types), a number no
    less than `minimum`, greater than `above` and no greater than `maximum`,
    and one of `choices`, or None where `nullable`; anything else raises
    SchemaError naming `where`."""
    if value is None and nullable:
        return None
    if not _is(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        raise SchemaError(f"{where} must be {' or '.join(_NAMES[k] for k in kinds)}"
                          f"{' or null' if nullable else ''}, got {show(value)}")
    for bound, fails, op in ((minimum, operator.lt, ">="), (above, operator.le, ">"),
                             (maximum, operator.gt, "<=")):
        if bound is not None and _is(value, float) and fails(value, bound):
            raise SchemaError(f"{where} must be {op} {bound}, got {show(value)}")
    if choices is not None and value not in choices:
        raise SchemaError(f"{where} must be one of {show(tuple(choices))}, got {show(value)}")
    return value


def fields(obj, declared: tuple[Param, ...], where: str) -> dict:
    """{key: Param.get(obj)} of each declared key of the object `where` names."""
    read(obj, dict, where)
    return {p.key: p.get(obj) for p in declared}


def array(value, where: str, shape: tuple, kind: type = float) -> np.ndarray:
    """`value`, nested lists, as an array of `kind` (int or float) whose
    shape matches `shape` (None matches any length) and whose elements
    read() would take."""
    a = np.array(value, dtype=object)
    flat = a.ravel().tolist()
    ok = (a.ndim == len(shape) and all(n in (None, m) for n, m in zip(shape, a.shape))
          and set(map(type, flat)) <= ({int} if kind is int else {int, float}))
    try:
        out = np.array(flat, dtype=kind).reshape(a.shape) if ok else None
    except OverflowError:
        out = None
    if out is None or not np.isfinite(out).all():
        dims = " x ".join("n" if n is None else str(n) for n in shape)
        raise SchemaError(f"{where} must be a {dims} array of "
                          f"{'integers' if kind is int else 'finite numbers'}, got {show(value)}")
    return out


def load_json(path, lines: bool = False):
    """The JSON value in the file at `path`; with `lines`, a {line number:
    value} dict of its nonblank lines. A syntax error names the file (and
    the line)."""
    where = path
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if not lines:
                return json.load(fh)
            values = {}
            for lineno, line in enumerate(fh, start=1):
                where = f"{path}:{lineno}"
                if line.strip():
                    values[lineno] = json.loads(line)
            return values
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise SchemaError(f"{where}: not valid JSON: {exc}") from None


@contextmanager
def located(where):
    """Prefix a DataError raised in the block with where the bad input sits,
    unless it already starts there; its type and attributes stay."""
    try:
        yield
    except DataError as exc:
        if not str(exc).startswith(f"{where}:"):
            exc.args = (f"{where}: {exc}",)
        raise
