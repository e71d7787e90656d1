"""Shared domain vocabulary: frames, events, detections, and records.

All types here are immutable values, safe to copy between pipeline stages,
each declared with :func:`value`, which also generates the wire codecs that
a class body declares. The per-frame sites build values positionally: a
class called with keywords packs them into a dict that is unpacked again.
Timestamps are logical simulation milliseconds, never wall clock.

Every type serializes to a flat JSON object with snake_case field names;
``canonical_json`` is the single encoder used for wire payloads, reports,
and golden files. :func:`field` and :func:`list_field` stay the one
definition of a well-formed wire value: a generated decoder takes a value
of exactly its field's type inline and hands any other to them, so the
first malformed field in read order is the one named.
:class:`ScenarioKind` and :class:`FaceCategory` are ``(str, Enum)``: a
member is a ``str`` equal to its value and hashes as it does, in C, so a
member-keyed table also answers the value string and a ``Label`` hashes as
``(name, value)``, fixed by ``PYTHONHASHSEED``. A broken domain invariant
is a ValidationError.

A decoded label of the :data:`DEFAULT_VOCABULARY` is one shared instance
per (name, scenario), and a frame's truth whose names are a sorted subset
of its scenario's vocabulary, each once, is one of 34 shared frozensets
(:func:`truth_set`); other names get new values. Each shared set carries
its labels sorted by name and their names (:func:`truth_order`), so no
frame sorts its truth.

A config object or file is read by :func:`read_value` from its field
declarations: unknown keys refused, then each field by its annotation
(scalar, enum, ``X | None``, ``tuple[K, ...]``, ``Mapping[K, V]``, a nested
value type) and its declared default. A document key other than the field
name is ``dataclasses.field(metadata={"key": ...})``, and a key of None
keeps a field out of the document. ``to_dict = encoder()`` writes the same
keys, an enum as its value; :func:`read_document` reads a JSON file.

A log kept per event as parallel columns is read back through
:class:`RowView`, which builds each row's value, by position, when it is read.

The cloud keeps each :class:`AnalyticsRecord` as its row: one exact tuple of
its fields in order, ``(event_id, device_id, frame_id, detections,
backend_id, captured_at, detected_at, threshold_used)``, each detection as
the tuple ``(label, kind, confidence, identity, category, box)`` of ``str``,
``float``, None and a tuple of floats, never an enum member or a
:class:`Label`. Such a tuple is untracked by the garbage collector once it
has survived a collection (``gc.is_tracked``); a slotted value never is.
``row_from_dict`` reads the wire object straight into the row with the reads
and checks of ``from_dict``, which is ``from_row`` over them; ``row_to_dict``
writes the keys of ``to_dict`` and ``to_row`` gives a value's row. The rules
of :class:`Label`, :class:`Detection` and :class:`AnalyticsRecord` are
functions over atoms that both a value's ``__post_init__`` and the row
reader call, so each refusal and its message is written once.
"""

from __future__ import annotations

import dataclasses
import enum
import inspect
import itertools
import json
import linecache
import sys
import types
import typing
from collections import abc
from typing import AbstractSet, Any, Callable, Iterable, Mapping, Sequence

from .errors import ProtocolError, ValidationError

__all__ = [
    "ScenarioKind",
    "FaceCategory",
    "Label",
    "FaceIdentity",
    "Detection",
    "FrameSample",
    "MotionEvent",
    "AnalyticsRecord",
    "EventIdFactory",
    "format_event_id",
    "parse_event_id",
    "apply_confidence_threshold",
    "canonical_json",
    "RowView",
    "truth_order",
    "truth_set",
    "value",
    "read_value",
    "read_document",
    "DEFAULT_THRESHOLD",
    "ALTERNATE_THRESHOLD",
    "FACE_LABEL",
    "DEFAULT_VOCABULARY",
]

# Confidence is a percentage in [0, 100]; both study thresholds are
# first-class config values.
DEFAULT_THRESHOLD = 90.0
ALTERNATE_THRESHOLD = 70.0

FACE_LABEL = "face"


class ScenarioKind(str, enum.Enum):
    """The five supported analytics scenarios."""

    FACE_RECOGNITION = "face_recognition"
    UNSAFE_CONTENT = "unsafe_content"
    ANIMAL_DETECTION = "animal_detection"
    NOTEWORTHY_VEHICLE = "noteworthy_vehicle"
    MULTI_OBJECT = "multi_object"


class FaceCategory(str, enum.Enum):
    FAMILY = "family"
    FRIEND = "friend"
    VISITOR = "visitor"
    UNKNOWN = "unknown"


# Default label vocabulary per scenario, used by the dataset generator and
# for spurious (false-positive) detections.
DEFAULT_VOCABULARY: Mapping[ScenarioKind, tuple[str, ...]] = {
    ScenarioKind.FACE_RECOGNITION: (FACE_LABEL,),
    ScenarioKind.UNSAFE_CONTENT: ("gun", "knife"),
    ScenarioKind.ANIMAL_DETECTION: ("dog", "cat"),
    ScenarioKind.NOTEWORTHY_VEHICLE: ("fedex", "usps", "ambulance", "dhl"),
    ScenarioKind.MULTI_OBJECT: ("person", "dog", "package"),
}


REQUIRED: Any = object()  # field()'s default for a field that must be present
_KIND_NAMES = {str: "a string", int: "an integer", float: "a finite number",
               list: "an array", dict: "an object"}
_FLOAT_MAX = sys.float_info.max


def _checked(value: Any, name: str, kind: type) -> Any:
    if type(value) is kind and (kind is not float or -_FLOAT_MAX <= value <= _FLOAT_MAX):
        return value  # the usual case; a bool is not an int, NaN fails both comparisons
    if kind is float:
        if type(value) is int and -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return float(value)
    elif kind not in _KIND_NAMES:  # an enum, spelled by its value
        try:  # the enum's own value -> member table, without Enum.__call__
            return kind._value2member_map_[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            choices = ", ".join(member.value for member in kind)
            raise ProtocolError(f"{name} must be one of {choices}") from None
    elif kind is not int and isinstance(value, Mapping if kind is dict else kind):
        return value  # a str or list subclass, or any mapping
    raise ProtocolError(f"{name} must be {_KIND_NAMES[kind]}")


def field(data: Mapping[str, Any], name: str, kind: type, default: Any = REQUIRED) -> Any:
    """Field ``name`` of a decoded JSON object, strictly of ``kind``: ``str``,
    ``int`` (not a bool), ``float`` (any finite number, returned as a float),
    ``list``, ``dict`` (any mapping) or an enum, spelled by its value. Absent,
    or ``null`` where the default is ``None``, it yields ``default``; any
    other value raises :class:`ProtocolError`."""
    value = data.get(name, default)
    if type(value) is kind and (kind is not float or -_FLOAT_MAX <= value <= _FLOAT_MAX):
        return value  # _checked's usual case, without the call
    if value is default:
        if value is REQUIRED:
            raise ProtocolError(f"{name} is required")
        return value
    return _checked(value, name, kind)


def list_field(data: Mapping[str, Any], name: str, kind: type, default: Any = REQUIRED) -> tuple:
    """Field ``name``, a JSON array whose every item is of ``kind``, as a tuple."""
    values = field(data, name, list, default)
    if values is default:
        return values
    return tuple([_checked(value, f"an item of {name}", kind) for value in values])


def map_field(data: Mapping[str, Any], name: str, kind: type, default: Any = REQUIRED,
              key_kind: type = str) -> dict:
    """Field ``name``, a JSON object of ``kind`` values, as a dict with ``key_kind`` keys."""
    values = field(data, name, dict, default)
    if values is default:
        return values
    return {_checked(key, f"a key of {name}", key_kind): _checked(value, f"{name}.{key}", kind)
            for key, value in values.items()}


def _key(f: dataclasses.Field) -> str | None:
    """Field ``f``'s document key: its ``key`` metadata, by default its name."""
    return f.metadata.get("key", f.name)


def _unoptional(kind: Any) -> Any:
    """``X`` of an ``X | None`` annotation; any other annotation as it is."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) in (typing.Union, types.UnionType) and type(None) in args:
        return next(arg for arg in args if arg is not type(None))
    return kind


def read_value(cls: type, data: Any, where: str | None = None, /, **given: Any) -> Any:
    """``cls`` read from the JSON object ``data`` (``where`` in its document) by
    its field declarations. Null reads as absent for a field with a
    ``default_factory``, but never as a value type's object; ``given`` fields are not read."""
    scope = vars(sys.modules[cls.__module__])
    fields = [(f, _key(f)) for f in dataclasses.fields(cls)]
    refuse_unknown_keys(data, [key for _, key in fields if key is not None], where)
    values = {}
    for f, key in fields:
        if key is None or f.name in given:
            continue
        kind = _unoptional(eval(f.type, scope))
        factory = f.default_factory is not dataclasses.MISSING
        default = None if factory else REQUIRED if f.default is dataclasses.MISSING else f.default
        origin, args = typing.get_origin(kind), typing.get_args(kind)
        if dataclasses.is_dataclass(kind):  # absent: {}, so each of its fields takes its default
            value = read_value(kind, field(data, key, dict, {}), key)
        elif origin is tuple:
            value = list_field(data, key, args[0], default)
        elif origin is abc.Mapping:
            value = map_field(data, key, args[1], default, key_kind=args[0])
        else:
            value = field(data, key, kind, default)
        values[f.name] = f.default_factory() if value is None and factory else value
    return cls(**values, **given)


def read_document(path: Any, what: str, decode: Callable[[Any], Any]) -> Any:
    """``decode`` of the JSON document in file ``path``, or a ValidationError
    ``bad <what>: <path>: …`` (unreadable file) or ``bad <what>: …`` (refused)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    # unreadable, not UTF-8, not JSON, or nested too deep for the decoder
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"bad {what}: {path}: {exc}") from exc
    try:
        return decode(document)
    except (ProtocolError, ValidationError) as exc:
        raise ValidationError(f"bad {what}: {exc}") from exc


def refuse_unknown_keys(data: Any, known: Iterable[str], where: str | None = None) -> None:
    """Raise ProtocolError unless ``data`` is a mapping with no key outside
    ``known``; ``where`` names the object in its document (None: the document)."""
    if not isinstance(data, Mapping):
        raise ProtocolError(f"{where or 'the document'} must be a JSON object")
    unknown = data.keys() - set(known)
    if unknown:
        names = ", ".join(repr(key) for key in sorted(unknown, key=str))
        plural = "s" if len(unknown) > 1 else ""
        raise ProtocolError(f"unknown key{plural} {names}" + (f" in {where}" if where else ""))


class _Factory:
    """The default of a ``default_factory`` parameter: "call the factory"."""

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


def _final(cls, **kwargs: Any) -> None:
    """Every value type's ``__init_subclass__``: a value type is final."""
    raise TypeError(f"{cls.__qualname__}: a value type cannot be subclassed")


def _reduce(self: Any) -> tuple:
    """Every value type's ``__reduce__``: rebuild through the constructor.
    A value's ``__slots__`` are its field names, in order."""
    return type(self), tuple([getattr(self, name) for name in self.__slots__])


class _Codec(tuple):
    """A codec declared in a value class body: (name, reads, extra parameters,
    check, row)."""


def decoder(*reads: tuple, params: str = "", check: str = "", row: bool | str = False) -> Any:
    """``from_dict = decoder(*reads, params=..., check=..., row=...)`` in a
    value class body; see :func:`value`."""
    return _Codec(("from_dict", reads, params and f", {params}", check, row))


def encoder() -> Any:
    """``to_dict = encoder()`` in a value class body; see :func:`value`."""
    return _Codec(("to_dict", (), "", "", False))


def read(key: str, kind: Any, default: Any = REQUIRED, then: str = "", *,
         name: str = "", when: str = "") -> tuple:
    """A :func:`decoder`'s read of key ``key`` into local ``name`` (default
    ``key``): a value of exactly ``kind`` (``str``, ``int``, ``float``, an
    enum, ``tuple[K, ...]``; a value type ``K`` is read by its ``from_dict``)
    as it is, any other through :func:`field` or :func:`list_field`, which
    coerce it or refuse it by name. ``then`` is a statement run right after
    the read, and both run only ``when`` that condition holds."""
    return name or key, key, kind, default, then, when


def _read_source(name: str, key: str, kind: Any, default: Any, then: str, when: str,
                 closure: dict[str, Any], decode: str = "from_dict") -> list[str]:
    closure[f"_{name}_default"] = default
    dflt = "" if default is REQUIRED else ", None" if default is None else f", _{name}_default"
    item = typing.get_args(kind)[0] if typing.get_origin(kind) is tuple else None
    if hasattr(item, decode):  # an array of objects; most are empty: skip the map then
        closure[item.__name__] = item
        then = f"{name} = tuple(map({item.__name__}.{decode}, {name})) if {name} else ()\n{then}"
        item = dict
    getter, check = "field", []
    if kind in (str, int, float):
        bad = f"type({name}) is not {kind.__name__}" + (
            f" or not -_FLOAT_MAX <= {name} <= _FLOAT_MAX" if kind is float else "")
        bad = f"{name} is not None and ({bad})" if default is None else bad
    elif isinstance(kind, enum.EnumMeta):  # an exact str, looked up in the enum's own table
        closure[kind.__name__], closure[f"_{name}_members"] = kind, kind._value2member_map_
        check = [f"{name} = _{name}_members.get({name}) if type({name}) is str else None"]
        bad = f"{name} is None"
    elif item in (str, dict):  # an exact list of exact items
        getter, bad = "list_field", f"type({name}) is not list"
        check = [f"if type({name}) is list:", f" for item in {name}:",
                 f"  if type(item) is not {item.__name__}:", f"   {name} = None", "   break"]
    elif item is float and default is None:  # absent or null: None, without the call
        getter, bad = "list_field", f"{name} is not None"
    else:
        raise TypeError(f"{key}: no generated read of {kind!r}")
    lines = [f"{name} = data.get({key!r}{'' if default is None else dflt})", *check, f"if {bad}:",
             f" {name} = {getter}(data, {key!r}, {(item or kind).__name__}{dflt})",
             *then.splitlines()]
    return [f"if {when}:", *[f" {line}" for line in lines]] if when else lines


def _encoded(value: str, kind: Any) -> str:
    """A value type's ``to_dict()``, an enum's value, a list of a tuple, a dict
    of a mapping, a scalar; ``X | None`` as ``X`` or None."""
    inner = _unoptional(kind)
    if inner is not kind:
        encoded = _encoded(value, inner)
        return encoded if encoded == value else f"None if {value} is None else {encoded}"
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if hasattr(kind, "to_dict"):
        return f"{value}.to_dict()"
    if isinstance(kind, enum.EnumMeta):
        return f"{value}._value_"  # not the slower enum .value property
    if origin is tuple and hasattr(args[0], "to_dict"):  # most are empty: skip the call then
        return f"[item.to_dict() for item in {value}] if {value} else []"
    if origin is abc.Mapping and any(isinstance(arg, enum.EnumMeta) for arg in args):
        return (f"{{{_encoded('key', args[0])}: {_encoded('item', args[1])} "
                f"for key, item in {value}.items()}}")
    if origin in (tuple, abc.Mapping):
        return f"{'list' if origin is tuple else 'dict'}({value})"
    if kind in (str, int, float, bool):
        return value
    raise TypeError(f"{value}: no generated encoding of {kind!r}")


def _row_codecs(fields: Sequence[dataclasses.Field], kinds: Sequence[Any],
                closure: dict[str, Any]) -> dict[str, list[str]]:
    """The sources of ``from_row``, ``row_to_dict`` and ``to_row`` for a value
    type whose row is its fields in order: a ``str``, ``int`` or ``float``
    field as it is, a ``tuple[K, ...]`` of a value type ``K`` with row codecs
    as a tuple of ``K``'s rows (most are empty: no map then)."""
    items = {}  # field name -> the name of its item type
    for f, kind in zip(fields, kinds):
        item = typing.get_args(kind)[0] if typing.get_origin(kind) is tuple else None
        if hasattr(item, "from_row"):
            items[f.name] = closure[item.__name__] = item
        elif kind not in (str, int, float):
            raise TypeError(f"{f.name}: no generated row of {kind!r}")

    def value_of(n: str) -> str:
        return f"tuple(map({items[n].__name__}.from_row, {n})) if {n} else ()" if n in items else n

    def wire_of(n: str) -> str:
        return (f"[{items[n].__name__}.row_to_dict(item) for item in {n}] if {n} else []"
                if n in items else n)

    def row_of(n: str) -> str:
        return (f"tuple([item.to_row() for item in self.{n}]) if self.{n} else ()"
                if n in items else f"self.{n}")

    names = [f.name for f in fields]
    unpack = f" {', '.join(names)}, = row"
    return {
        "from_row": ["@classmethod", "def from_row(cls, row):", unpack,
                     f" return cls({', '.join(map(value_of, names))})"],
        "row_to_dict": ["@staticmethod", "def row_to_dict(row):", unpack, " return {",
                        *[f"  {_key(f)!r}: {wire_of(f.name)}," for f in fields
                          if f.compare and _key(f) is not None], " }"],
        "to_row": ["def to_row(self):", f" return ({', '.join(map(row_of, names))},)"],
    }


def value(cls: type) -> type:
    """Make ``cls`` an immutable value type: a final, frozen, slotted dataclass.

    ``dataclasses`` generates everything but construction and the codecs:
    ``__eq__``, ``__hash__``, ``__repr__``, the frozen set and delete,
    ``replace``, ``fields`` and ``__match_args__``. ``value`` writes one
    source per class and ``exec``s it once. It holds a ``__new__`` that
    takes the parameters of the dataclass ``__init__`` (names, order,
    defaults and ``default_factory`` fields) and does four things in order:

    - makes a bare instance of a hidden twin class, built once per value
      type with the same ``__slots__`` and no ``__setattr__`` (``twin()``
      runs ``object.__new__`` and ``object.__init__``);
    - stores each field with a plain attribute store;
    - sets ``self.__class__ = cls``;
    - calls ``__post_init__`` if the class has one.

    ``__init__`` is ``object``'s. The source, kept in ``linecache`` for
    ``inspect.getsource`` and tracebacks, also holds the codecs that the
    class body declares, which read field annotations as strings (``from
    __future__ import annotations``): ``to_dict = encoder()`` maps each
    field, but one with ``compare=False`` or a key of None, to its JSON
    value, and ``from_dict = decoder(*reads)`` makes each :func:`read` in
    order (with none, each field's) and returns ``cls(<fields>)``. A
    decoder with a ``row`` (an expression over what it read, or True for
    the fields in order) makes the same reads into the static
    ``row_from_dict``, which runs the ``check`` statement over what it read
    and returns that tuple; the check calls the rule that the value's
    ``__post_init__`` calls, so ``from_dict`` makes the reads and returns
    ``cls.from_row(<row>)``, whose value checks itself. An array of a
    value type is then read by the item type's ``row_from_dict``. With
    ``row=True``, ``from_row``, ``row_to_dict`` and ``to_row`` are generated
    too (see :func:`_row_codecs`); with an expression, the class body
    writes them.

    A shared ``__reduce__`` returns ``(type(self), field values)``, so
    copy, deepcopy and pickle rebuild a value through ``__new__``; the
    default reduction would call ``__new__`` without its arguments. The
    class must derive from ``object`` alone, and it cannot be subclassed: a
    subclass's layout is not the twin's. Fields with ``init=False``,
    ``InitVar`` pseudo-fields, keyword-only fields and fields named ``cls``
    or ``self`` (the names of ``__new__``'s first parameter and of its
    instance) raise TypeError.
    """
    if cls.__bases__ != (object,):
        raise TypeError(f"{cls.__qualname__}: value() takes only a class derived from object")
    doc = cls.__doc__
    cls = dataclasses.dataclass(frozen=True, slots=True, init=False)(cls)
    fields = dataclasses.fields(cls)
    for f in cls.__dataclass_fields__.values():
        # dataclasses marks an InitVar pseudo-field only by this private tag
        if f._field_type is dataclasses._FIELD_INITVAR or not f.init or f.kw_only:
            raise TypeError(f"{cls.__qualname__}.{f.name}: value() takes only plain "
                            "positional fields (no InitVar, init=False or kw_only)")
        if f.name in ("cls", "self"):
            raise TypeError(f"{cls.__qualname__}.{f.name}: a field cannot be named "
                            f"{f.name!r}, a name of the generated __new__")
    # The twin has the value's layout but not its frozen __setattr__, so each
    # store below is CPython's specialized slot store, not a descriptor call.
    twin = type(cls.__name__, (), {"__slots__": cls.__slots__, "__module__": cls.__module__})
    closure: dict[str, Any] = {"_FACTORY": _FACTORY, "_twin": twin}
    params, new = [], [" self = _twin()"]
    for f in fields:
        arg = f.name
        if f.default_factory is not dataclasses.MISSING:
            closure[f"_factory_{f.name}"] = f.default_factory
            params.append(f"{f.name}=_FACTORY")
            arg = f"_factory_{f.name}() if {f.name} is _FACTORY else {f.name}"
        elif f.default is not dataclasses.MISSING:
            closure[f"_dflt_{f.name}"] = f.default
            params.append(f"{f.name}=_dflt_{f.name}")
        else:
            params.append(f.name)
        new.append(f" self.{f.name} = {arg}")
    new.append(" self.__class__ = cls")
    if hasattr(cls, "__post_init__"):
        new.append(" self.__post_init__()")
    functions = {"__new__": ["@staticmethod", f"def __new__(cls, {', '.join(params)}):", *new,
                             " return self"]}
    scope = getattr(sys.modules.get(cls.__module__), "__dict__", {})  # where the source runs
    for name, reads, extra, check, row in [v for v in vars(cls).values() if type(v) is _Codec]:
        if name == "to_dict":
            functions[name] = ["def to_dict(self):", " return {", *[
                f"  {_key(f)!r}: {_encoded('self.' + f.name, eval(f.type, scope))},"
                for f in fields if f.compare and _key(f) is not None], " }"]
            continue
        closure.update(field=field, list_field=list_field, _FLOAT_MAX=_FLOAT_MAX)
        reads = reads or [read(f.name, eval(f.type, scope), REQUIRED if f.default is
                               dataclasses.MISSING else f.default) for f in fields]
        decode = "row_from_dict" if row else "from_dict"
        body = [f" {line}" for r in reads for line in _read_source(*r, closure, decode)]
        names = ", ".join(f.name for f in fields)
        if not row:
            functions[name] = ["@classmethod", f"def from_dict(cls, data{extra}):", *body,
                               f" return cls({names})"]
            continue
        # the same reads twice: a refusal's traceback shows its read in either.
        # from_dict leaves the check to the value's __post_init__, which calls it
        atoms = f"({names if row is True else row},)"
        functions["row_from_dict"] = ["@staticmethod", "def row_from_dict(data):", *body,
                                      *[f" {line}" for line in check.splitlines()],
                                      f" return {atoms}"]
        functions[name] = ["@classmethod", "def from_dict(cls, data):", *body,
                           f" return cls.from_row({atoms})"]
        if row is True:
            functions.update(_row_codecs(fields, [eval(f.type, scope) for f in fields], closure))
    source = "\n".join([f"def __create_fn__({', '.join(closure)}):",
                        *[f" {line}" for lines in functions.values() for line in lines],
                        f" return {', '.join(functions)},"])
    filename = f"<value {cls.__module__}.{cls.__qualname__}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict[str, Any] = {}
    exec(compile(source, filename, "exec"), scope, namespace)
    for name, fn in zip(functions, namespace["__create_fn__"](**closure)):
        getattr(fn, "__func__", fn).__qualname__ = fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls.__new__.__annotations__ = {**{f.name: f.type for f in fields}, "return": None}
    cls.__reduce__ = _reduce
    cls.__init_subclass__ = classmethod(_final)
    if doc is None:  # dataclasses' own docstring: the class's signature
        cls.__doc__ = cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
    return cls


@value
class Label:
    """A canonical lowercase detection label bound to one scenario."""

    name: str
    kind: ScenarioKind

    def __post_init__(self) -> None:
        _check_label(self.name)


def _check_label(name: str) -> str:
    """``name`` if it is a well-formed label name; the rule of :class:`Label`."""
    if not name:
        raise ValidationError("label name must be non-empty")
    if name != name.strip().lower():
        raise ValidationError(f"label name must be a lowercase token: {name!r}")
    return name


# One Label per (name, scenario) of the default vocabulary, built once.
# Fixed at import: decoding never adds to it.
_VOCABULARY_LABELS: Mapping[tuple[str, ScenarioKind], Label] = {
    (name, kind): Label(name, kind)
    for kind, names in DEFAULT_VOCABULARY.items() for name in names
}

# The name of each of those Labels, for a detection row: one str per label.
_VOCABULARY_NAMES: Mapping[tuple[str, ScenarioKind], str] = {
    key: label.name for key, label in _VOCABULARY_LABELS.items()
}

# One frozenset of those Labels per (scenario, *names) for every
# sorted subset of the scenario's vocabulary, the empty one included: 34
# sets, built once. A manifest repeats a handful of truth sets over
# thousands of frames, so a frame shares one instead of holding its own.
# Fixed at import, like _VOCABULARY_LABELS: decoding never adds to it.
_VOCABULARY_TRUTHS: Mapping[tuple[str, ...], frozenset[Label]] = {
    (kind, *names): frozenset([_VOCABULARY_LABELS[name, kind] for name in names])
    for kind, vocabulary in DEFAULT_VOCABULARY.items()
    for size in range(len(vocabulary) + 1)
    for names in itertools.combinations(sorted(vocabulary), size)
}


# Each shared set's labels sorted by name, and their names: derived here
# once, not sorted again for every frame. The five empty sets are equal, so
# they share one entry. Fixed at import, like the sets: a lookup never adds.
_TRUTH_ORDERS: Mapping[frozenset[Label], tuple[tuple[Label, ...], tuple[str, ...]]] = {
    truth: (tuple([_VOCABULARY_LABELS[name, key[0]] for name in key[1:]]), key[1:])
    for key, truth in _VOCABULARY_TRUTHS.items()
}


def truth_order(labels: AbstractSet[Label]) -> tuple[tuple[Label, ...], tuple[str, ...]]:
    """``labels`` sorted by name, and their names in that order: the stored
    tuples for a shared truth set, or a frozenset equal to one; any other
    set is sorted."""
    order = _TRUTH_ORDERS.get(labels) if type(labels) is frozenset else None
    if order is None:
        ordered = tuple(sorted(labels, key=lambda label: label.name))
        order = ordered, tuple([label.name for label in ordered])
    return order


def truth_set(scenario: ScenarioKind, names: Sequence[str]) -> frozenset[Label]:
    """The labels ``names`` of ``scenario`` as a frozenset. Names that are a
    sorted subset of the scenario's vocabulary, each once, give the shared
    set; any other names give a new set of shared or new, validated Labels,
    so a malformed name raises ValidationError as ``Label`` does."""
    truth = _VOCABULARY_TRUTHS.get((scenario, *names))
    if truth is None:
        truth = frozenset([_VOCABULARY_LABELS.get((name, scenario)) or Label(name, scenario)
                           for name in names])
    return truth


@value
class FaceIdentity:
    """An opaque identity token plus the category it resolved to."""

    token: str
    category: FaceCategory


@value
class Detection:
    """One labeled output of a detection backend.

    ``confidence`` is a percentage in [0, 100]. ``identity`` is present only
    for face-recognition labels. ``box`` is a normalized (x, y, w, h)
    rectangle in [0, 1]^4 when a backend chooses to emit one.
    """

    label: Label
    confidence: float
    identity: FaceIdentity | None = None
    box: tuple[float, float, float, float] | None = None

    def __post_init__(self) -> None:
        _check_detection(self.label.kind, self.confidence, self.identity, self.box)

    def to_row(self) -> tuple:
        """The detection row: ``(label, kind, confidence, identity, category,
        box)``, the values of :meth:`to_dict` with the box as a tuple."""
        label, identity = self.label, self.identity
        return (label.name, label.kind._value_, self.confidence,  # not the slower .value
                None if identity is None else identity.token,
                None if identity is None else identity.category._value_,
                None if self.box is None else tuple(self.box))

    @classmethod
    def from_row(cls, row: tuple) -> "Detection":
        name, kind, confidence, identity, category, box = row
        label = _VOCABULARY_LABELS.get((name, kind)) or Label(name, _SCENARIOS[kind])
        if identity is not None:
            identity = FaceIdentity(identity, _CATEGORIES[category])
        return cls(label, confidence, identity, box)

    @staticmethod
    def row_to_dict(row: tuple) -> dict[str, Any]:
        label, kind, confidence, identity, category, box = row
        return {"label": label, "kind": kind, "confidence": confidence, "identity": identity,
                "category": category, "box": None if box is None else list(box)}

    def to_dict(self) -> dict[str, Any]:
        # written out, not row_to_dict(to_row()): the client encodes every detection
        identity = self.identity
        return {
            "label": self.label.name,
            "kind": self.label.kind._value_,  # not the slower enum .value property
            "confidence": self.confidence,
            "identity": None if identity is None else identity.token,
            "category": None if identity is None else identity.category._value_,
            "box": None if self.box is None else list(self.box),
        }

    # A vocabulary label's row holds its shared name; any other name is
    # checked as Label checks it. The category is read for an identity only.
    from_dict = decoder(
        read("identity", str, None),
        read("label", str),
        read("kind", ScenarioKind,
             then="label = _VOCABULARY_NAMES.get((label, kind)) or _check_label(label)"),
        read("confidence", float),
        read("category", FaceCategory, when="identity is not None"),
        read("box", tuple[float, ...], None),
        check="_check_detection(kind, confidence, identity, box)",
        row="label, kind._value_, confidence, identity, "
            "None if identity is None else category._value_, box",
    )


_SCENARIOS: Mapping[str, ScenarioKind] = ScenarioKind._value2member_map_
_CATEGORIES: Mapping[str, FaceCategory] = FaceCategory._value2member_map_


def _check_detection(kind: ScenarioKind, confidence: float, identity: Any,
                     box: Sequence[float] | None) -> None:
    """The rules of :class:`Detection` over its atoms; ``identity`` is its
    token or its :class:`FaceIdentity`, None for none."""
    if not 0.0 <= confidence <= 100.0:
        raise ValidationError(f"confidence out of [0, 100]: {confidence}")
    if identity is not None and kind is not ScenarioKind.FACE_RECOGNITION:
        raise ValidationError("identity is only valid on face-recognition detections")
    if box is not None:
        if len(box) != 4 or any(not 0.0 <= v <= 1.0 for v in box):
            raise ValidationError(f"box must be four values in [0, 1]: {box!r}")


@value
class FrameSample:
    """A unit of captured media.

    No pixels exist in this simulator: ``truth`` carries the frame's latent
    ground truth instead. Only detector backends may read it; the pipeline
    treats frames as opaque payloads.
    """

    frame_id: str
    device_id: str
    captured_at: int
    truth: frozenset[Label]
    scenario: ScenarioKind
    truth_identity: str | None = None

    def stamped(self, device_id: str, captured_at: int) -> "FrameSample":
        """Copy of this frame bound to an emitting device and capture time."""
        return FrameSample(self.frame_id, device_id, captured_at, self.truth,
                           self.scenario, self.truth_identity)

    def to_dict(self) -> dict[str, Any]:
        return {
            "frame_id": self.frame_id,
            "device_id": self.device_id,
            "captured_at": self.captured_at,
            "scenario": self.scenario._value_,
            "truth_labels": list(truth_order(self.truth)[1]),  # a new list each call
            "truth_identity": self.truth_identity,
        }

    from_dict = decoder(
        read("scenario", ScenarioKind),
        read("frame_id", str),
        read("device_id", str),
        read("captured_at", int, 0),
        read("truth_labels", tuple[str, ...], (), then="truth = truth_set(scenario, truth_labels)"),
        read("truth_identity", str, None),
    )


@value
class MotionEvent:
    """A motion trigger emitted by one device."""

    device_id: str
    at: int
    event_id: str

    to_dict = encoder()
    from_dict = decoder()


@value
class AnalyticsRecord:
    """The metadata envelope shipped from the edge to the cloud."""

    event_id: str
    device_id: str
    frame_id: str
    detections: tuple[Detection, ...]
    backend_id: str
    captured_at: int
    detected_at: int
    threshold_used: float

    def __post_init__(self) -> None:
        _check_record(self.captured_at, self.detected_at, self.threshold_used, self.detections)

    to_dict = encoder()
    # The row is the fields in order, each detection as its row: a tuple of
    # atoms, which the collector stops tracking (gc.is_tracked).
    from_dict = decoder(row=True, check=(
        "if detections or detected_at < captured_at:\n"
        " _check_record(captured_at, detected_at, threshold_used, detections)"))


def _check_record(captured_at: int, detected_at: int, threshold_used: float,
                  detections: Sequence[Any]) -> None:
    """The rules of :class:`AnalyticsRecord` over its atoms; ``detections``
    are its :class:`Detection` values or their rows."""
    if detected_at < captured_at:
        raise ValidationError("detected_at must be >= captured_at")
    for detection in detections:
        row = type(detection) is tuple  # a detection row: (label, kind, confidence, ...)
        if (detection[2] if row else detection.confidence) < threshold_used:
            raise ValidationError(f"detection below threshold {threshold_used}: "
                                  f"{Detection.from_row(detection) if row else detection}")


# Where a record row holds what the cloud reads of it (a row is the record's
# fields in order), and where a detection row holds its kind.
ROW_EVENT_ID, ROW_DEVICE_ID, ROW_DETECTIONS, ROW_CAPTURED_AT = map(
    [f.name for f in dataclasses.fields(AnalyticsRecord)].index,
    ("event_id", "device_id", "detections", "captured_at"))
DETECTION_KIND = 1


def format_event_id(device_id: str, sequence: int) -> str:
    """Deterministic event id: ``"<device_id>:<sequence>"``."""
    if sequence < 0:
        raise ValidationError("event sequence must be non-negative")
    return f"{device_id}:{sequence}"


def _decimal(digits: str) -> bool:
    """ASCII digits, no more than ``int()`` converts (4,300 from Python 3.11)."""
    return digits.isascii() and digits.isdigit() and len(digits) <= 4300


def parse_event_id(event_id: str) -> tuple[str, int]:
    """Inverse of :func:`format_event_id`; the sequence is ASCII digits only."""
    device_id, _, seq = event_id.rpartition(":")
    if not device_id or not _decimal(seq):
        raise ValidationError(f"malformed event id: {event_id!r}")
    return device_id, int(seq)


def parse_int(text: str, name: str) -> int:
    """An integer in a query string or header: optional ``-``, then ASCII digits."""
    if type(text) is str and _decimal(text[1:] if text[:1] == "-" else text):
        return int(text)
    raise ProtocolError(f"{name} must be an integer")


class EventIdFactory:
    """Issues event ids: one counter per device, so no sequence is issued
    twice. Not thread-safe: one factory serves one single-threaded run."""

    def __init__(self) -> None:
        self._next: dict[str, int] = {}

    def next_event_id(self, device_id: str) -> str:
        """Issue the device's next sequence: 0, then one above the last."""
        sequence = self._next.get(device_id, 0)
        self._next[device_id] = sequence + 1
        return format_event_id(device_id, sequence)


def apply_confidence_threshold(
    detections: Iterable[Detection], threshold: float
) -> list[Detection]:
    """Detections with confidence >= threshold, order preserved."""
    if not 0.0 <= threshold <= 100.0:
        raise ValidationError(f"threshold out of [0, 100]: {threshold}")
    return [d for d in detections if d.confidence >= threshold]


def canonical_json(obj: Any) -> str:
    """The one JSON encoding used on the wire and in reports.

    Sorted keys and fixed separators make byte-level comparison meaningful.
    NaN and the infinities are refused: they are not JSON (RFC 8259, 6).
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False)


class RowView(abc.Sequence):
    """A read-only, live sequence of rows kept as parallel columns.

    Row ``i`` is ``build(columns[0][i], columns[1][i], ...)``, built by
    position each time it is read. A log kept as lists of ``str`` and ``int``
    and of already shared values holds no object per row that the garbage
    collector walks; the view builds the value type only for its reader.
    A view is equal to another view or to a list with equal rows.
    """

    __slots__ = ("_build", "_columns")

    def __init__(self, build: Callable[..., Any], *columns: Sequence[Any]) -> None:
        self._build = build
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index: Any) -> Any:
        if type(index) is slice:
            return list(map(self._build, *[column[index] for column in self._columns]))
        i = range(len(self))[index]  # a negative index counts from the end; IndexError past it
        return self._build(*[column[i] for column in self._columns])

    def __iter__(self):
        return map(self._build, *self._columns)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RowView, list)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # equal to a list, which is unhashable

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"
