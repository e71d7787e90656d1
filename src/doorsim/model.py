"""Shared domain vocabulary: frames, events, detections, and records.

All types here are immutable values, safe to copy between pipeline stages.
Every value type of the package is declared with :func:`value`: a final,
frozen, slotted dataclass built by one generated ``__new__``. It stores the
fields on a bare instance of a hidden twin class that has the value's
``__slots__`` but not its frozen ``__setattr__``, so each store is a plain
attribute store, which CPython 3.11+ specializes to a slot store
(``STORE_ATTR_SLOT``, PEP 659); then it assigns the value's class to the
instance, as the language allows between heap types of one layout. A run
builds 15.25 values per remote-1dev frame, 12.17 per local-fleet frame and
4.37 per gateway-mix ``/ingest``. Against the older ``__init__``, which made
one member-descriptor call per field (the frozen ``__setattr__`` rules out
the specialized store), building an 8-field ``AnalyticsRecord`` fell from
761 to 503 ns on CPython 3.11, 988 to 593 on 3.12, 906 to 573 on 3.13 and
1,003 to 867 on 3.10; a 3-field ``MotionEvent`` from 331 to 298 ns on
3.11. The ``__class__`` store costs about 65 ns, so a two-field value got
slower: ``ApiResponse`` 264 to 275 ns and ``ProcessOutcome`` 265 to 277 ns
on 3.11, and by up to 9% on 3.10 (timeit, minimum of five
interleaved rounds of the best of 5 x 100,000 positional calls, shared
2-vCPU x86-64 host). The per-frame sites pass their fields positionally: a
class called with keywords packs them into a dict that is unpacked again,
and that record took 1.2-2.2 us by keyword against 0.84-1.5 us
positionally (timeit, CPython 3.10-3.13, 1.3-1.7x in each run). Timestamps
are logical simulation milliseconds, never wall clock.

Every type serializes to a flat JSON object with snake_case field names;
``canonical_json`` is the single encoder used for wire payloads, reports,
and golden files. :func:`field` and :func:`list_field` stay the one
definition of a well-formed wire value. The decoders of the values that
cross the wire once or twice per frame (``Detection``, ``FrameSample`` and
``AnalyticsRecord``) take a value of exactly its field's type (``str``, a
finite ``float``, a non-bool ``int``, an exact ``list`` or ``dict``, an
enum's value string) inline and reach :func:`field` for any other value,
reading the fields in a fixed order, so the first malformed one is named.
Their ``to_dict`` reads an enum member's ``_value_``, not the slower
``value`` property. ``Label`` hashes, and the per-frame lookup tables are
keyed by, the value string, not the member, whose hash is the Python-level
``Enum.__hash__``; both are fixed by ``PYTHONHASHSEED``. A broken domain
invariant is a ValidationError.

A decoded label of the :data:`DEFAULT_VOCABULARY` is one shared instance
per (name, scenario), and a frame's truth whose names are a sorted subset
of its scenario's vocabulary, each once, is one of 34 shared frozensets
(:func:`truth_set`); other names get new values. Each shared set carries
its labels sorted by name and their names (:func:`truth_order`), so no
frame sorts its truth: a remote-1dev frame called ``sorted`` 4 times
before. A loaded manifest frame takes 188 B instead of 463 B (tracemalloc,
CPython 3.11). Every config document, profile registry and motion script
is read through the same getters, with :func:`refuse_unknown_keys`.

A log kept per event as parallel columns is read back through
:class:`RowView`, which builds each row's value, by position, when it is read.
"""

from __future__ import annotations

import dataclasses
import enum
import inspect
import itertools
import json
import sys
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


class ScenarioKind(enum.Enum):
    """The five supported analytics scenarios."""

    FACE_RECOGNITION = "face_recognition"
    UNSAFE_CONTENT = "unsafe_content"
    ANIMAL_DETECTION = "animal_detection"
    NOTEWORTHY_VEHICLE = "noteworthy_vehicle"
    MULTI_OBJECT = "multi_object"


class FaceCategory(enum.Enum):
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


def value_field(data: Mapping[str, Any], name: str, cls: type, /, **fixed: Any) -> Any:
    """Field ``name``, a JSON object read as ``cls``, a value type whose every
    field has an ``int`` or ``float`` default: each key is read as its
    default's type. A field named in ``fixed`` takes that value instead."""
    defaults = {f.name: f.default for f in dataclasses.fields(cls) if f.name not in fixed}
    obj = field(data, name, dict, {})
    refuse_unknown_keys(obj, defaults, name)
    return cls(**{key: field(obj, key, type(default), default)
                  for key, default in defaults.items()}, **fixed)


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


def value(cls: type) -> type:
    """Make ``cls`` an immutable value type: a final, frozen, slotted dataclass.

    ``dataclasses`` generates everything but construction: ``__eq__``,
    ``__hash__``, ``__repr__``, the frozen set and delete, ``replace``,
    ``fields`` and ``__match_args__``. A generated ``__new__`` takes the
    parameters of the dataclass ``__init__`` (names, order, defaults and
    ``default_factory`` fields) and does four things in order:

    - makes a bare instance of a hidden twin class, built once per value
      type with the same ``__slots__`` and no ``__setattr__`` (``twin()``
      runs ``object.__new__`` and ``object.__init__``, and costs about
      40 ns less than calling ``object.__new__(twin)``);
    - stores each field with a plain attribute store;
    - sets ``self.__class__ = cls``;
    - calls ``__post_init__`` if the class has one.

    ``__init__`` is ``object``'s. Against the older ``__init__``, which made
    one slot member-descriptor call per field, a value of three or more
    fields got 9-35% cheaper to build on CPython 3.11, 10-40% on 3.12, 8-37%
    on 3.13, and between 1% dearer and 19% cheaper on 3.10. A two-field
    value pays the ``__class__`` store (about 65 ns) to save two descriptor
    calls: 4-5% dearer on 3.11, up to 5% on 3.12 and 3.13, up to 9% on
    3.10. Per class on 3.11: ``AnalyticsRecord`` 761 to 503 ns,
    ``StreamRecord`` 562 to 364, ``FrameSample`` 542 to 360, ``IngestAck``
    483 to 343, ``Detection`` 590 to 485, ``Notification`` 410 to 311,
    ``MotionEvent`` 331 to 298, ``ApiResponse`` 264 to 275 and
    ``ProcessOutcome`` 265 to 277 (``BENCH_20.json``
    ``value_construction_ns`` has every per-frame class on 3.10-3.13).

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
    params, body = [], []
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
        body.append(f"self.{f.name} = {arg}")
    body.append("self.__class__ = cls")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = "\n".join([f"def __create_fn__({', '.join(closure)}):",
                        f" def __new__(cls, {', '.join(params)}):",
                        "  self = _twin()",
                        *[f"  {line}" for line in body],
                        "  return self",
                        " return __new__"])
    namespace: dict[str, Any] = {}
    exec(source, {"__name__": cls.__module__}, namespace)
    new = namespace["__create_fn__"](**closure)
    new.__qualname__ = f"{cls.__qualname__}.__new__"
    new.__annotations__ = {**{f.name: f.type for f in fields}, "return": None}
    cls.__new__ = staticmethod(new)
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

    def __hash__(self) -> int:
        # Over the kind's value string, whose hash is C-level and fixed by
        # PYTHONHASHSEED; hashing the member calls the Python Enum.__hash__.
        return hash((self.name, self.kind._value_))

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("label name must be non-empty")
        if self.name != self.name.strip().lower():
            raise ValidationError(f"label name must be a lowercase token: {self.name!r}")


# One Label per (name, scenario value) of the default vocabulary, built
# once; keyed by the value string, as Label hashes. Fixed at import:
# decoding never adds to it.
_VOCABULARY_LABELS: Mapping[tuple[str, str], Label] = {
    (name, kind._value_): Label(name, kind)
    for kind, names in DEFAULT_VOCABULARY.items() for name in names
}

# One frozenset of those Labels per (scenario value, *names) for every
# sorted subset of the scenario's vocabulary, the empty one included: 34
# sets, built once. A manifest repeats a handful of truth sets over
# thousands of frames, so a frame shares one instead of holding its own.
# Fixed at import, like _VOCABULARY_LABELS: decoding never adds to it.
_VOCABULARY_TRUTHS: Mapping[tuple[str, ...], frozenset[Label]] = {
    (kind._value_, *names): frozenset([_VOCABULARY_LABELS[name, kind._value_] for name in names])
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
    kind = scenario._value_
    truth = _VOCABULARY_TRUTHS.get((kind, *names))
    if truth is None:
        truth = frozenset([_VOCABULARY_LABELS.get((name, kind)) or Label(name, scenario)
                           for name in names])
    return truth


# The enums' own value -> member tables, for the decoders' inline lookups.
_SCENARIO_BY_VALUE: Mapping[str, ScenarioKind] = ScenarioKind._value2member_map_
_CATEGORY_BY_VALUE: Mapping[str, FaceCategory] = FaceCategory._value2member_map_


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
        if not 0.0 <= self.confidence <= 100.0:
            raise ValidationError(f"confidence out of [0, 100]: {self.confidence}")
        if self.identity is not None and self.label.kind is not ScenarioKind.FACE_RECOGNITION:
            raise ValidationError("identity is only valid on face-recognition detections")
        if self.box is not None:
            if len(self.box) != 4 or any(not 0.0 <= v <= 1.0 for v in self.box):
                raise ValidationError(f"box must be four values in [0, 1]: {self.box!r}")

    def to_dict(self) -> dict[str, Any]:
        identity = self.identity
        return {
            "label": self.label.name,
            "kind": self.label.kind._value_,  # not the slower enum .value property
            "confidence": self.confidence,
            "identity": None if identity is None else identity.token,
            "category": None if identity is None else identity.category._value_,
            "box": None if self.box is None else list(self.box),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Detection":
        # A value of exactly its field's type is taken as it is; any other
        # value goes through field(), which coerces or refuses it. Fields are
        # read in a fixed order, so the first malformed one is the one named.
        token = data.get("identity")
        if token is not None and type(token) is not str:
            token = field(data, "identity", str, None)
        name = data.get("label")
        if type(name) is not str:
            name = field(data, "label", str)
        kind = data.get("kind")
        kind = _SCENARIO_BY_VALUE.get(kind) if type(kind) is str else None
        if kind is None:
            kind = field(data, "kind", ScenarioKind)
        label = _VOCABULARY_LABELS.get((name, kind._value_)) or Label(name, kind)
        confidence = data.get("confidence")
        if type(confidence) is not float or not -_FLOAT_MAX <= confidence <= _FLOAT_MAX:
            confidence = field(data, "confidence", float)
        identity = None
        if token is not None:
            category = data.get("category")
            category = _CATEGORY_BY_VALUE.get(category) if type(category) is str else None
            if category is None:
                category = field(data, "category", FaceCategory)
            identity = FaceIdentity(token, category)
        box = data.get("box")
        if box is not None:
            box = list_field(data, "box", float, None)
        return cls(label, confidence, identity, box)


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

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FrameSample":
        # As Detection.from_dict: exact types inline, field() for the rest.
        scenario = data.get("scenario")
        scenario = _SCENARIO_BY_VALUE.get(scenario) if type(scenario) is str else None
        if scenario is None:
            scenario = field(data, "scenario", ScenarioKind)
        frame_id = data.get("frame_id")
        if type(frame_id) is not str:
            frame_id = field(data, "frame_id", str)
        device_id = data.get("device_id")
        if type(device_id) is not str:
            device_id = field(data, "device_id", str)
        captured_at = data.get("captured_at", 0)
        if type(captured_at) is not int:
            captured_at = field(data, "captured_at", int, 0)
        names = data.get("truth_labels")
        if type(names) is list:
            for name in names:
                if type(name) is not str:
                    names = None
                    break
        if type(names) is not list:  # absent, or not an array of exact strings
            names = list_field(data, "truth_labels", str, ())
        truth = truth_set(scenario, names)
        truth_identity = data.get("truth_identity")
        if truth_identity is not None and type(truth_identity) is not str:
            truth_identity = field(data, "truth_identity", str, None)
        return cls(frame_id, device_id, captured_at, truth, scenario, truth_identity)


@value
class MotionEvent:
    """A motion trigger emitted by one device."""

    device_id: str
    at: int
    event_id: str

    def to_dict(self) -> dict[str, Any]:
        return {"device_id": self.device_id, "at": self.at, "event_id": self.event_id}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MotionEvent":
        return cls(device_id=field(data, "device_id", str), at=field(data, "at", int),
                   event_id=field(data, "event_id", str))


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
        if self.detected_at < self.captured_at:
            raise ValidationError("detected_at must be >= captured_at")
        for detection in self.detections:
            if detection.confidence < self.threshold_used:
                raise ValidationError(
                    f"detection below threshold {self.threshold_used}: {detection}"
                )

    def to_dict(self) -> dict[str, Any]:
        return {
            "event_id": self.event_id,
            "device_id": self.device_id,
            "frame_id": self.frame_id,
            # most records have none: skip the comprehension's call then
            "detections": [d.to_dict() for d in self.detections] if self.detections else [],
            "backend_id": self.backend_id,
            "captured_at": self.captured_at,
            "detected_at": self.detected_at,
            "threshold_used": self.threshold_used,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnalyticsRecord":
        # As Detection.from_dict: exact types inline, field() for the rest.
        event_id = data.get("event_id")
        if type(event_id) is not str:
            event_id = field(data, "event_id", str)
        device_id = data.get("device_id")
        if type(device_id) is not str:
            device_id = field(data, "device_id", str)
        frame_id = data.get("frame_id")
        if type(frame_id) is not str:
            frame_id = field(data, "frame_id", str)
        items = data.get("detections")
        if type(items) is list:
            for item in items:
                if type(item) is not dict:
                    items = None
                    break
        if type(items) is not list:  # absent, or not an array of exact objects
            items = list_field(data, "detections", dict)
        # most records have none: skip the map then
        detections = tuple(map(Detection.from_dict, items)) if items else ()
        backend_id = data.get("backend_id")
        if type(backend_id) is not str:
            backend_id = field(data, "backend_id", str)
        captured_at = data.get("captured_at")
        if type(captured_at) is not int:
            captured_at = field(data, "captured_at", int)
        detected_at = data.get("detected_at")
        if type(detected_at) is not int:
            detected_at = field(data, "detected_at", int)
        threshold = data.get("threshold_used")
        if type(threshold) is not float or not -_FLOAT_MAX <= threshold <= _FLOAT_MAX:
            threshold = field(data, "threshold_used", float)
        return cls(event_id, device_id, frame_id, detections, backend_id,
                   captured_at, detected_at, threshold)


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
