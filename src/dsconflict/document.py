"""JSON documents holding a frame and named BPAs.

The document layout::

    {
      "frame": ["A1", "A2", "A3"],
      "bpas": [
        {"name": "m1", "masses": [{"set": ["A1", "A2"], "mass": 0.9},
                                  {"set": ["A3"], "mass": 0.1}]}
      ]
    }

Parsing is strict: unknown or repeated keys, wrong types, unknown labels,
negative, non-finite or unnormalized masses all raise
:class:`~dsconflict.errors.DocumentError` whose ``where`` attribute points at
the offending element (``bpas[1].masses[0].mass`` and the like).  The label
and mass rules themselves are :mod:`dsconflict.core`'s (``Frame.subset`` and
the BPA validator); this module checks the layout and maps each rule's error
to its position.

Decoding builds no dict, list or string per mass entry: ``json``'s object
hook turns each ``{"set": [labels], "mass": value}`` into a record, the
tuple of a ``bytes`` of label ids and the mass, and each BPA resolves the ids
through one table from id to frame bit.  Every other object stays a dict, and
a record found where it is not expected is reported as the object it was.
Encoding writes each entry straight from label texts encoded once.  On a
dense document (``tests/test_memory.py``) the traced peak of :func:`loads`
is about 0.9 times the text and that of :func:`dumps` about 2 times its
output.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import operator
import os
import stat
from dataclasses import dataclass
from typing import Iterator, KeysView, Mapping

import numpy as np

from .core import Frame, MassFunction, _bpa_from_masks, make_frame
from .core import make_bpa  # noqa: F401  wrapped by perfbench/spans.py when tracing
from .errors import (
    DocumentError,
    EmptySetMassError,
    NegativeMassError,
    UnknownLabelError,
    UnnormalizedMassError,
    ValidationError,
)

__all__ = ["BpaDocument", "loads", "load", "dumps", "dump"]


@dataclass(frozen=True)
class BpaDocument:
    """A frame together with an ordered mapping of named BPAs."""

    frame: Frame
    bpas: Mapping[str, MassFunction]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.bpas)

    def bpa(self, name: str) -> MassFunction:
        try:
            return self.bpas[name]
        except KeyError:
            known = ", ".join(repr(n) for n in self.bpas) or "none"
            raise DocumentError(
                "bpas", f"no BPA named {name!r} (known: {known})"
            ) from None


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise DocumentError(where, message)


class _Repeated(dict):
    """A JSON object whose ``key`` repeats, refused where the layout reads
    it, so that the error names its position."""


class _Ids(dict):
    """Label -> id, one per distinct label in order of first appearance;
    only strings get one (anything else raises :class:`TypeError`)."""

    def __missing__(self, label: object) -> int:
        if type(label) is not str:
            raise TypeError(label)
        self[label] = n = len(self)
        return n


def _share(canon: dict, item: object) -> None:
    """Rewrite the array ``item`` to hold one object per distinct member,
    the first one ``canon`` (one dict per document) saw.  A member that is
    no string may become an equal one (``1`` for ``true``); an array with an
    unhashable member or a record (an object in :func:`_object`'s reading)
    is left as decoded."""
    if type(item) is list and tuple not in map(type, item):
        try:
            item[:] = map(canon.setdefault, item, item)
        except TypeError:
            pass


def _object(ids: _Ids, canon: dict, pairs: list[tuple[str, object]]) -> object:
    """``json``'s hook for every object.

    A mass entry whose pairs are exactly ``set``, an array of strings, then
    ``mass`` becomes a record, the 2-tuple ``(codes, mass)``: ``codes`` holds
    the :class:`_Ids` of the labels in array order, one byte each, so the
    decoded tree holds no ``str``, list or dict per entry.  Any other object
    (other keys or order, a member that is no string, a 257th distinct label)
    is a dict, a :class:`_Repeated` one if a key repeats (``json`` alone keeps
    the last value), whose arrays :func:`_share` rewrites: ``json`` makes a
    new ``str`` for every string that is not a key, and the tree then costs
    a reference, not a string, per label."""
    if len(pairs) == 2 and pairs[0][0] == "set" and pairs[1][0] == "mass":
        (_, members), (_, mass) = pairs
        if type(members) is list:
            try:
                codes = bytes(map(ids.__getitem__, members))
            except (TypeError, ValueError):
                pass
            else:
                if type(mass) is list:  # spares a call on every valid entry
                    _share(canon, mass)
                return codes, mass
    for _, item in pairs:
        _share(canon, item)
    value = dict(pairs)
    if len(value) < len(pairs):
        keys = [k for k, _ in pairs]
        value = _Repeated(value)
        value.key = next(k for k in value if keys.count(k) > 1)
    return value


def _plain(value: object, names: list[str]) -> object:
    """``value`` with every record in it turned back into the object it was
    decoded from, for a message that shows the value."""
    if type(value) is tuple:
        codes, mass = value
        return {"set": [names[c] for c in codes], "mass": _plain(mass, names)}
    # map, not a comprehension, so that each level of nesting costs one
    # frame, as it costs json one level
    if type(value) is list:
        return list(map(_plain, value, itertools.repeat(names)))
    if isinstance(value, dict):
        return dict(zip(value, map(_plain, value.values(), itertools.repeat(names))))
    return value


# The keys of each kind of object, in the order messages list them.
_ROOT_KEYS = {"frame": None, "bpas": None}.keys()
_BPA_KEYS = {"name": None, "masses": None}.keys()
_ENTRY_KEYS = {"set": None, "mass": None}.keys()


def _require_object(value: object, where: str, keys: KeysView[str]) -> dict:
    if type(value) is tuple:  # a record: its keys are all that is checked
        value = dict.fromkeys(_ENTRY_KEYS)
    _require(isinstance(value, dict), where, "expected an object")
    assert isinstance(value, dict)
    if isinstance(value, _Repeated):
        raise DocumentError(where, f"duplicate key {value.key!r}")
    if value.keys() != keys:  # the loops only say what is wrong
        for key in value:
            _require(
                key in keys,
                f"{where}.{key}" if where else str(key),
                f"unknown key (expected {', '.join(repr(k) for k in keys)})",
            )
        for key in keys:
            _require(
                key in value,
                where or key,
                f"missing required key {key!r}",
            )
    return value


def _require_list(value: object, where: str) -> list:
    _require(isinstance(value, list), where, "expected an array")
    assert isinstance(value, list)
    return value


def _require_string(value: object, where: str) -> str:
    _require(
        isinstance(value, str) and bool(value),
        where,
        "expected a non-empty string",
    )
    assert isinstance(value, str)
    return value


def _parse_frame(value: object) -> Frame:
    items = _require_list(value, "frame")
    labels = [
        _require_string(label, f"frame[{i}]") for i, label in enumerate(items)
    ]
    try:
        return make_frame(labels)
    except ValidationError as exc:
        raise DocumentError("frame", str(exc)) from exc


def _parse_bpa(
    frame: Frame, names: list[str], bits: list[int | None], value: object, where: str
) -> tuple[str, MassFunction]:
    """One BPA; a record's label ids ``c`` are those of ``names[c]``, whose
    frame bit is ``bits[c]``, or None for a label outside the frame."""
    entry = _require_object(value, where, _BPA_KEYS)
    name = _require_string(entry["name"], f"{where}.name")
    items = _require_list(entry["masses"], f"{where}.masses")
    # The frame and the core check each entry as it is drawn, so ``spot()``
    # names the entry they reject, or the whole list once all are drawn.  It
    # is formatted only for an error: a valid entry costs no string.
    drawn: int | None = None

    def spot() -> str:
        return f"{where}.masses" if drawn is None else f"{where}.masses[{drawn}]"

    def subset(members: list) -> int:
        try:
            return frame.subset(members)
        except UnknownLabelError as exc:
            for p, label in enumerate(members):  # name a malformed member
                _require_string(label, f"{spot()}.set[{p}]")
            raise DocumentError(f"{spot()}.set", str(exc)) from exc

    def masks_and_masses() -> Iterator[tuple[int, object]]:
        nonlocal drawn
        for drawn, item in enumerate(items):
            if type(item) is tuple:  # a record
                codes, mass = item
                try:  # a label outside the frame has no bit: None | int
                    mask = functools.reduce(
                        operator.or_, map(bits.__getitem__, codes), 0
                    )
                except TypeError:
                    mask = subset([names[c] for c in codes])
            else:
                if not (
                    type(item) is dict
                    and item.keys() == _ENTRY_KEYS
                    and type(item["set"]) is list
                ):  # the checks below only say what is wrong
                    record = _require_object(item, spot(), _ENTRY_KEYS)
                    _require_list(record["set"], f"{spot()}.set")
                mask, mass = subset(item["set"]), item["mass"]
            if type(mass) is not float and type(mass) is not int:
                with contextlib.suppress(RecursionError):  # shown as decoded
                    mass = _plain(mass, names)
            yield mask, mass
        drawn = None

    try:
        return name, _bpa_from_masks(frame, masks_and_masses())
    except NegativeMassError as exc:
        raise DocumentError(f"{spot()}.mass", str(exc)) from exc
    except EmptySetMassError as exc:
        raise DocumentError(f"{spot()}.set", str(exc)) from exc
    except UnnormalizedMassError as exc:
        raise DocumentError(spot(), f"BPA {name!r}: {exc}") from exc


def loads(text: str) -> BpaDocument:
    """Parse a BPA document from JSON text."""
    ids = _Ids()
    try:
        payload = json.loads(
            text, object_pairs_hook=functools.partial(_object, ids, {})
        )
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"line {exc.lineno}, column {exc.colno}", f"invalid JSON: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # over-long integer, deep nesting
        raise DocumentError("", f"invalid JSON: {exc}") from exc
    root = _require_object(payload, "", _ROOT_KEYS)
    frame = _parse_frame(root["frame"])
    names = list(ids)
    bits = list(map(frame._bits.get, names))  # once per document
    entries = _require_list(root["bpas"], "bpas")
    bpas: dict[str, MassFunction] = {}
    for i, value in enumerate(entries):
        name, bpa = _parse_bpa(frame, names, bits, value, f"bpas[{i}]")
        _require(
            name not in bpas,
            f"bpas[{i}].name",
            f"duplicate BPA name {name!r}",
        )
        bpas[name] = bpa
    return BpaDocument(frame=frame, bpas=bpas)


def load(path: str | os.PathLike[str]) -> BpaDocument:
    """Read and parse a BPA document file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError(str(path), f"cannot read document: {exc}") from exc
    except UnicodeDecodeError as exc:  # read() decodes the whole file at once
        raise DocumentError(
            str(path), f"not UTF-8 at byte {exc.start}: {exc.reason}"
        ) from exc
    return loads(text)


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def dumps(document: BpaDocument) -> str:
    """Serialize a document to compact JSON text (full float precision),
    each BPA's focal sets in ascending mask order: the bytes of
    ``json.dumps(payload) + "\\n"`` for the payload of lists and dicts the
    layout describes, written without building it."""
    labels = [json.dumps(label) for label in document.frame.labels]
    sep = ", "  # json.dumps' item separator

    def entry(mask: np.uint64, value: np.float64) -> str:
        # the bits of the mask from the lowest, as bytes 0 and 1; a mass is
        # a finite float, which json encodes by float.__repr__
        bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
        members = sep.join(itertools.compress(labels, bits))
        return f'{{"set": [{members}], "mass": {float.__repr__(value)}}}'

    parts = ['{"frame": [', sep.join(labels), '], "bpas": [']
    for i, (name, bpa) in enumerate(document.bpas.items()):
        parts += [
            sep if i else "",
            f'{{"name": {json.dumps(name)}, "masses": [',
            sep.join(map(entry, *bpa.arrays)),
            "]}",
        ]
    parts.append("]}\n")
    return "".join(parts)


def dump(document: BpaDocument, path: str | os.PathLike[str]) -> None:
    """Write a document file atomically (temp file + rename)."""
    _write_atomic(path, dumps(document))


def _write_atomic(path: str | os.PathLike[str], text: str) -> None:
    """Write ``text`` to ``path`` through a temp file in the same directory
    and a rename, so readers never see a partly written file.  A new file
    gets the mode ``open(path, "w")`` would give it, a replaced file keeps
    its own.  On failure the temp file is removed and the :class:`OSError`
    names ``path`` (``PATH: cannot write: Is a directory``); the cause keeps
    the original error."""
    target = os.fspath(path)
    tmp = os.path.join(
        os.path.dirname(target) or ".", f".dsconflict-{os.urandom(8).hex()}"
    )
    try:
        # O_EXCL never opens a file (or link) that exists; 0o666 less the
        # umask is open()'s mode
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            with contextlib.suppress(FileNotFoundError):  # else a new file
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"{target}: cannot write: {exc.strerror or exc}") from exc
