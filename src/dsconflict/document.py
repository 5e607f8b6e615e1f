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
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import stat
from dataclasses import dataclass
from typing import Iterator, KeysView, Mapping

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


def _object(canon: dict, pairs: list[tuple[str, object]]) -> dict:
    """``json``'s hook for every object: a dict, a :class:`_Repeated` one if
    a key repeats (``json`` alone keeps the last value).

    ``json`` makes a new ``str`` for every string that is not a key, so each
    array among the values is rewritten to hold one object per distinct
    member, the first one ``canon`` (one dict per document) saw: the decoded
    tree then costs a reference, not a string, per label.  A member that is
    no string may become an equal one (``1`` for ``true``), and an array
    with an unhashable member is left as decoded: the layout checks refuse
    all of these alike, without naming the value."""
    for _, item in pairs:
        if type(item) is list:
            try:
                item[:] = map(canon.setdefault, item, item)
            except TypeError:
                pass
    value = dict(pairs)
    if len(value) < len(pairs):
        keys = [k for k, _ in pairs]
        value = _Repeated(value)
        value.key = next(k for k in value if keys.count(k) > 1)
    return value


# The keys of each kind of object, in the order messages list them.
_ROOT_KEYS = {"frame": None, "bpas": None}.keys()
_BPA_KEYS = {"name": None, "masses": None}.keys()
_ENTRY_KEYS = {"set": None, "mass": None}.keys()


def _require_object(value: object, where: str, keys: KeysView[str]) -> dict:
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


def _parse_bpa(frame: Frame, value: object, where: str) -> tuple[str, MassFunction]:
    entry = _require_object(value, where, _BPA_KEYS)
    name = _require_string(entry["name"], f"{where}.name")
    items = _require_list(entry["masses"], f"{where}.masses")
    # The frame and the core check each entry as it is drawn, so ``spot()``
    # names the entry they reject, or the whole list once all are drawn.  It
    # is formatted only for an error: a valid entry costs no string.
    drawn: int | None = None

    def spot() -> str:
        return f"{where}.masses" if drawn is None else f"{where}.masses[{drawn}]"

    def masks_and_masses() -> Iterator[tuple[int, object]]:
        nonlocal drawn
        for drawn, item in enumerate(items):
            if not (
                type(item) is dict
                and item.keys() == _ENTRY_KEYS
                and type(item["set"]) is list
            ):  # the checks below only say what is wrong
                record = _require_object(item, spot(), _ENTRY_KEYS)
                _require_list(record["set"], f"{spot()}.set")
            members = item["set"]
            try:
                mask = frame.subset(members)
            except UnknownLabelError as exc:
                for p, label in enumerate(members):  # name a malformed member
                    _require_string(label, f"{spot()}.set[{p}]")
                raise DocumentError(f"{spot()}.set", str(exc)) from exc
            yield mask, item["mass"]
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
    try:
        payload = json.loads(
            text, object_pairs_hook=functools.partial(_object, {})
        )
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"line {exc.lineno}, column {exc.colno}", f"invalid JSON: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # over-long integer, deep nesting
        raise DocumentError("", f"invalid JSON: {exc}") from exc
    root = _require_object(payload, "", _ROOT_KEYS)
    frame = _parse_frame(root["frame"])
    entries = _require_list(root["bpas"], "bpas")
    bpas: dict[str, MassFunction] = {}
    for i, value in enumerate(entries):
        name, bpa = _parse_bpa(frame, value, f"bpas[{i}]")
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


def dumps(document: BpaDocument) -> str:
    """Serialize a document to compact JSON text (full float precision),
    each BPA's focal sets in ascending mask order."""
    payload = {
        "frame": list(document.frame.labels),
        "bpas": [
            {
                "name": name,
                "masses": [
                    {"set": list(document.frame.members(mask)), "mass": value}
                    for mask, value in zip(*(a.tolist() for a in bpa.arrays))
                ],
            }
            for name, bpa in document.bpas.items()
        ],
    }
    return json.dumps(payload) + "\n"


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
