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
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Iterator, Mapping

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


def _object(pairs: list[tuple[str, object]]) -> dict:
    """``json``'s hook for every object: a dict, a :class:`_Repeated` one if
    a key repeats (``json`` alone keeps the last value)."""
    value = dict(pairs)
    if len(value) < len(pairs):
        keys = [k for k, _ in pairs]
        value = _Repeated(value)
        value.key = next(k for k in value if keys.count(k) > 1)
    return value


def _require_object(value: object, where: str, keys: tuple[str, ...]) -> dict:
    _require(isinstance(value, dict), where, "expected an object")
    assert isinstance(value, dict)
    if isinstance(value, _Repeated):
        raise DocumentError(where, f"duplicate key {value.key!r}")
    if value.keys() != set(keys):  # the loops only say what is wrong
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
    entry = _require_object(value, where, ("name", "masses"))
    name = _require_string(entry["name"], f"{where}.name")
    items = _require_list(entry["masses"], f"{where}.masses")
    # The frame and the core check each entry as it is drawn, so ``spot``
    # names the entry they reject, or the whole list once all are drawn.
    spot = f"{where}.masses"

    def masks_and_masses() -> Iterator[tuple[int, object]]:
        nonlocal spot
        for j, item in enumerate(items):
            spot = f"{where}.masses[{j}]"
            record = _require_object(item, spot, ("set", "mass"))
            members = _require_list(record["set"], f"{spot}.set")
            try:
                mask = frame.subset(members)
            except UnknownLabelError as exc:
                for p, label in enumerate(members):  # name a malformed member
                    _require_string(label, f"{spot}.set[{p}]")
                raise DocumentError(f"{spot}.set", str(exc)) from exc
            yield mask, record["mass"]
        spot = f"{where}.masses"

    try:
        return name, _bpa_from_masks(frame, masks_and_masses())
    except NegativeMassError as exc:
        raise DocumentError(f"{spot}.mass", str(exc)) from exc
    except EmptySetMassError as exc:
        raise DocumentError(f"{spot}.set", str(exc)) from exc
    except UnnormalizedMassError as exc:
        raise DocumentError(spot, f"BPA {name!r}: {exc}") from exc


def loads(text: str) -> BpaDocument:
    """Parse a BPA document from JSON text."""
    try:
        payload = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"line {exc.lineno}, column {exc.colno}", f"invalid JSON: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # over-long integer, deep nesting
        raise DocumentError("", f"invalid JSON: {exc}") from exc
    root = _require_object(payload, "", ("frame", "bpas"))
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
    and a rename, so readers never see a partly written file.  On failure
    the temp file is removed and the :class:`OSError` names ``path``
    (``PATH: cannot write: Is a directory``); the cause keeps the original
    error."""
    target = os.fspath(path)
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(target) or ".", prefix=".dsconflict-"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"{target}: cannot write: {exc.strerror or exc}") from exc
