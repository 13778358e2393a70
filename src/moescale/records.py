"""This module owns the file formats: every file moescale reads passes through it.

A flat JSON object (law parameters, hardware, each latency-profile entry) is
read by :meth:`Record.from_dict` of the frozen dataclass it fills, and a CSV
of numeric columns (runs, predict points, geometry rows) by
:func:`read_csv_rows`. Both take only finite numbers where numbers belong and
name the field, or the file, line and column, that they reject. Each class
keeps its range checks in ``__post_init__``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING, fields

# a Record's module imports ``annotations`` from ``__future__``, so field types are strings
_KINDS = {"float": float, "int": int, "str": str}
_FLOAT_MAX = 1.7976931348623157e308  # sys.float_info.max


class Record:
    """Flat-JSON codec for a frozen dataclass of float, int and str fields."""

    @classmethod
    def _field_table(cls) -> tuple[dict[str, type], frozenset]:
        """Each field's type, and the fields without a default; built once per class."""
        if "_record_fields" not in cls.__dict__:
            kinds = {f.name: _KINDS[f.type] for f in fields(cls)}
            cls._record_fields = kinds, frozenset(f.name for f in fields(cls) if f.default is MISSING)
        return cls._record_fields

    def to_dict(self) -> dict:
        return {name: kind(getattr(self, name)) for name, kind in self._field_table()[0].items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data, where: str = ""):
        """Build from a flat dict; ``where`` prefixes every error message."""
        if not isinstance(data, dict):
            raise ValueError(f"{where}expected a JSON object of {cls.__name__} fields")
        kinds, required = cls._field_table()
        if not data.keys() <= kinds.keys():
            unknown = sorted(data.keys() - kinds.keys())
            raise ValueError(f"{where}unknown keys for {cls.__name__}: {', '.join(unknown)}")
        if not data.keys() >= required:
            missing = [name for name in kinds if name in required and name not in data]
            raise ValueError(f"{where}missing keys for {cls.__name__}: {', '.join(missing)}")
        kwargs = {}
        for name, value in data.items():
            kind = kinds[name]
            if type(value) is not kind or (kind is not str and not -_FLOAT_MAX <= value <= _FLOAT_MAX):
                value = _field_value(value, kind, where + name)
            kwargs[name] = value
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


def _field_value(value, kind: type, name: str):
    """One JSON value checked against its field's type (``from_dict`` takes a
    finite value of the field's own type as it is)."""
    if kind is str or isinstance(value, bool) or not isinstance(value, (int, float)):
        if kind is str and isinstance(value, str):
            return value
        raise ValueError(f"{name} must be {'a string' if kind is str else 'a number'}")
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # nan, inf or an integer past float range
        raise ValueError(f"{name} must be finite")
    if kind is int and value != int(value):
        raise ValueError(f"{name} must be an integer")
    return int(value) if kind is int else float(value)


def read_csv_rows(path, columns) -> list[tuple[float, ...]]:
    """The named columns of each data row of a CSV file as finite floats,
    skipping blank lines; a missing column or a bad cell is a ValueError."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            position = {name: i for i, name in enumerate(next(reader, []))}
            missing = [name for name in columns if name not in position]
            if missing:
                raise ValueError(f"{path}: missing column(s): {', '.join(missing)}")
            index = [position[name] for name in columns]
            for cells in filter(None, reader):  # blank lines read as []
                try:
                    row = tuple([float(cells[i]) for i in index])
                except (IndexError, ValueError):
                    row = ()
                if len(row) != len(index) or not all(map(math.isfinite, row)):
                    raise ValueError(_bad_cell(path, reader.line_num, columns, index, cells))
                rows.append(row)
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return rows


def _bad_cell(path, line: int, columns, index, cells) -> str:
    """The error message for the first bad cell of a row."""
    for name, i in zip(columns, index):
        where = f"{path}: line {line}, column {name!r}"
        if i >= len(cells):
            return f"{where}: the cell is missing"
        try:
            if not math.isfinite(float(cells[i])):
                return f"{where}: {cells[i]!r} is not finite"
        except ValueError:
            return f"{where}: {cells[i]!r} is not a number"


def require_finite(record) -> None:
    """Raise ``<field> must be finite`` for the first field of a dataclass that is not."""
    for f in fields(record):
        if not math.isfinite(getattr(record, f.name)):
            raise ValueError(f"{f.name} must be finite")
