"""Exact JSON/CSV serialization for sets, measures and plans.

Masses, weights and plan parameters round-trip as "p/q" strings; floats
never enter a serialized measure, so load(dump(x)) reproduces x bit for
bit. Report exports (slope fits, curves) are plain CSV/JSON for plotting
and are not meant to round-trip. Files and reports are compact, strict
JSON from one walk (_encode) and json's C encoder: wide ints are tagged
hex, non-finite floats null; older indented files still load.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields, is_dataclass
from fractions import Fraction
from io import StringIO
from operator import itemgetter, methodcaller
from pathlib import Path

from .constructions import AlternatingPlan, SweepPlan
from .exact import (ValidationError, format_rational, parse_rational,
                    snap_to_dyadic, to_fraction)
from .measure import DyadicMeasureTree
from .settree import DyadicSetTree, SymbolicCounts, _ints

FORMAT_VERSION = 1

# ints wider than this are stored as tagged hex strings: symbolic count
# schedules reach 2^(hundreds of thousands), past the interpreter's
# decimal-conversion guard
_BIGINT_BITS = 2048
_BIG = 1 << _BIGINT_BITS


def _encode(value, leaf):
    """value as JSON data, in one walk: ints wider than _BIGINT_BITS are
    tagged hex, non-finite floats null, dict keys text, tuples lists and
    dataclasses their fields; any other value is written as leaf(value)."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        if value.bit_length() > _BIGINT_BITS:
            return {"$bighex": hex(value)}
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): _encode(v, leaf) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        if (set(map(type, value)) == {int}  # flat int lists skip the walk
                and -_BIG < min(value) and max(value) < _BIG):
            return value
        return [_encode(v, leaf) for v in value]
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _encode(getattr(value, f.name), leaf)
                for f in fields(value)}
    return _encode(leaf(value), leaf)


def _file_leaf(value):
    """Files tag a rational so that loading gives it back; any other value
    JSON cannot hold is saved as its text."""
    if isinstance(value, Fraction):
        return {"$rational": format_rational(value)}
    return str(value)


def _report_leaf(value):
    if isinstance(value, Fraction):
        if max(value.numerator.bit_length(),
               value.denominator.bit_length()) > _BIGINT_BITS:
            return {"$bighex": [hex(value.numerator), hex(value.denominator)]}
        return format_rational(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return str(value)


def _decode(obj: dict):
    """json object_hook: the one-key objects {"$bighex": hex} and
    {"$rational": "p/q"} are an int and a Fraction."""
    if len(obj) == 1:
        if "$bighex" in obj:
            return int(obj["$bighex"], 16)
        if "$rational" in obj:
            text = obj["$rational"]
            if not isinstance(text, str):
                raise ValidationError(f"bad rational literal {text!r}")
            return parse_rational(text)
    return obj


def _file_meta(data: dict) -> dict:
    """A payload's meta: a JSON object, {} when missing or null."""
    meta = {} if data.get("meta") is None else data["meta"]
    if not isinstance(meta, dict):
        raise ValidationError("meta must be a JSON object")
    return dict(meta)


# ---------------------------------------------------------------------------
# sets


def set_to_dict(tree: DyadicSetTree) -> dict:
    return {
        "type": "set",
        "version": FORMAT_VERSION,
        "d": tree.d,
        "max_depth": tree.max_depth,
        "leaves": list(tree.levels[-1]),
        "symbolic": tree.symbolic.to_dict() if tree.symbolic else None,
        "meta": dict(tree.meta),
    }


def _check_version(data: dict) -> None:
    version = data.get("version")
    if version != FORMAT_VERSION or type(version) is not int:
        raise ValidationError(f"unsupported format version {version!r} "
                              f"(expected {FORMAT_VERSION})")


def set_from_dict(data: dict) -> DyadicSetTree:
    if data.get("type") != "set":
        raise ValidationError("not a serialized set")
    _check_version(data)
    symbolic = (SymbolicCounts.from_dict(data["symbolic"])
                if data.get("symbolic") else None)
    d, depth = _ints([data["d"], data["max_depth"]])
    meta = _file_meta(data)
    if "leaves" in data:
        return DyadicSetTree.from_leaves(d, depth, _ints(list(data["leaves"])),
                                         symbolic, meta)
    levels = [_ints(list(lvl)) for lvl in data["levels"]]
    tree = DyadicSetTree(d, depth, levels, symbolic, meta)
    tree.validate()
    return tree


# ---------------------------------------------------------------------------
# measures


def measure_to_dict(mu: DyadicMeasureTree) -> dict:
    # each row's mass in lowest terms by one gcd, as format_rational writes
    masses = [[[k, f"{m // (g := math.gcd(m, den))}/{den // g}"]
               for k, m in zip(keys, nums)]
              for keys, (nums, den) in zip(mu.support.levels, mu.tables)]
    atoms = None
    if mu.atoms is not None:
        atoms = [[[format_rational(c) for c in p], format_rational(w)]
                 for p, w in mu.atoms]
    return {
        "type": "measure",
        "version": FORMAT_VERSION,
        "support": set_to_dict(mu.support),
        "leaf_model": mu.leaf_model,
        # always tables; the field keeps the files readable by older readers
        "mass_rule": "explicit",
        "masses": masses,
        "atoms": atoms,
        "meta": dict(mu.meta),
    }


def measure_from_dict(data: dict) -> DyadicMeasureTree:
    if data.get("type") != "measure":
        raise ValidationError("not a serialized measure")
    _check_version(data)
    support = set_from_dict(data["support"])
    rule, tables = data.get("mass_rule"), data.get("masses")
    if rule == "explicit" and tables is not None:
        rows = []
        for level in tables:  # (keys, numerators, denominators) per level
            rows.append(([k for k, _ in level],
                         *_ratios([m for _, m in level])))
        _ints([k for ks, _, _ in rows for k in ks])
        for n, (ks, _, _) in enumerate(rows):
            if len(set(ks)) < len(ks):
                seen = set()
                k = next(k for k in ks if k in seen or seen.add(k))
                raise ValidationError(f"level {n}: cube {k} listed twice")
    elif rule == "equal_split" and tables is None:
        # files written before every measure carried tables
        rows = [(keys, nums, [den] * len(nums)) for keys, (nums, den) in zip(
            support.levels, DyadicMeasureTree.uniform_on_set(support).tables)]
    else:
        raise ValidationError(
            f"unsupported mass rule {rule!r} or missing mass tables")
    atoms = None
    if data.get("atoms") is not None:
        atoms = [(tuple(parse_rational(c) for c in p), parse_rational(w))
                 for p, w in data["atoms"]]
    return DyadicMeasureTree._from_rows(support, rows, data["leaf_model"],
                                        atoms, _file_meta(data))


def _ratios(texts: list) -> tuple[list[int], list[int]]:
    """Mass texts as (numerators, denominators > 0) on ints: "p/q" rows in
    C-level passes, and if any row is not "p/q" with q > 0, every row
    through parse_rational (its value, or its error)."""
    try:
        parts = list(map(methodcaller("partition", "/"), texts))
        ps = list(map(int, map(itemgetter(0), parts)))
        qs = list(map(int, map(itemgetter(2), parts)))
        if min(qs, default=1) > 0:
            return ps, qs
    except (AttributeError, TypeError, ValueError):
        pass
    fs = list(map(parse_rational, texts))
    return [f.numerator for f in fs], [f.denominator for f in fs]


# ---------------------------------------------------------------------------
# construction plans


_PLAN_TYPES = {AlternatingPlan: "alternating_plan", SweepPlan: "sweep_plan"}


def _plan_text(value):
    return format_rational(value) if isinstance(value, Fraction) else value


def plan_to_dict(plan) -> dict:
    """A plan's fields, in their order, with rationals as "p/q"."""
    if type(plan) not in _PLAN_TYPES:
        raise ValidationError(
            f"not a serializable plan: {type(plan).__name__}")
    data = {"type": _PLAN_TYPES[type(plan)], "version": FORMAT_VERSION}
    for f in fields(plan):
        value = getattr(plan, f.name)
        data[f.name] = (list(map(_plan_text, value))
                        if isinstance(value, tuple) else _plan_text(value))
    return data


def plan_from_dict(data: dict):
    kind = data.get("type")
    if kind not in _PLAN_TYPES.values():
        raise ValidationError("not a serialized plan")
    _check_version(data)
    if kind == "alternating_plan":
        return AlternatingPlan(
            parse_rational(data["dim_low"]), parse_rational(data["dim_high"]),
            tuple(parse_rational(e) for e in data["slack"]),
            tuple(_ints(data["breakpoints"])), tuple(_ints(data["doubled"])),
            *_ints([data["level_budget"]]))
    return SweepPlan(
        parse_rational(data["dim_low"]), parse_rational(data["dim_high"]),
        tuple(_ints(data["n_seq"])), tuple(_ints(data["big_n_seq"])),
        tuple(_ints(data["counts_at_stage"])), *_ints([data["level_budget"]]))


# ---------------------------------------------------------------------------
# files


_LOADERS = {"set": set_from_dict, "measure": measure_from_dict,
            **dict.fromkeys(_PLAN_TYPES.values(), plan_from_dict)}


def save_json(obj, path) -> None:
    if isinstance(obj, DyadicSetTree):
        data = _encode(set_to_dict(obj), _file_leaf)
    elif isinstance(obj, DyadicMeasureTree):
        # masses and atoms are strings, mass keys below 2^62 (_check_dims)
        data = measure_to_dict(obj)
        data.update(support=_encode(data["support"], _file_leaf),
                    meta=_encode(data["meta"], _file_leaf))
    elif type(obj) in _PLAN_TYPES:
        data = _encode(plan_to_dict(obj), _file_leaf)
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__}")
    _write(path, json.dumps(data, separators=(",", ":")) + "\n")


def _write(path, text: str) -> None:
    """Write text to path as it is (no newline translation); a path that
    cannot be written is a ValidationError, as load_json makes one that
    cannot be read."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def load_json(path):
    """Load a saved set, measure or plan. Anything that is not a well-formed
    payload of this format version raises ValidationError."""
    try:
        data = json.loads(Path(path).read_text(), object_hook=_decode)
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(
            f"{path}: expected a JSON object, got {type(data).__name__}")
    kind = data.get("type")
    loader = _LOADERS.get(kind) if isinstance(kind, str) else None
    if loader is None:
        raise ValidationError(f"unknown payload type {kind!r}")
    try:
        return loader(data)
    except ValidationError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError,
            ArithmeticError) as exc:
        raise ValidationError(
            f"malformed {kind} payload in {path}: {exc!r}") from exc


# ---------------------------------------------------------------------------
# CSV


def points_from_csv(path, d: int, depth: int) -> DyadicSetTree:
    """Build a set from a CSV of points, one row per point with d numeric
    columns (floats or p/q). Coordinates snap to the depth-level dyadic
    grid. Blank lines, '#' comments and a non-numeric header row are
    skipped."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    rows: list[tuple[Fraction, ...]] = []
    reader = csv.reader(StringIO(text, newline=""))
    for lineno, row in enumerate(reader, start=1):
        cells = [c.strip() for c in row if c.strip()]
        if not cells or cells[0].startswith("#"):
            continue
        try:
            vals = [_parse_coord(c) for c in cells]
        except ValidationError:
            if lineno == 1:
                continue  # header
            raise
        if len(vals) != d:
            raise ValidationError(
                f"line {lineno}: expected {d} columns, got {len(vals)}")
        rows.append(tuple(snap_to_dyadic(v, depth) for v in vals))
    if not rows:
        raise ValidationError("no points in CSV")
    return DyadicSetTree.from_points(rows, d, depth)


def _parse_coord(cell: str) -> Fraction:
    if "/" in cell:
        return parse_rational(cell)
    try:
        return to_fraction(float(cell))
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"bad coordinate {cell!r}") from exc


def curve_to_csv(samples, path, header=("scale", "value", "err")) -> None:
    """Write (scale, value[, err]) rows; accepts mean-square curve samples
    (dicts) or plain tuples."""
    buf = StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for s in samples:
        if isinstance(s, dict):
            w.writerow([s.get("R", s.get("scale")), s["value"],
                        s.get("err", "")])
        else:
            w.writerow(list(s))
    _write(path, buf.getvalue())


def report_to_json(report, path=None):
    """Dump a report dataclass or dict as JSON (dataclasses in it become
    their fields, rationals p/q strings). Returns the JSON string; writes
    it when a path is given."""
    if not (isinstance(report, dict) or is_dataclass(report)
            and not isinstance(report, type)):
        raise ValidationError(f"cannot export {type(report).__name__}")
    text = json.dumps(_encode(report, _report_leaf), separators=(",", ":"))
    if path is not None:
        _write(path, text + "\n")
    return text
