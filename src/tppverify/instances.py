"""Instance-file and report serialization.

Instance files are JSON documents holding a group descriptor (finite table
or matrix dimension), the element lists X, Y, Z, and the mode.  Exact
rationals serialize as "p/q" strings, Gaussian values as {"re", "im"}, and
series entries as {exponent: coefficient} maps (optionally with an explicit
window).  Reports are canonical JSON: keys sorted, stable field set, and a
timestamp that tests exclude via --no-timestamp.
"""

from __future__ import annotations

import json

from .groups import MatrixGroupOps, TableGroup
from .matrices import Mat
from .scalars import GaussRational
from .series import EpsLaurent
from .tpp import InstanceError, TppInstance

SCHEMA_VERSION = 1


def _scalar_to_json(x):
    if isinstance(x, EpsLaurent):
        return x.to_json()
    if isinstance(x, GaussRational):
        return x.to_json()
    if isinstance(x, int):
        return str(x)
    return GaussRational.from_any(x).to_json()


def _scalar_from_json(obj, mode):
    if mode == "family":
        return EpsLaurent.from_json(obj)
    return GaussRational.from_json(obj)


def _mat_to_json(m: Mat):
    return [[_scalar_to_json(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def _mat_from_json(rows, mode) -> Mat:
    if len({len(row) for row in rows}) > 1:
        raise InstanceError("malformed matrix: ragged rows")
    return Mat.from_rows([[_scalar_from_json(x, mode) for x in row] for row in rows])


def _mats_from_json(obj, key, mode) -> list:
    """The matrices under key; a malformed value there names the key."""
    try:
        return [_mat_from_json(m, mode) for m in obj[key]]
    except InstanceError:
        raise
    except (ArithmeticError, LookupError, TypeError, ValueError, AttributeError) as exc:
        raise InstanceError(
            f"malformed value under {key!r}: {type(exc).__name__}: {exc}") from None


def instance_to_json(inst: TppInstance) -> dict:
    if inst.mode == "table":
        elems = {"x": list(inst.x), "y": list(inst.y), "z": list(inst.z)}
    else:
        elems = {
            "x": [_mat_to_json(m) for m in inst.x],
            "y": [_mat_to_json(m) for m in inst.y],
            "z": [_mat_to_json(m) for m in inst.z],
        }
    return {
        "schema": SCHEMA_VERSION,
        "mode": inst.mode,
        "group": inst.group.to_json(),
        **elems,
    }


def instance_from_json(obj: dict) -> TppInstance:
    if not isinstance(obj, dict):
        raise InstanceError("an instance file holds one JSON object")
    for key in ("x", "y", "z"):
        if key not in obj:
            raise InstanceError(f"instance file is missing {key!r}")
    mode = obj.get("mode")
    gobj = obj.get("group", {})
    if not isinstance(gobj, dict):
        raise InstanceError(f"the instance's 'group' must be a JSON object (got {gobj!r})")
    if gobj.get("type") == "table":
        if mode != "table":
            raise InstanceError("table group requires table mode")
        group = TableGroup.from_json(gobj)
        x, y, z = obj["x"], obj["y"], obj["z"]
    elif gobj.get("type") == "matrix":
        if mode not in ("exact", "family"):
            raise InstanceError("matrix group requires exact or family mode")
        group = MatrixGroupOps.from_json(gobj)
        x, y, z = (_mats_from_json(obj, key, mode) for key in ("x", "y", "z"))
    else:
        raise InstanceError(f"unknown group descriptor {gobj.get('type')!r}")
    return TppInstance(group, x, y, z, mode)


def load_instance(path: str) -> TppInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(json.load(fh))


def save_instance(inst: TppInstance, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(instance_to_json(inst)))


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, default=str) + "\n"
