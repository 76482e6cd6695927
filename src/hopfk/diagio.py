"""JSON formats for groups, homomorphisms, algebras, and diagrams.

The key names are fixed in docs/formats.md.  All scalar entries are the
text form accepted by ``parse_scalar``.  Group elements appear in files
by name; indices are resolved at load time.
"""

from __future__ import annotations

import itertools
import json
import math

from .groups import (
    GroupHom,
    GroupTable,
    cyclic_group,
    group_from_table,
    mod_hom,
    sign_hom_s3,
    symmetric_group,
    trivial_hom,
    validate_hom,
)
from .heegaard import Crossing, Diagram
from .hopf import (
    LAYOUT,
    HopfPiCoalgebra,
    StructureError,
    build_function_hopf,
    build_kac_paljutkin,
    check_shapes,
    component_key,
    structure_dims,
    structure_maps,
    structure_tensor,
)
from .scalars import Scalar, ScalarParseError, format_scalar, parse_scalar
from .tensors import GradedTensor

# Largest group a name or a table may describe.  Building a group takes
# time cubic in its order (the associativity check) and every algebra over
# it has a component per element, so larger inputs are refused before
# anything is built.  S5 (order 120) is the largest symmetric group allowed.
MAX_GROUP_ORDER = 120


class DataFormatError(ValueError):
    """Input file is malformed (missing keys, bad scalars, bad indices)."""


class UnknownNameError(DataFormatError):
    """A name is not one of the builtin groups, homomorphisms or algebras."""


def _int(node, field) -> int:
    """``node`` if it is a JSON integer; floats and booleans are refused."""
    if isinstance(node, int) and not isinstance(node, bool):
        return node
    raise DataFormatError(f"{field} must be an integer, got {node!r}")


def _ints(node, field) -> tuple:
    """A JSON list of integers as a tuple."""
    if not isinstance(node, list):
        raise DataFormatError(f"{field} must be a list of integers, got {node!r}")
    return tuple(_int(v, f"{field} entry") for v in node)


def _parse_scalar(node, where) -> Scalar:
    """The entry a file gives, as a string or an integer."""
    if isinstance(node, str):
        try:
            return parse_scalar(node)
        except ScalarParseError as exc:
            raise DataFormatError(f"bad scalar in {where}: {exc}") from exc
    if isinstance(node, int) and not isinstance(node, bool):
        return Scalar(node)
    raise DataFormatError(f"bad scalar entry in {where}: {node!r}")


def _parse_tensor(node, pi, dim, field, key, where) -> GradedTensor:
    """A structure map from its dense nested-array form; the nesting must
    match the leg dimensions that ``dim`` prescribes."""
    dims = structure_dims(pi, dim, field, key)
    data = {}

    def walk(node, index):
        if len(index) == len(dims):
            data[index] = _parse_scalar(node, where)
            return
        if not isinstance(node, list) or len(node) != dims[len(index)]:
            raise DataFormatError(f"{where} shape mismatch")
        for i, child in enumerate(node):
            walk(child, index + (i,))

    walk(node, ())
    return structure_tensor(pi, dim, field, key, data)


def _dump_tensor(t: GradedTensor):
    """The dense nested-array form of a tensor, zeros included."""
    def nest(index):
        if len(index) == len(t.dims):
            return format_scalar(t.entry(index))
        return [nest(index + (i,)) for i in range(t.dims[len(index)])]

    return nest(())


def _digits(text):
    """The value of ``text`` if it is a string of ASCII digits, else None.  A value above
    ``MAX_GROUP_ORDER`` comes back as ``MAX_GROUP_ORDER + 1``; int() reads at most four digits."""
    if not (isinstance(text, str) and text.isdigit() and text.isascii()):
        return None
    return min(int(text.lstrip("0")[:4] or "0"), MAX_GROUP_ORDER + 1)


def _check_order(name, order):
    if order > MAX_GROUP_ORDER:
        raise DataFormatError(
            f"group {name!r} has more than {MAX_GROUP_ORDER} elements"
        )


# -- groups -------------------------------------------------------------------


def parse_group(data) -> GroupTable:
    """Accepts a builtin name ("z4", "s3") or a {"names","mul"} table."""
    if isinstance(data, str):
        return builtin_group(data)
    if not isinstance(data, dict):
        raise DataFormatError("group must be a name or an object")
    try:
        names, mul = data["names"], data["mul"]
    except KeyError as exc:
        raise DataFormatError(f"group object missing key {exc}") from exc
    if not isinstance(names, list) or not isinstance(mul, list):
        raise DataFormatError("group names and mul must be lists")
    _check_order("table", len(names))
    # The algebra codec joins names with "|" and finds elements by name.
    seen = set()
    for name in names:
        if not isinstance(name, str):
            raise DataFormatError(f"group element name {name!r} is not a string")
        if "|" in name:
            raise DataFormatError(f"group element name {name!r} contains '|'")
        if name in seen:
            raise DataFormatError(f"group element name {name!r} appears twice")
        seen.add(name)
    mul = [_ints(row, "group mul row") for row in mul]
    try:
        return group_from_table(names, mul)
    except ValueError as exc:
        raise DataFormatError(f"invalid group table: {exc}") from exc


def builtin_group(name: str) -> GroupTable:
    key = name.strip().lower()
    cyclic, symmetric = (cyclic_group, "order", lambda n: n), (symmetric_group, "degree", math.factorial)
    for prefix, (build, parameter, order) in (
        ("z", cyclic), ("cyclic-", cyclic), ("s", symmetric), ("symmetric-", symmetric)
    ):
        n = _digits(key[len(prefix):]) if key.startswith(prefix) else None
        if n is None:
            continue
        if n < 1:
            raise DataFormatError(f"group {name!r} needs {parameter} >= 1")
        _check_order(name, order(n))
        return build(n)
    raise UnknownNameError(f"unknown group name {name!r}")


def element_index(pi: GroupTable, label) -> int:
    """The element a file names: by its name, else by its index (a JSON
    integer, or a string of ASCII digits that no name matches)."""
    if isinstance(label, int) and not isinstance(label, bool):
        if 0 <= label < pi.order:
            return label
        raise DataFormatError(f"group element index {label} out of range")
    if label in pi.names:
        return pi.names.index(label)
    index = _digits(label)
    if index is not None and index < pi.order:
        return index
    raise DataFormatError(f"unknown group element {label!r}")


# -- homomorphisms --------------------------------------------------------------


def builtin_hom(name: str) -> GroupHom:
    key = name.strip().lower()
    if key in ("sign-s3", "sign"):
        return sign_hom_s3()
    if key.startswith("mod") and "-z" in key:
        m, n = map(_digits, key[3:].split("-z", 1))
        if m is not None and n is not None:
            _check_order(name, n)
            try:
                return mod_hom(n, m)
            except ValueError as exc:
                raise DataFormatError(str(exc)) from exc
    if key.startswith("trivial-"):
        return trivial_hom(builtin_group(key[len("trivial-"):]))
    raise UnknownNameError(f"unknown homomorphism name {name!r}")


def parse_hom(data) -> GroupHom:
    if isinstance(data, str):
        return builtin_hom(data)
    try:
        source = parse_group(data["source"])
        target = parse_group(data["target"])
        image = data["image"]
        if not isinstance(image, list):
            raise DataFormatError(f"image must be a list of group elements, got {image!r}")
        image = tuple(element_index(target, v) for v in image)
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"bad homomorphism object: {exc}") from exc
    hom = GroupHom(source, target, image)
    report = validate_hom(hom)
    if not report.passed:
        raise DataFormatError(
            "not a homomorphism: " + "; ".join(report.violations)
        )
    return hom


# -- algebras -------------------------------------------------------------------


def builtin_algebra(name: str) -> HopfPiCoalgebra:
    key = name.strip().lower()
    if key in ("kac-paljutkin", "kp"):
        return build_kac_paljutkin()
    if key.startswith("fun-"):
        return build_function_hopf(builtin_hom(key[len("fun-"):]))
    raise UnknownNameError(f"unknown algebra name {name!r}")


def _json_path(pi: GroupTable, field, key) -> tuple:
    """The JSON keys that lead to the component at ``key`` in ``field``'s block."""
    elements = () if key is None else key if isinstance(key, tuple) else (key,)
    names = iter([pi.names[x] for x in elements])
    return tuple("|".join(itertools.islice(names, width)) for width in LAYOUT[field][1])


def _components(node, pi, widths, where, elements=()):
    """(key, node, where) for every component of a block nested as
    ``widths``, the field's ``LAYOUT`` entry, says; each label is resolved
    to its elements on the way down."""
    if not widths:
        yield component_key(elements), node, where
        return
    if not isinstance(node, dict):
        raise DataFormatError(f"{where} must be an object keyed by group elements")
    seen = {}
    for label, child in node.items():
        names = label.split("|") if widths[0] > 1 else [label]
        if len(names) != widths[0]:
            raise DataFormatError(f"{where} key {label!r} is not {widths[0]} names joined by '|'")
        resolved = tuple(element_index(pi, name) for name in names)
        if resolved in seen:
            raise DataFormatError(
                f"{where} keys {seen[resolved]!r} and {label!r} name the same component")
        seen[resolved] = label
        yield from _components(child, pi, widths[1:], f"{where}[{label}]", elements + resolved)


def parse_algebra(data) -> HopfPiCoalgebra:
    if isinstance(data, str):
        return builtin_algebra(data)
    try:
        pi = parse_group(data["group"])
        dim = _ints(data["dim"], "dim")
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"bad algebra object: {exc}") from exc
    if min(dim, default=0) < 0:
        raise DataFormatError(f"dim entry must be non-negative, got {min(dim)}")
    try:
        maps = {}
        for field in LAYOUT:
            if field == "crossing" and field not in data:
                continue
            components = _components(data[field], pi, LAYOUT[field][1], field)
            maps[field] = {key: _parse_tensor(node, pi, dim, field, key, where)
                           for key, node, where in components}
        maps["counit"] = maps["counit"][None]  # one component, not a block
        H = HopfPiCoalgebra(pi, dim, **maps)
        check_shapes(H)
    except StructureError as exc:
        raise DataFormatError(str(exc)) from exc
    except (KeyError, TypeError, AttributeError) as exc:
        raise DataFormatError(f"bad algebra object: {exc}") from exc
    return H


def dump_algebra(H: HopfPiCoalgebra) -> dict:
    pi = H.pi
    data = {
        "group": {"names": list(pi.names), "mul": [list(r) for r in pi.mul]},
        "dim": list(H.dim),
    }
    for field, key, t in structure_maps(H):
        *path, last = (field, *_json_path(pi, field, key))
        block = data
        for name in path:
            block = block.setdefault(name, {})
        block[last] = _dump_tensor(t)
    return data


# -- diagrams --------------------------------------------------------------------


def parse_diagram(data, pi: GroupTable = None, ignore_colors=False) -> Diagram:
    try:
        genus = _int(data["genus"], "genus")
        crossings = tuple(
            Crossing(*(_int(c[key], f"crossing {key}") for key in ("id", "upper", "lower", "sign")))
            for c in data["crossings"]
        )
        upper = tuple(_ints(o, "upper_orders") for o in data["upper_orders"])
        lower = tuple(_ints(o, "lower_orders") for o in data["lower_orders"])
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"bad diagram object: {exc}") from exc
    colors = None
    if not ignore_colors and data.get("colors") is not None:
        if pi is None:
            raise DataFormatError(
                "diagram has colors but no group was provided to resolve them"
            )
        colors = data["colors"]
        if not isinstance(colors, list):
            raise DataFormatError(f"colors must be a list of group elements, got {colors!r}")
        colors = tuple(element_index(pi, v) for v in colors)
    return Diagram(genus, crossings, upper, lower, colors, pi if colors is not None else None)


def dump_diagram(D: Diagram) -> dict:
    data = {
        "genus": D.genus,
        "crossings": [
            {"id": c.id, "upper": c.upper, "lower": c.lower, "sign": c.sign}
            for c in D.crossings
        ],
        "upper_orders": [list(o) for o in D.upper_orders],
        "lower_orders": [list(o) for o in D.lower_orders],
    }
    if D.colored:
        data["colors"] = [D.pi.names[a] for a in D.colors]
    return data


def result_record(D: Diagram, Z, K) -> dict:
    return {
        "Z": format_scalar(Z),
        "K": format_scalar(K),
        "genus": D.genus,
        "colors": [D.pi.names[a] for a in D.colors] if D.colored else None,
    }


# -- file helpers -----------------------------------------------------------------


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"{path} is not valid JSON: {exc}") from exc


def _load(source: str, builtin, parse):
    """``builtin(source)`` if it names a builtin, else ``parse`` of the
    JSON file at path ``source``."""
    try:
        return builtin(source)
    except UnknownNameError:
        pass
    return parse(load_json(source))


def load_algebra(source: str) -> HopfPiCoalgebra:
    """A builtin algebra name, or a path to an algebra JSON file."""
    return _load(source, builtin_algebra, parse_algebra)


def load_hom(source: str) -> GroupHom:
    return _load(source, builtin_hom, parse_hom)


def load_group(source: str) -> GroupTable:
    return _load(source, builtin_group, parse_group)


def load_diagram(path: str, pi: GroupTable = None, ignore_colors=False) -> Diagram:
    return parse_diagram(load_json(path), pi, ignore_colors)
