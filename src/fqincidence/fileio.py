"""Flat-file formats for points, lines, planes, and set systems.

All files are UTF-8 text, one object per line.  Geometry files start with
the header "# field p n"; elements are written as their decimal indices.

    points     "x,y" or "x,y,z" (or a single index for subsets of the field)
    lines      "N a b" for y = a*x + b, "V c" for x = c
    planes     "P n1 n2 n3 rhs"
    set system "ground N" header, then one member per line as
               space-separated sorted indices (an empty line is the empty set)

The (p, n) pair alone pins the field because the modulus choice in
make_field is deterministic.
"""

from pathlib import Path

from .errors import ToolkitError
from .ffield import FieldSpec, make_field
from .geom import Line2, Plane3, flat_rows, line_coeffs
from .setsys import SetSystem


class FormatError(ToolkitError):
    pass


def _header(fs: FieldSpec) -> str:
    return f"# field {fs.p} {fs.n}"


def _ints(fields, path, line: str) -> tuple[int, ...]:
    try:
        return tuple(int(f) for f in fields)
    except ValueError:
        raise FormatError(f"{path}: non-integer field in {line!r}") from None


def _below(bound: int, fields, path, line: str) -> tuple[int, ...]:
    """Integers, each in [0, bound): field-element or ground-set indices."""
    values = _ints(fields, path, line)
    for c in values:
        if not 0 <= c < bound:
            raise FormatError(f"{path}: value {c} in {line!r} outside [0, {bound})")
    return values


def read_text(path) -> str:
    """A UTF-8 input file's text; a byte that is not UTF-8 is a FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from None


def _read(path) -> tuple[FieldSpec, list[str]]:
    """The field of a geometry file and its non-blank record lines."""
    raw = read_text(path).splitlines()
    if not raw:
        raise FormatError(f"{path}: empty file")
    parts = raw[0].split()
    if len(parts) != 4 or parts[0] != "#" or parts[1] != "field":
        raise FormatError(f"{path}: expected header '# field p n'")
    fs = make_field(*_ints(parts[2:], path, raw[0]))
    return fs, [ln for ln in raw[1:] if ln.strip()]


def save_points(path, fs: FieldSpec, points) -> None:
    lines = [_header(fs)]
    for pt in points:
        if isinstance(pt, int):
            pt = (pt,)
        lines.append(",".join(str(c) for c in pt))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_points(path) -> tuple[FieldSpec, list[tuple[int, ...]]]:
    fs, records = _read(path)
    pts = []
    for ln in records:
        coords = _below(fs.q, ln.split(","), path, ln)
        if len(coords) not in (1, 2, 3):
            raise FormatError(f"{path}: point {ln!r} has bad dimension")
        if pts and len(coords) != len(pts[0]):
            raise FormatError(f"{path}: point {ln!r} has a different dimension")
        pts.append(coords)
    return fs, pts


def save_lines(path, fs: FieldSpec, lines) -> None:
    """The lines, read by geom.line_coeffs, written from its arrays."""
    a, b, vert = (c.tolist() for c in line_coeffs(fs, lines))
    out = [_header(fs), *(f"V {x}" if v else f"N {x} {y}" for x, y, v in zip(a, b, vert))]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def load_lines(path) -> tuple[FieldSpec, list[Line2]]:
    fs, records = _read(path)
    lines = []
    for ln in records:
        parts = ln.split()
        if (parts[0], len(parts)) not in (("V", 2), ("N", 3)):
            raise FormatError(f"{path}: bad line record {ln!r}")
        coef = _below(fs.q, parts[1:], path, ln)
        lines.append(Line2(parts[0], coef[0], coef[1] if len(coef) == 2 else 0))
    return fs, lines


def save_planes(path, fs: FieldSpec, planes) -> None:
    """The planes, read by geom.flat_rows, written from its array columns."""
    planes = flat_rows(fs, planes, 3)
    out = [_header(fs), *(f"P {n0} {n1} {n2} {r}" for (n0, n1, n2), r
                          in zip(planes.normals.tolist(), planes.rhs.tolist()))]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def load_planes(path) -> tuple[FieldSpec, list[Plane3]]:
    fs, records = _read(path)
    planes = []
    for ln in records:
        parts = ln.split()
        if parts[0] != "P" or len(parts) != 5:
            raise FormatError(f"{path}: bad plane record {ln!r}")
        *normal, rhs = _below(fs.q, parts[1:], path, ln)
        if not any(normal):
            raise FormatError(f"{path}: plane {ln!r} has a zero normal")
        planes.append(Plane3(tuple(normal), rhs, False))
    return fs, planes


def save_setsystem(path, system: SetSystem) -> None:
    out = [f"ground {system.ground_size}"]
    for i in range(len(system.family)):
        out.append(" ".join(str(e) for e in system.member_elements(i)))
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def load_setsystem(path) -> SetSystem:
    raw = read_text(path).split("\n")
    if raw and raw[-1] == "":
        raw = raw[:-1]  # trailing newline, not an empty member
    if not raw:
        raise FormatError(f"{path}: empty file")
    head = raw[0].split()
    if len(head) != 2 or head[0] != "ground":
        raise FormatError(f"{path}: expected header 'ground N'")
    (ground,) = _ints(head[1:], path, raw[0])
    if ground < 0:
        raise FormatError(f"{path}: negative ground size {ground}")
    members = [_below(ground, ln.split(), path, ln) for ln in raw[1:]]
    return SetSystem.from_sets(ground, members)
