"""Compare experiment outputs with the reference outputs in ``reference/``.

Flags, labels and other text must match exactly.  Numbers in CSV and JSON
must match to 1e-12 relative, the gate for kernels that change the order
of floating-point operations.  SVG prints coordinates rounded to six
significant digits, so an SVG number may differ by one unit in its last
printed digit.  The JSON ``config.out_dir`` entry holds the output path
of the run and is not compared.
"""

from __future__ import annotations

import csv
import io
import json
import re
from pathlib import Path

REL_TOL = 1e-12

_SVG_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _close(a: float, b: float) -> bool:
    if a != a or b != b:  # NaN marks a skipped cell; it must stay NaN
        return a != a and b != b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _compare_json(got, want, where: str, out: list[str]) -> None:
    if isinstance(want, bool) or isinstance(got, bool) or want is None or isinstance(want, str):
        if got != want or type(got) is not type(want):
            out.append(f"{where}: {got!r} != {want!r}")
    elif isinstance(want, (int, float)):
        if not isinstance(got, (int, float)) or not _close(float(got), float(want)):
            out.append(f"{where}: {got!r} != {want!r}")
    elif isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            out.append(f"{where}: keys differ")
            return
        for key in want:
            if where == "" and key == "config":
                want_cfg = {k: v for k, v in want[key].items() if k != "out_dir"}
                got_cfg = {k: v for k, v in got[key].items() if k != "out_dir"}
                _compare_json(got_cfg, want_cfg, "config", out)
            else:
                _compare_json(got[key], want[key], f"{where}.{key}".lstrip("."), out)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{where}: lengths differ")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, f"{where}[{i}]", out)
    else:
        raise TypeError(f"unexpected JSON value at {where}: {want!r}")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _compare_csv(got: str, want: str, out: list[str]) -> None:
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    if len(got_rows) != len(want_rows):
        out.append(f"{len(got_rows)} rows, reference has {len(want_rows)}")
        return
    for i, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        if len(g_row) != len(w_row):
            out.append(f"row {i}: {len(g_row)} cells, reference has {len(w_row)}")
            continue
        for j, (g, w) in enumerate(zip(g_row, w_row)):
            g, w = _cell(g), _cell(w)
            same = _close(g, w) if isinstance(w, float) and isinstance(g, float) else g == w
            if not same:
                out.append(f"row {i} cell {j}: {g!r} != {w!r}")


def _last_digit(token: str) -> float:
    mantissa, _, exponent = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def _compare_svg(got: str, want: str, out: list[str]) -> None:
    if _SVG_NUMBER.split(got) != _SVG_NUMBER.split(want):
        out.append("markup differs")
        return
    for i, (g, w) in enumerate(zip(_SVG_NUMBER.findall(got), _SVG_NUMBER.findall(want))):
        if abs(float(g) - float(w)) > _last_digit(w) * (1.0 + 1e-9):
            out.append(f"number {i}: {g} != {w}")


def compare_dirs(got_dir: Path, want_dir: Path) -> list[str]:
    """Mismatches between two output directories; empty when they agree."""
    got_names = sorted(p.name for p in got_dir.iterdir()) if got_dir.is_dir() else []
    want_names = sorted(p.name for p in want_dir.iterdir())
    if got_names != want_names:
        return [f"files {got_names} != reference {want_names}"]
    out: list[str] = []
    for name in want_names:
        got = (got_dir / name).read_text()
        want = (want_dir / name).read_text()
        found: list[str] = []
        if name.endswith(".json"):
            _compare_json(json.loads(got), json.loads(want), "", found)
        elif name.endswith(".csv"):
            _compare_csv(got, want, found)
        elif name.endswith(".svg"):
            _compare_svg(got, want, found)
        elif got != want:
            found.append("content differs")
        out.extend(f"{name}: {m}" for m in found)
    return out
