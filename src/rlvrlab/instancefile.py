"""Self-describing text format for problem instances.

Layout: a `format: 1` version line, explicit dimensions, the correct-answer
indices, then one row-major feature block per prompt.  Floats are written
with shortest round-trip repr, so save/load is lossless.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .policy import FeatureSet

__all__ = ["save_instance", "load_instance", "InstanceFormatError"]

MAGIC = "rlvrlab-instance"
FORMAT_VERSION = 1


class InstanceFormatError(ValueError):
    pass


def save_instance(fs: FeatureSet, path) -> None:
    lines = [
        MAGIC,
        f"format: {FORMAT_VERSION}",
        f"n: {fs.n}",
        f"K: {fs.K}",
        f"d: {fs.d}",
        "correct: " + " ".join(str(int(a)) for a in fs.correct),
    ]
    for i, X in enumerate(fs.features):
        lines.append(f"features {i}:")
        for row in X:
            lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _expect(condition: bool, lineno: int, message: str) -> None:
    if not condition:
        raise InstanceFormatError(f"line {lineno}: {message}")


def load_instance(path) -> FeatureSet:
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"{path}: not ASCII text (byte {exc.start})") from None
    lines = text.splitlines()
    _expect(bool(lines) and lines[0].strip() == MAGIC, 1, f"missing {MAGIC!r} header")
    _expect(len(lines) >= 6, 2, "truncated header")

    def header_value(idx: int, key: str) -> str:
        prefix = key + ":"
        _expect(lines[idx].strip().startswith(prefix), idx + 1, f"expected {prefix!r}")
        return lines[idx].split(":", 1)[1].strip()

    def header_ints(idx: int, key: str) -> list[int]:
        try:
            return [int(tok) for tok in header_value(idx, key).split()]
        except ValueError as exc:
            raise InstanceFormatError(f"line {idx + 1}: {exc}") from None

    def header_int(idx: int, key: str) -> int:
        values = header_ints(idx, key)
        _expect(len(values) == 1, idx + 1, f"expected one integer after {key + ':'!r}")
        return values[0]

    version = header_int(1, "format")
    _expect(version == FORMAT_VERSION, 2, f"unsupported format version {version}")
    n = header_int(2, "n")
    K = header_int(3, "K")
    d = header_int(4, "d")
    correct = header_ints(5, "correct")
    _expect(len(correct) == n, 6, f"expected {n} correct indices, got {len(correct)}")

    features = []
    lineno = 6
    for i in range(n):
        _expect(lineno < len(lines), lineno + 1, f"missing block for prompt {i}")
        _expect(
            lines[lineno].strip() == f"features {i}:",
            lineno + 1,
            f"expected 'features {i}:'",
        )
        lineno += 1
        rows = []
        for k in range(K):
            _expect(lineno < len(lines), lineno + 1, f"missing row {k} of prompt {i}")
            try:
                row = [float(tok) for tok in lines[lineno].split()]
            except ValueError as exc:
                raise InstanceFormatError(f"line {lineno + 1}: {exc}") from None
            _expect(len(row) == d, lineno + 1, f"expected {d} values, got {len(row)}")
            rows.append(row)
            lineno += 1
        features.append(np.array(rows))
    trailing = [ln for ln in lines[lineno:] if ln.strip()]
    _expect(not trailing, lineno + 1, "unexpected trailing content")
    try:
        fs = FeatureSet(features=tuple(features), correct=np.array(correct))
    except ValueError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from None
    # Step sizes and smoothness radii divide by x_max.
    if fs.x_max == 0.0:
        raise InstanceFormatError(f"{path}: every feature matrix is zero")
    return fs
