"""Hand-emitted SVG residual plots, deterministic to the byte.

One document, four fixed 600x450 panels: residuals against fitted values on
the top row (standardized left, studentized right) and their squares on the
bottom row, which are exactly the per-observation F_null and F_trad
statistics.  All panels share the x-axis range.  Observations whose outlier
p-value falls at or below the requested level are drawn as filled diamonds
and labeled; everything else is a small circle.

No plotting dependency is used on purpose: golden-file tests require byte
determinism, so every coordinate is formatted with a fixed precision and
elements are emitted in row order.

The plot reads the diagnostics table's columns.  Each panel maps its x and y
columns to pixels with `_Panel.px`/`py` over whole arrays, and formats all its
points with one `%` over a template joined in row order: `_CIRCLE` for a plain
point, `_DIAMOND` and the escaped label, with `%` doubled, for an outlier.
The F panels square with CPython's `v ** 2`, which calls libm `pow`; `v * v`
and `np.square` differ from it in the last bit on some doubles, which could
move a pixel's last digit.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from .diagnostics import DiagnosticsTable
from .errors import DomainError

__all__ = ["emit_residual_plots"]

_PANEL_W = 600
_PANEL_H = 450
_MARGIN = 50
_TICKS = 10

_POINT_STYLE = 'fill="#44709d"'
_OUTLIER_STYLE = 'fill="#b83232"'
# a point that is not an outlier; %.2f formats as _fmt does
_CIRCLE = f'<circle cx="%.2f" cy="%.2f" r="3" {_POINT_STYLE}/>'
# an outlier: a diamond of half-width 5 around (x, y), then its label at
# (x + 7, y - 7), whose escaped text follows
_DIAMOND = (
    f'<path d="M %.2f %.2f L %.2f %.2f L %.2f %.2f L %.2f %.2f Z" {_OUTLIER_STYLE}/>\n'
    f'<text x="%.2f" y="%.2f" font-size="10" fill="#b83232">'
)
# which of a diamond's ten values a circle takes: x and y, slots 0 and 3
_CIRCLE_SLOTS = np.array([True, False, False, True, False, False, False, False, False, False])


def escape(text: str) -> str:
    """xml.sax.saxutils.escape without entities: &, > and <; quotes stay."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def _axis_range(values: np.ndarray) -> tuple[float, float]:
    # Python's min and max over the finite values in row order: which of
    # 0.0 and -0.0 they return is defined
    finite = values[np.isfinite(values)].tolist()
    if not finite:
        return -1.0, 1.0
    lo, hi = min(finite), max(finite)
    if lo == hi:
        return lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _squares(values: np.ndarray) -> np.ndarray:
    # CPython's v ** 2 calls libm pow, whose last bit differs from v * v and
    # np.square on some doubles
    return np.array([v ** 2 for v in values.tolist()])


class _Panel:
    """Maps data coordinates into one panel's pixel box and emits elements."""

    def __init__(self, col, row, title, x_range, y_range):
        self.ox = col * _PANEL_W
        self.oy = row * _PANEL_H
        self.title = title
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        self.left = self.ox + _MARGIN + 10
        self.right = self.ox + _PANEL_W - _MARGIN
        self.top = self.oy + _MARGIN
        self.bottom = self.oy + _PANEL_H - _MARGIN - 10

    def px(self, x: float) -> float:
        frac = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return self.left + frac * (self.right - self.left)

    def py(self, y: float) -> float:
        frac = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return self.bottom - frac * (self.bottom - self.top)

    def frame(self, x_label: str, y_label: str) -> list[str]:
        out = [
            f'<rect x="{self.left}" y="{self.top}" '
            f'width="{self.right - self.left}" height="{self.bottom - self.top}" '
            f'fill="none" stroke="#333333" stroke-width="1"/>',
            f'<text x="{self.ox + _PANEL_W // 2}" y="{self.oy + 24}" '
            f'text-anchor="middle" font-size="14">{escape(self.title)}</text>',
            f'<text x="{self.ox + _PANEL_W // 2}" y="{self.oy + _PANEL_H - 8}" '
            f'text-anchor="middle" font-size="11">{escape(x_label)}</text>',
            f'<text x="{self.ox + 14}" y="{self.oy + _PANEL_H // 2}" '
            f'text-anchor="middle" font-size="11" '
            f'transform="rotate(-90 {self.ox + 14} {self.oy + _PANEL_H // 2})">'
            f"{escape(y_label)}</text>",
        ]
        for i in range(_TICKS):
            xv = self.x_lo + i * (self.x_hi - self.x_lo) / (_TICKS - 1)
            xp = self.px(xv)
            out.append(
                f'<line x1="{_fmt(xp)}" y1="{self.bottom}" x2="{_fmt(xp)}" '
                f'y2="{self.bottom + 4}" stroke="#333333" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{_fmt(xp)}" y="{self.bottom + 16}" text-anchor="middle" '
                f'font-size="9">{_tick_label(xv)}</text>'
            )
            yv = self.y_lo + i * (self.y_hi - self.y_lo) / (_TICKS - 1)
            yp = self.py(yv)
            out.append(
                f'<line x1="{self.left - 4}" y1="{_fmt(yp)}" x2="{self.left}" '
                f'y2="{_fmt(yp)}" stroke="#333333" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{self.left - 6}" y="{_fmt(yp + 3)}" text-anchor="end" '
                f'font-size="9">{_tick_label(yv)}</text>'
            )
        if self.y_lo < 0.0 < self.y_hi:
            zp = self.py(0.0)
            out.append(
                f'<line x1="{self.left}" y1="{_fmt(zp)}" x2="{self.right}" '
                f'y2="{_fmt(zp)}" stroke="#999999" stroke-width="1" '
                f'stroke-dasharray="4 3"/>'
            )
        return out

    def points(self, xs, ys, outlier, names) -> str:
        """The drawn points in row order, as lines of text: a circle for a
        plain point, a diamond and its label for an outlier.  xs and ys are
        float64 arrays of the points whose coordinates are both finite,
        `outlier` their bool mask and `names` the outliers' labels in order."""
        # px and py over whole arrays round as they do point by point: the
        # denominators are Python scalars and each element sees the same
        # operations in the same order
        xp, yp = self.px(xs), self.py(ys)
        templates = [_CIRCLE] * len(xs)
        for i, name in zip(outlier.nonzero()[0].tolist(), names):
            templates[i] = _DIAMOND + escape(name).replace("%", "%%") + "</text>"
        d = 5.0
        values = np.column_stack(
            (xp, yp - d, xp + d, yp, xp, yp + d, xp - d, yp, xp + 7, yp - 7))
        return "\n".join(templates) % tuple(values[outlier[:, None] | _CIRCLE_SLOTS].tolist())


def emit_residual_plots(
    table: DiagnosticsTable,
    fitted: Sequence[float],
    out_path: str | Path | None = None,
    alpha: float = 0.05,
    labels: Sequence[str] | None = None,
) -> str:
    """Render the 2x2 residual panel grid; optionally write it to out_path.

    Returns the SVG document as text.  `labels` supplies observation
    identifiers for the outlier annotations; row indices are used otherwise.
    """
    if len(table) == 0:
        raise DomainError("cannot plot an empty diagnostics table")
    if len(fitted) != table.n:
        raise DomainError(
            f"table has {table.n} observations but {len(fitted)} fitted values given"
        )
    if labels is not None and len(labels) != table.n:
        raise DomainError(
            f"table has {table.n} observations but {len(labels)} labels given"
        )
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")

    # flagged rows are drawn in no panel
    kept = ~table.flagged
    xs = np.asarray(fitted, dtype=np.float64)[kept]
    x_range = _axis_range(xs)
    index = kept.nonzero()[0]
    name_of = str if labels is None else labels.__getitem__
    outlier = table.outliers(alpha)[kept]
    standardized = table.standardized[kept]
    studentized = table.studentized[kept]
    series = [
        ("standardized residuals", standardized),
        ("studentized residuals", studentized),
        ("squared standardized (F null form)", _squares(standardized)),
        ("squared studentized (F traditional form)", _squares(studentized)),
    ]

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{2 * _PANEL_W}" height="{2 * _PANEL_H}" '
        f'viewBox="0 0 {2 * _PANEL_W} {2 * _PANEL_H}" '
        f'font-family="monospace">',
        f'<rect x="0" y="0" width="{2 * _PANEL_W}" height="{2 * _PANEL_H}" fill="#ffffff"/>',
    ]
    x_finite = np.isfinite(xs)
    for k, (title, ys) in enumerate(series):
        panel = _Panel(k % 2, k // 2, title, x_range, _axis_range(ys))
        parts.extend(panel.frame("fitted value", title))
        # a point is drawn where both coordinates are finite
        drawn = x_finite & np.isfinite(ys)
        marked = outlier[drawn]
        names = map(name_of, index[drawn][marked].tolist())
        points = panel.points(xs[drawn], ys[drawn], marked, names)
        if points:
            parts.append(points)
    parts.append("</svg>")
    document = "\n".join(parts) + "\n"

    if out_path is not None:
        Path(out_path).write_text(document, encoding="utf-8")
    return document
