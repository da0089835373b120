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
"""

from __future__ import annotations

import math
from itertools import compress
from pathlib import Path
from typing import Sequence

from .diagnostics import DiagnosticsTable, is_outlier
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


def escape(text: str) -> str:
    """xml.sax.saxutils.escape without entities: &, > and <; quotes stay."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def _axis_range(values: Sequence[float]) -> tuple[float, float]:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return -1.0, 1.0
    lo, hi = min(finite), max(finite)
    if lo == hi:
        return lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


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

    def diamond(self, x: float, y: float, label: str) -> list[str]:
        """An outlier: a filled diamond and its label."""
        xp, yp = self.px(x), self.py(y)
        d = 5.0
        diamond = (
            f"M {_fmt(xp)} {_fmt(yp - d)} L {_fmt(xp + d)} {_fmt(yp)} "
            f"L {_fmt(xp)} {_fmt(yp + d)} L {_fmt(xp - d)} {_fmt(yp)} Z"
        )
        return [
            f'<path d="{diamond}" {_OUTLIER_STYLE}/>',
            f'<text x="{_fmt(xp + 7)}" y="{_fmt(yp - 7)}" font-size="10" '
            f'fill="#b83232">{escape(label)}</text>',
        ]


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

    rows = [r for r in table.rows if not r.flagged]
    xs = [fitted[r.index] for r in rows]
    x_range = _axis_range(xs)
    names = labels if labels is not None else [str(i) for i in range(table.n)]
    # decided once for all four panels; a row with no finite x is drawn in none
    x_finite = list(map(math.isfinite, xs))
    marks = [(x, is_outlier(r, alpha), names[r.index]) for x, r in zip(xs, rows)]
    marks = list(compress(marks, x_finite))
    series = [
        ("standardized residuals", [r.standardized for r in rows]),
        ("studentized residuals", [r.studentized for r in rows]),
        ("squared standardized (F null form)", [r.standardized**2 for r in rows]),
        ("squared studentized (F traditional form)", [r.studentized**2 for r in rows]),
    ]

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{2 * _PANEL_W}" height="{2 * _PANEL_H}" '
        f'viewBox="0 0 {2 * _PANEL_W} {2 * _PANEL_H}" '
        f'font-family="monospace">',
        f'<rect x="0" y="0" width="{2 * _PANEL_W}" height="{2 * _PANEL_H}" fill="#ffffff"/>',
    ]
    for k, (title, ys) in enumerate(series):
        panel = _Panel(k % 2, k // 2, title, x_range, _axis_range(ys))
        parts.extend(panel.frame("fitted value", title))
        px, py = panel.px, panel.py
        for (x, outlier, name), y in zip(marks, compress(ys, x_finite)):
            if not math.isfinite(y):
                continue
            if outlier:
                parts.extend(panel.diamond(x, y, name))
            else:
                parts.append(_CIRCLE % (px(x), py(y)))
    parts.append("</svg>")
    document = "\n".join(parts) + "\n"

    if out_path is not None:
        Path(out_path).write_text(document, encoding="utf-8")
    return document
