"""Hand-emitted SVG rendering of an interpolation: no plotting dependency.

Fixed 800x300 two-panel layout: antecedents (lower rule, observation, upper
rule) on the left, consequents plus the conclusion on the right. The
conclusion polyline is drawn from the raw graded points, so an abnormal
conclusion is visibly non-monotone. Output is deterministic byte for byte.
"""
from __future__ import annotations

import sys

from .interpolate import Observation, Rule
from .sets import GradedPointList, TrapezoidSet

WIDTH = 800
HEIGHT = 300

_PANEL_W = 340
_PANEL_H = 200
_PANEL_TOP = 50
_PANEL_LEFT = (40, 430)

_COLORS = {"lower": "#1f6fb4", "upper": "#2c8c4b", "obs": "#c03028"}


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _polyline(points: list[tuple[float, float]], color: str, dashed: bool = False,
              width: float = 1.5) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    dash = ' stroke-dasharray="6,3"' if dashed else ""
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="{width}"{dash} />'
    )


def _text(x: float, y: float, content: str, color: str = "#222222",
          size: int = 12, anchor: str = "middle") -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
        f'font-size="{size}" fill="{color}" text-anchor="{anchor}">{content}</text>'
    )


def _axis_label(quarter: float) -> str:
    """An axis end given as a quarter of its abscissa, clamped to the float range."""
    return _fmt(min(max(quarter * 4, -sys.float_info.max), sys.float_info.max))


class _Panel:
    """One panel's horizontal scale over the abscissas ``xs``.

    Every abscissa is divided by 4 before any arithmetic, which is exact for
    normal floats, so the span and the means of finite abscissas stay finite.
    ``lo`` and ``hi`` are the padded axis ends, in those quarters.
    """

    def __init__(self, left: float, title: str, xs: list[float]):
        self.left = left
        self.title = title
        lo, hi = min(xs) / 4, max(xs) / 4
        pad = max(0.05 * (hi - lo), 0.125)
        self.lo = lo - pad
        self.hi = hi + pad

    def sx(self, quarter: float) -> float:
        """The horizontal position of the abscissa ``4 * quarter``."""
        return self.left + (quarter - self.lo) / (self.hi - self.lo) * _PANEL_W

    def sy(self, grade: float) -> float:
        return _PANEL_TOP + (1.0 - grade) * _PANEL_H

    def header(self) -> list[str]:
        base = _PANEL_TOP + _PANEL_H
        return [
            _text(self.left + _PANEL_W / 2, _PANEL_TOP - 18, self.title, size=14),
            f'<line x1="{_fmt(self.left)}" y1="{_fmt(base)}" '
            f'x2="{_fmt(self.left + _PANEL_W)}" y2="{_fmt(base)}" '
            f'stroke="#888888" stroke-width="1" />',
            _text(self.left, base + 16, _axis_label(self.lo), anchor="start", size=10),
            _text(self.left + _PANEL_W, base + 16, _axis_label(self.hi), anchor="end", size=10),
        ]

    def curve(self, points: list[tuple[float, float]], color: str,
              dashed: bool = False, width: float = 1.5) -> str:
        return _polyline([(self.sx(x / 4), self.sy(g)) for x, g in points], color,
                         dashed, width)

    def label(self, xs: list[float], text: str, color: str) -> str:
        """``text`` above the mean of the abscissas ``xs``."""
        mean = sum(x / 4 for x in xs) / len(xs)
        return _text(self.sx(mean), self.sy(1.0) - 6, text, color=color, size=11)


def _set_points(s: TrapezoidSet) -> list[tuple[float, float]]:
    return [(s.a1, 0.0), (s.a2, 1.0), (s.a3, 1.0), (s.a4, 0.0)]


def render_interpolation_svg(
    lower: Rule,
    upper: Rule,
    obs: Observation,
    conclusion: GradedPointList,
) -> str:
    """Render the first input dimension's antecedents and the consequent side."""
    a1 = lower.antecedents[0]
    a2 = upper.antecedents[0]
    ob = obs.sets[0]
    b1 = lower.consequent
    b2 = upper.consequent

    ant_xs = [v for s in (a1, ob, a2) for v in s.points()]
    con_xs = [v for s in (b1, b2) for v in s.points()]
    con_xs += [x for x, _ in conclusion]

    antecedent_panel = _Panel(_PANEL_LEFT[0], "antecedents", ant_xs)
    consequent_panel = _Panel(_PANEL_LEFT[1], "consequents", con_xs)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff" />',
    ]
    parts += antecedent_panel.header()
    parts += consequent_panel.header()

    parts.append(antecedent_panel.curve(_set_points(a1), _COLORS["lower"]))
    parts.append(antecedent_panel.curve(_set_points(a2), _COLORS["upper"]))
    parts.append(antecedent_panel.curve(_set_points(ob), _COLORS["obs"], dashed=True))
    parts.append(antecedent_panel.label([a1.a2, a1.a3], "A1", _COLORS["lower"]))
    parts.append(antecedent_panel.label([a2.a2, a2.a3], "A2", _COLORS["upper"]))
    parts.append(antecedent_panel.label([ob.a2, ob.a3], "A*", _COLORS["obs"]))

    parts.append(consequent_panel.curve(_set_points(b1), _COLORS["lower"]))
    parts.append(consequent_panel.curve(_set_points(b2), _COLORS["upper"]))
    parts.append(consequent_panel.curve(list(conclusion), _COLORS["obs"],
                                        dashed=True, width=2.0))
    parts.append(consequent_panel.label([b1.a2, b1.a3], "B1", _COLORS["lower"]))
    parts.append(consequent_panel.label([b2.a2, b2.a3], "B2", _COLORS["upper"]))
    peak = [x for x, g in conclusion if g >= 1.0]
    if peak:
        parts.append(consequent_panel.label(peak, "B*", _COLORS["obs"]))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
