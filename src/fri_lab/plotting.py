"""Hand-emitted SVG rendering of an interpolation: no plotting dependency.

Fixed 800x300 two-panel layout: antecedents (lower rule, observation, upper
rule) on the left, consequents plus the conclusion on the right. The
conclusion polyline is drawn from the raw graded points, so an abnormal
conclusion is visibly non-monotone. Output is deterministic byte for byte.
"""
from __future__ import annotations

from .interpolate import Observation, Rule
from .sets import GradedPointList, TrapezoidSet

__all__ = ["render_interpolation_svg"]

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


class _Panel:
    def __init__(self, left: float, title: str, x_lo: float, x_hi: float):
        self.left = left
        self.title = title
        pad = max(0.05 * (x_hi - x_lo), 0.5)
        self.x_lo = x_lo - pad
        self.x_hi = x_hi + pad

    def sx(self, x: float) -> float:
        return self.left + (x - self.x_lo) / (self.x_hi - self.x_lo) * _PANEL_W

    def sy(self, grade: float) -> float:
        return _PANEL_TOP + (1.0 - grade) * _PANEL_H

    def header(self) -> list[str]:
        base = _PANEL_TOP + _PANEL_H
        return [
            _text(self.left + _PANEL_W / 2, _PANEL_TOP - 18, self.title, size=14),
            f'<line x1="{_fmt(self.left)}" y1="{_fmt(base)}" '
            f'x2="{_fmt(self.left + _PANEL_W)}" y2="{_fmt(base)}" '
            f'stroke="#888888" stroke-width="1" />',
            _text(self.left, base + 16, _fmt(self.x_lo), anchor="start", size=10),
            _text(self.left + _PANEL_W, base + 16, _fmt(self.x_hi), anchor="end", size=10),
        ]

    def curve(self, points: list[tuple[float, float]], color: str,
              dashed: bool = False, width: float = 1.5) -> str:
        return _polyline([(self.sx(x), self.sy(g)) for x, g in points], color,
                         dashed, width)

    def label(self, x: float, text: str, color: str) -> str:
        return _text(self.sx(x), self.sy(1.0) - 6, text, color=color, size=11)


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

    antecedent_panel = _Panel(_PANEL_LEFT[0], "antecedents", min(ant_xs), max(ant_xs))
    consequent_panel = _Panel(_PANEL_LEFT[1], "consequents", min(con_xs), max(con_xs))

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
    parts.append(antecedent_panel.label((a1.a2 + a1.a3) / 2, "A1", _COLORS["lower"]))
    parts.append(antecedent_panel.label((a2.a2 + a2.a3) / 2, "A2", _COLORS["upper"]))
    parts.append(antecedent_panel.label((ob.a2 + ob.a3) / 2, "A*", _COLORS["obs"]))

    parts.append(consequent_panel.curve(_set_points(b1), _COLORS["lower"]))
    parts.append(consequent_panel.curve(_set_points(b2), _COLORS["upper"]))
    parts.append(consequent_panel.curve(list(conclusion), _COLORS["obs"],
                                        dashed=True, width=2.0))
    parts.append(consequent_panel.label((b1.a2 + b1.a3) / 2, "B1", _COLORS["lower"]))
    parts.append(consequent_panel.label((b2.a2 + b2.a3) / 2, "B2", _COLORS["upper"]))
    peak = [x for x, g in conclusion if g >= 1.0]
    if peak:
        parts.append(consequent_panel.label(sum(peak) / len(peak), "B*", _COLORS["obs"]))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
