"""Gantt rendering of a plan: deterministic SVG plus a text fallback."""

from __future__ import annotations

from .plans import Plan

_COLORS = {
    "travel": "#9aa5b1",
    "execute": "#4a90d9",
    "jointSync": "#e8833a",
    "idle": "#e3e7eb",
}

_LANE_H = 28
_BAR_H = 18
_LEFT = 90
_TOP = 46
_PX_PER_UNIT = 9
# widest text chart: it spends one column per time unit, so a long makespan
# would take memory and report.txt size in proportion.  The SVG draws a
# longer makespan on the canvas of this span, so its size stays bounded too.
_TEXT_MAX_SPAN = 1000


def emit_gantt(plan: Plan, title: str = "Schedule") -> str:
    """Render one lane per robot; byte-identical output for equal plans.

    A time unit takes ``_PX_PER_UNIT`` pixels up to a makespan of
    ``_TEXT_MAX_SPAN``; a longer plan is scaled to that canvas width.
    """
    robots = sorted(plan.timelines)
    span = max(plan.makespan, 1)
    plot = min(span, _TEXT_MAX_SPAN) * _PX_PER_UNIT

    def px(t):
        return _LEFT + t * plot // span

    width = _LEFT + plot + 30
    height = _TOP + max(len(robots), 1) * _LANE_H + 40

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{_LEFT}" y="20" font-family="monospace" font-size="14">{title}</text>',
    ]

    # time axis with grid lines every tick
    tick = _pick_tick(span)
    axis_y = _TOP + len(robots) * _LANE_H
    for t in range(0, span + 1, tick):
        x = px(t)
        parts.append(
            f'<line x1="{x}" y1="{_TOP - 6}" x2="{x}" y2="{axis_y}" '
            f'stroke="#d9dde2" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x}" y="{axis_y + 16}" font-family="monospace" '
            f'font-size="10" text-anchor="middle">{t}</text>'
        )

    for lane, robot in enumerate(robots):
        y = _TOP + lane * _LANE_H
        parts.append(
            f'<text x="8" y="{y + _BAR_H - 4}" font-family="monospace" '
            f'font-size="12">{robot}</text>'
        )
        for ev in plan.timelines[robot]:
            x = px(ev.start)
            w = max(px(ev.end) - x, 1)
            color = _COLORS[ev.kind]
            label = ev.instance or ev.kind
            parts.append(
                f'<rect x="{x}" y="{y}" width="{w}" height="{_BAR_H}" '
                f'fill="{color}" stroke="#5f6b76" stroke-width="0.5">'
                f"<title>{robot} {ev.kind} {label} [{ev.start},{ev.end}]</title></rect>"
            )
            if ev.kind in ("execute", "jointSync") and w >= 30:
                parts.append(
                    f'<text x="{x + 3}" y="{y + _BAR_H - 5}" font-family="monospace" '
                    f'font-size="9" fill="white">{ev.instance}</text>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _pick_tick(span: int) -> int:
    for tick in (1, 2, 5, 10, 20, 50, 100):
        if span / tick <= 24:
            return tick
    return max(1, span // 20)


def format_gantt_text(plan: Plan) -> str:
    """Monospace fallback: one character column per time unit, or one line
    naming the makespan when that exceeds ``_TEXT_MAX_SPAN`` columns."""
    glyph = {"travel": "-", "execute": "#", "jointSync": "J", "idle": "."}
    span = plan.makespan
    if span > _TEXT_MAX_SPAN:
        return f"makespan {span} is too wide for a text chart of {_TEXT_MAX_SPAN} columns\n"
    lines = []
    for robot in sorted(plan.timelines):
        row = [" "] * span
        for ev in plan.timelines[robot]:
            for t in range(ev.start, ev.end):
                row[t] = glyph[ev.kind]
        lines.append(f"{robot:>8} |{''.join(row)}|")
    scale = f"{'':>8}  0{'':{max(span - 2, 0)}}{span if span > 1 else ''}"
    lines.append(scale.rstrip())
    return "\n".join(lines) + "\n"
