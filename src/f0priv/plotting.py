"""Dependency-free SVG rendering of pitch contours.

Each trajectory becomes one path whose subpaths are its voiced runs, so
unvoiced stretches show as gaps. Structure over pixels: tests can count
paths and gap segments instead of comparing images.
"""

import numpy as np

from .trajectory import F0Trajectory

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

WIDTH, HEIGHT = 880, 440
MARGIN_LEFT, MARGIN_RIGHT = 64, 16
MARGIN_TOP, MARGIN_BOTTOM = 16, 44


def _tick_values(high: float, n: int = 6) -> list[float]:
    if high <= 0:
        return [0.0]
    step = high / n
    magnitude = 10.0 ** np.floor(np.log10(step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if magnitude * mult >= step:
            step = magnitude * mult
            break
    return list(np.arange(0.0, high + step / 2, step))


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    # Half-open [start, stop) index ranges of consecutive True values.
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(int)))
    return list(zip(edges[::2], edges[1::2]))


def trajectory_svg(named: list[tuple[str, F0Trajectory]]) -> str:
    """Render labeled trajectories as a self-contained SVG overlay plot.

    Axes are seconds and Hz; the legend lists the given labels in order.
    """
    import html  # here, so commands that draw nothing never load its entity tables

    if not named:
        raise ValueError("nothing to plot")
    for label, traj in named:
        if traj.n_frames == 0:
            raise ValueError(f"empty trajectory {label!r}")

    t_max = max(traj.times[-1] for _, traj in named) or 1e-3
    f_max = max(float(traj.values.max()) for _, traj in named)
    f_max = 1.08 * f_max if f_max > 0 else 100.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(t: float) -> float:
        return MARGIN_LEFT + plot_w * t / t_max

    def sy(f: float) -> float:
        return MARGIN_TOP + plot_h * (1.0 - f / f_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="11">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]

    axis_y = MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{axis_y}" x2="{MARGIN_LEFT + plot_w}" y2="{axis_y}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" y2="{axis_y}" stroke="black"/>'
    )
    for t in _tick_values(t_max):
        x = sx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{axis_y}" x2="{x:.2f}" y2="{axis_y + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{axis_y + 18}" text-anchor="middle">{t:g}</text>')
    for f in _tick_values(f_max):
        y = sy(f)
        parts.append(f'<line x1="{MARGIN_LEFT - 5}" y1="{y:.2f}" x2="{MARGIN_LEFT}" y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end">{f:g}</text>')
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.2f}" y="{HEIGHT - 8}" text-anchor="middle">time (s)</text>'
    )
    parts.append(
        f'<text x="14" y="{MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {MARGIN_TOP + plot_h / 2:.2f})">F0 (Hz)</text>'
    )

    for i, (label, traj) in enumerate(named):
        color = PALETTE[i % len(PALETTE)]
        times = traj.times
        segments = []
        for start, stop in _runs(traj.voiced_mask):
            coords = [
                f"{sx(times[j]):.2f},{sy(traj.values[j]):.2f}" for j in range(start, stop)
            ]
            segments.append("M " + " L ".join(coords))
        d = " ".join(segments)
        parts.append(
            f'<path class="trajectory" fill="none" stroke="{color}" stroke-width="1.5" d="{d}"/>'
        )

    legend_x = MARGIN_LEFT + 12
    for i, (label, _) in enumerate(named):
        color = PALETTE[i % len(PALETTE)]
        y = MARGIN_TOP + 10 + 16 * i
        parts.append(f'<rect x="{legend_x}" y="{y - 8}" width="12" height="4" fill="{color}"/>')
        parts.append(f'<text x="{legend_x + 18}" y="{y}">{html.escape(label, quote=False)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
