"""Deterministic SVG rendering of sweep and shift-study curves.

The renderer is a small hand-rolled SVG writer: identical input rows always
produce identical bytes, which keeps golden-file comparisons meaningful.
"""

from __future__ import annotations

import math

from .experiments import SWEEP_COLUMNS, read_csv

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 40, 50

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
)


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _axis_range(values):
    finite = [v for v in values if isinstance(v, float) and math.isfinite(v)]
    if not finite:
        return 0.0, 1.0
    lo, hi = min(finite), max(finite)
    if lo == hi:
        pad = abs(lo) * 0.1 + 0.5
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def render_curves(series, x_label: str, y_label: str, title: str) -> str:
    """SVG document for named (x, y) point series.

    ``series`` is a list of ``(name, [(x, y), ...])``; one polyline with
    markers per entry, points kept in the given order.
    """
    xs = [p[0] for _, pts in series for p in pts]
    ys = [p[1] for _, pts in series for p in pts]
    x0, x1 = _axis_range(xs)
    y0, y1 = _axis_range(ys)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * plot_w

    def py(y):
        return MARGIN_T + plot_h - (y - y0) / (y1 - y0) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
    ]
    # axes
    ax_b = MARGIN_T + plot_h
    ax_r = MARGIN_L + plot_w
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{ax_b}" x2="{ax_r}" y2="{ax_b}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{ax_b}" stroke="black"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        xp = px(xv)
        yp = py(yv)
        parts.append(
            f'<line x1="{xp:.1f}" y1="{ax_b}" x2="{xp:.1f}" y2="{ax_b + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{xp:.1f}" y="{ax_b + 18}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{_fmt(xv)}</text>'
        )
        parts.append(
            f'<line x1="{MARGIN_L - 4}" y1="{yp:.1f}" x2="{MARGIN_L}" y2="{yp:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{yp + 4:.1f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{_fmt(yv)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">'
        f"{y_label}</text>"
    )
    for i, (name, pts) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        finite = [(x, y) for x, y in pts if math.isfinite(x) and math.isfinite(y)]
        if len(finite) > 1:
            coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in finite)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for x, y in finite:
            parts.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>'
            )
        ly = MARGIN_T + 14 + 18 * i
        lx = ax_r + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 24}" y="{ly}" font-size="11" font-family="sans-serif">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _series_label(row) -> str:
    bits = [row["method"]]
    if row["method"] in ("blockwise", "blockwise_ref"):
        bits.append(f"B={row['b']}")
    if row.get("eta", 1.0) != 1.0:
        bits.append(f"eta={row['eta']:g}")
    return " ".join(bits)


def _grouped(rows, x_key, y_key):
    series: list[tuple[str, list]] = []
    index: dict[str, int] = {}
    for row in rows:
        label = _series_label(row)
        if label not in index:
            index[label] = len(series)
            series.append((label, []))
        series[index[label]][1].append((row[x_key], row[y_key]))
    return series


def plot_csv(csv_path, out_dir) -> list[str]:
    """Render the standard figures for a sweep or shift-study CSV (the two
    schemas ``read_csv`` reads); returns written paths."""
    import os

    header, rows = read_csv(csv_path)
    written = []
    if header == list(SWEEP_COLUMNS):
        figures = [
            ("win_rate_vs_kl.svg", "kl_fit", "win_rate", "fitted KL divergence", "win rate", "Win rate vs divergence"),
            ("reward_vs_kl.svg", "kl_fit", "normalized_reward", "fitted KL divergence", "normalized expected reward", "Reward vs divergence"),
        ]
    else:  # the shift schema, the only other one read_csv reads
        for row in rows:
            row["log10_var"] = math.log10(max(row["variance_x"] + row["variance_y"], 1e-300))
        figures = [
            ("reward_vs_shift.svg", "displacement", "mean_reward", "reward displacement", "mean reward", "Reward vs displacement"),
            ("variance_vs_shift.svg", "displacement", "log10_var", "reward displacement", "log10 total variance", "Output variance vs displacement"),
        ]
    for name, xk, yk, xl, yl, title in figures:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_curves(_grouped(rows, xk, yk), xl, yl, title))
        written.append(path)
    return written
