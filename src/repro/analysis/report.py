"""Plain-text rendering of regenerated figures.

The paper's figures are bar charts of utime/stime per program; we render
the same data as fixed-width ASCII so the examples and the CLI can print a
faithful, diffable analogue without plotting dependencies.
"""

from __future__ import annotations

from typing import List

from .figures import FigureResult

#: Characters used for the chart bars.
_UTIME_CHAR = "█"
_STIME_CHAR = "▒"


def _scaled(value: float, maximum: float, width: int) -> int:
    if maximum <= 0:
        return 0
    return max(0, round(value / maximum * width))


def bar_chart(fig: FigureResult, width: int = 46) -> str:
    """Render a per-program normal/attacked figure as ASCII bars."""
    lines: List[str] = [f"{fig.fig_id}: {fig.title}",
                        f"({_UTIME_CHAR} utime, {_STIME_CHAR} stime; "
                        f"seconds, simulated)"]
    maximum = max((bar.total_s
                   for pair in fig.pairs.values() for bar in pair),
                  default=0.0)
    for name, (normal, attacked) in fig.pairs.items():
        for bar in (normal, attacked):
            u = _scaled(bar.utime_s, maximum, width)
            s = _scaled(bar.stime_s, maximum, width)
            lines.append(
                f"  {name:>2} {bar.label:<8} "
                f"{_UTIME_CHAR * u}{_STIME_CHAR * s} "
                f"{bar.utime_s:.3f}u+{bar.stime_s:.3f}s")
    return "\n".join(lines)


def series_chart(fig: FigureResult, width: int = 46) -> str:
    """Render a nice-sweep figure (Figs. 7/8) as grouped ASCII bars."""
    lines: List[str] = [f"{fig.fig_id}: {fig.title}",
                        "(victim vs attacker total CPU seconds, simulated)"]
    maximum = max((bar.total_s for _label, v, f in fig.series
                   for bar in (v, f)), default=0.0)
    for label, victim, attacker in fig.series:
        vbar = _UTIME_CHAR * _scaled(victim.total_s, maximum, width)
        fbar = _STIME_CHAR * _scaled(attacker.total_s, maximum, width)
        lines.append(f"  {label:>10} {victim.label:>4} {vbar} "
                     f"{victim.total_s:.3f}")
        lines.append(f"  {'':>10} {attacker.label:>4} {fbar} "
                     f"{attacker.total_s:.3f}")
    return "\n".join(lines)


def checks_report(fig: FigureResult) -> str:
    lines = [f"checks for {fig.fig_id}:"]
    for check in fig.checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"  [{status}] {check.name} — {check.detail}")
    return "\n".join(lines)


def figure_report(fig: FigureResult, width: int = 46) -> str:
    """Chart plus checks, ready to print."""
    chart = series_chart(fig, width) if fig.series else bar_chart(fig, width)
    return f"{chart}\n{checks_report(fig)}"
