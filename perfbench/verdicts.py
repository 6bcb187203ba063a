"""Output checks for CLI calls, and the small statistics the harness reports."""

from __future__ import annotations

import ast
import math
import re
import statistics

NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"

# Worst deviations printed by the verifiers: "deviation X" (mub, frame, sic,
# generate), the trace-one half of the frame point-line line, "spread X"
# (spectra, group) and "residual X" (solve-prob).  Tolerances ("at X") are
# not matched.
_RESIDUAL = re.compile(rf"(?:deviation|spread|residual) ({NUM})|, ({NUM}) \(trace-one\)")

# Every deviation a valid call prints must be within the CLI's default
# verification tolerance.
RESIDUAL_LIMIT = 1e-10


def residuals(stdout: str) -> list[float]:
    return [float(a or b) for a, b in _RESIDUAL.findall(stdout)]


def _verdict(out: str, step) -> str | None:
    if "(fail at" in out or "(pass at" not in out:
        return "verifier did not pass"
    return None


def _converged(out: str, step) -> str | None:
    return None if "(converged)" in out else "search did not converge"


def _axioms(out: str, step) -> str | None:
    return None if "all axioms pass" in out else "plane axioms did not pass"


def _total(out: str, step) -> str | None:
    m = re.search(rf"\(total ({NUM})\)", out)
    if m is None or abs(float(m.group(1)) - 1.0) > 1e-9:
        return "line sums do not total 1"
    return None


def _solutions(out: str, step) -> str | None:
    return None if "p = (" in out else "no probability solution printed"


def _groups(out: str, step) -> str | None:
    m = re.search(r"^groups: (.*)$", out, re.M)
    if m is None:
        return "no grouping printed"
    flat = sorted(j for group in ast.literal_eval(m.group(1)) for j in group)
    if flat != list(range(step.n_columns)):
        return f"groups do not partition the {step.n_columns} columns"
    return None


CHECKS = {
    "verdict": _verdict,
    "converged": _converged,
    "axioms": _axioms,
    "total": _total,
    "solutions": _solutions,
    "groups": _groups,
}


def check_call(step, rc: int, stdout: str, stderr: str) -> str | None:
    """Why the call does not meet its documented outcome, or None if it does."""
    if step.expect_rc == 2:
        if "Traceback" in stderr:
            return f"traceback, exit {rc} (expected exit 2 with one 'error:' line)"
        lines = stderr.strip().splitlines()
        if rc != 2 or len(lines) != 1 or not lines[0].startswith("error:"):
            return f"exit {rc} with {len(lines)} stderr lines (expected exit 2 with one 'error:' line)"
        return None
    if rc != step.expect_rc:
        return f"exit {rc}, expected {step.expect_rc}"
    if step.expect_text and step.expect_text not in stdout:
        return f"stdout lacks {step.expect_text!r}"
    for name in step.checks:
        problem = CHECKS[name](stdout, step)
        if problem:
            return problem
    worst = max(residuals(stdout), default=0.0)
    if not worst <= RESIDUAL_LIMIT:
        return f"deviation {worst:.3e} exceeds {RESIDUAL_LIMIT:g}"
    return None


# --- statistics -------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def quartile_spread(values) -> float:
    """Distance between the first and third quartiles as a share of the median
    (the quartiles of ``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def ratio(part: float, whole: float) -> float:
    """part / whole, and 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def self_times(durations, parents) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Spans nest (a child runs inside its parent's interval and siblings do not
    overlap), so the covered time is the sum of the children's durations.
    ``parents[i]`` is the index of span i's parent, or -1.
    """
    own = list(durations)
    for dur, parent in zip(durations, parents):
        if parent >= 0:
            own[parent] -= dur
    return own
