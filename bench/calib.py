"""Host-speed calibration loop shared by the benchmark and its set-up child.

It imports only ``math`` and ``time``, so loading it in the set-up child
does not pre-import anything that ``simplexflow.cli`` would import.
"""
import math
import time

CAL_ITERS = 4000
# The calibration loop's time on an idle 2-CPU Xeon VM (Python 3.11).
CAL_NOMINAL_S = 2.0e-3


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop shaped like one map step, CAL_ITERS times."""
    x1, x2, x3 = 0.3, 0.3, 0.4
    a, b, c, f = -0.7, -0.5, -0.9, 0.3
    t0 = time.perf_counter()
    for _ in range(CAL_ITERS):
        g1 = a * x1 * x2 - b * x3 * x3
        g2 = c * x2 * x3 - a * x1 * x1
        g3 = b * x3 * x1 - c * x2 * x2
        y1, y2, y3 = x1 * (1.0 + g1 * f), x2 * (1.0 + g2 * f), x3 * (1.0 + g3 * f)
        s = math.fsum((y1, y2, y3))
        x1, x2, x3 = y1 / s, y2 / s, y3 / s
    return time.perf_counter() - t0
