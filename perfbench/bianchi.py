"""Bianchi's fixed point for a saturated 802.11 DCF clique.

Bianchi, "Performance analysis of the IEEE 802.11 distributed coordination
function", IEEE JSAC 18(3), 2000.  Each of ``n`` saturated stations transmits
in a slot with probability tau(p), and a transmission collides with
probability p = 1 - (1 - tau)^(n-1).  With minimum window W and m doubling
stages,

    tau(p) = 2 (1 - 2p) / ((1 - 2p)(W + 1) + p W (1 - (2p)^m)),

which is evaluated below in the equivalent form
2 / (W + 1 + p W sum_{k<m} (2p)^k) so that p = 1/2 needs no special case.
"""

import math


def transmit_probability(p, window, stages):
    """tau(p): per-slot transmission probability of one saturated station."""
    doubling = sum((2.0 * p) ** k for k in range(stages))
    return 2.0 / (window + 1.0 + p * window * doubling)


def collision_probability(n, window, stages, tol=1e-12):
    """The fixed point p of p = 1 - (1 - tau(p))^(n-1), found by bisection.

    The right-hand side falls as p rises, so the gap p - rhs(p) is monotone
    and has exactly one root in [0, 1].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if window < 1 or stages < 0:
        raise ValueError("window must be >= 1 and stages >= 0")
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        rhs = 1.0 - (1.0 - transmit_probability(mid, window, stages)) ** (n - 1)
        if mid < rhs:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dcf_collision_probability(n, cw_min, cw_max):
    """Fixed point for the simulator's MAC parameters.

    W = cw_min + 1, because the backoff is drawn uniformly from [0, cw_min],
    and m = log2(cw_max / cw_min) doubling stages.
    """
    stages = round(math.log2(cw_max / cw_min))
    return collision_probability(n, cw_min + 1, stages)
