"""Run with: python3 -m pytest perfbench"""

import pytest

from bianchi import (collision_probability, dcf_collision_probability,
                     transmit_probability)


@pytest.mark.parametrize("n, expected", [(5, 0.263), (10, 0.376), (20, 0.473), (30, 0.525)])
def test_reference_fixed_points(n, expected):
    # reference values for the default MAC (cw 16..1024)
    assert round(dcf_collision_probability(n, 16, 1024), 3) == expected


def test_fixed_point_satisfies_its_equation():
    p = collision_probability(100, 17, 6)
    tau = transmit_probability(p, 17, 6)
    assert p == pytest.approx(1.0 - (1.0 - tau) ** 99, abs=1e-9)
    assert round(p, 3) == 0.671


def test_single_station_never_collides():
    assert collision_probability(1, 17, 6) == pytest.approx(0.0, abs=1e-9)
