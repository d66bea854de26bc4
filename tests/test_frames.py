"""Frame construction rules and airtime arithmetic."""

import pytest

from tokendcf import ACK, DATA, MacFrame, PhyParams, frame_airtime

PHY = PhyParams()


def test_ack_airtime_19us():
    # 16 + ceil(8*14 / 54) = 16 + 3
    assert frame_airtime(14, 0, PHY) == 19


def test_plain_data_500_bytes_96us():
    # 16 + ceil(8*534 / 54) = 16 + 80
    assert frame_airtime(34, 500, PHY) == 96


def test_scheduling_data_1500_bytes_244us():
    # 16 + ceil(8*1538 / 54) = 16 + 228
    assert frame_airtime(38, 1500, PHY) == 244


def test_airtime_rounds_up_to_whole_microsecond():
    # 8 bits at 54 Mbps is 0.148 us of payload time; still costs a full us
    assert frame_airtime(1, 0, PHY) == PHY.preamble + 1


def test_airtime_monotone_in_payload():
    values = [frame_airtime(34, p, PHY) for p in range(1, 3000, 37)]
    assert values == sorted(values)


def test_ack_frame_carries_no_scheduling_fields():
    with pytest.raises(ValueError):
        MacFrame(ACK, 0, 1, privileged=3)
    frame = MacFrame(ACK, 0, 1)
    assert frame.privileged is None


def test_data_frame_scheduling_fields_roundtrip():
    frame = MacFrame(DATA, 2, 5, privileged=4, q_len=12)
    assert (frame.src, frame.dst, frame.privileged, frame.q_len) == (2, 5, 4, 12)
    assert "privileged=4" in repr(frame)
