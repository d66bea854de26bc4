"""Default parameter values and validation."""

import pytest

from tokendcf import (ConfigError, MacParams, PhyParams, ScenarioConfig, TokenParams,
                      TrafficSpec)


def test_phy_defaults():
    phy = PhyParams()
    assert (phy.slot_time, phy.sifs, phy.difs, phy.preamble) == (9, 10, 28, 16)
    assert phy.bit_rate == 54_000_000
    assert (phy.tx_range, phy.cs_range) == (250.0, 550.0)


@pytest.mark.parametrize("kwargs, difs", [
    ({}, 28),
    ({"sifs": 16}, 34),
    ({"slot_time": 20}, 50),
    ({"slot_time": 9, "sifs": 16, "preamble": 20}, 34),                          # OFDM
    ({"slot_time": 20, "sifs": 10, "preamble": 192, "bit_rate": 11_000_000}, 50),   # DSSS
])
def test_difs_is_sifs_plus_two_slots(kwargs, difs):
    phy = PhyParams(**kwargs)
    assert phy.difs == difs
    assert phy.sifs < phy.difs


def test_difs_is_no_setting():
    with pytest.raises(TypeError):
        PhyParams(difs=28)


def test_mac_defaults():
    mac = MacParams()
    assert (mac.cw_min, mac.cw_max) == (16, 1024)
    assert mac.queue_capacity == 50
    assert mac.retry_limit == 7
    assert (mac.data_header_bytes, mac.ack_header_bytes, mac.sched_header_bytes) == (34, 14, 4)


def test_token_defaults():
    tok = TokenParams()
    assert (tok.min_ratio, tok.max_ratio) == (0.2, 0.8)
    assert tok.max_num == 20
    assert tok.delta == 0.1
    assert tok.max_p == 0.9
    assert tok.period_us == 100_000


@pytest.mark.parametrize("kwargs", [
    {"slot_time": 0},
    {"bit_rate": 0},
    {"tx_range": -1.0},
    {"tx_range": 600.0},   # exceeds cs_range
    {"tx_range": float("nan")},
    {"cs_range": float("nan")},
    {"cs_range": float("inf")},
])
def test_phy_validation(kwargs):
    with pytest.raises(ConfigError):
        PhyParams(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"cw_min": 0},
    {"cw_max": 8},         # below cw_min
    {"queue_capacity": 0},
    {"retry_limit": -1},
    {"data_header_bytes": 0},
    {"ack_timeout_guard": 0},      # the timeout would fire ahead of the ACK's end
    {"sched_header_bytes": -1},
])
def test_mac_validation(kwargs):
    with pytest.raises(ConfigError):
        MacParams(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"min_ratio": 0.9},            # min >= max
    {"delta": 0.0},
    {"max_p": 1.0},
    {"delta": 0.5, "max_p": 0.3},  # delta exceeds max_p
    {"max_num": 0},
    {"period_us": 0},
])
def test_token_validation(kwargs):
    with pytest.raises(ConfigError):
        TokenParams(**kwargs)


def test_token_max_p_zero_disables_grants_but_is_valid():
    tok = TokenParams(max_p=0.0)
    assert tok.max_p == 0.0


@pytest.mark.parametrize("cls, name, value", [
    (PhyParams, "slot_time", 9.5),
    (PhyParams, "bit_rate", 54e6),     # whole, but a float
    (MacParams, "cw_min", 16.5),
    (MacParams, "queue_capacity", 2.5),
    (MacParams, "retry_limit", "7"),
    (TokenParams, "max_num", 20.5),
    (TokenParams, "period_us", 100_000.5),
    (TrafficSpec, "packet_size", 500.5),
    (ScenarioConfig, "n_transmitters", 2.5),
    (ScenarioConfig, "runs", 1.5),
    (ScenarioConfig, "seed", 1.5),
])
def test_int_fields_reject_non_ints(cls, name, value):
    with pytest.raises(ConfigError, match=name):
        cls(**{name: value})
