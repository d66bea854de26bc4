"""MAC frame representation shared by the medium and the MAC layers."""

DATA = 0
ACK = 1

KIND_NAMES = {DATA: "data", ACK: "ack"}


class MacFrame:
    """One MAC frame.

    ``privileged`` and ``q_len`` are the scheduling fields carried in data
    headers by the token MAC; plain DCF data frames and all ACKs leave
    ``privileged`` as None.  The payload size is the sending station's.
    """

    __slots__ = ("kind", "src", "dst", "privileged", "q_len")

    def __init__(self, kind, src, dst, privileged=None, q_len=0):
        if kind == ACK and privileged is not None:
            raise ValueError("ack frames carry no scheduling fields")
        self.kind = kind
        self.src = src
        self.dst = dst
        self.privileged = privileged
        self.q_len = q_len

    def __repr__(self):
        return (
            f"MacFrame({KIND_NAMES[self.kind]}, src={self.src}, dst={self.dst}, "
            f"privileged={self.privileged}, q_len={self.q_len})"
        )


def frame_airtime(header_bytes, payload_bytes, phy):
    """Airtime in whole microseconds: preamble + payload bits at bit_rate.

    Sub-microsecond remainders round up so frames never underrun their
    scheduled channel occupancy.
    """
    bits = 8 * (header_bytes + payload_bytes)
    return phy.preamble + -(-bits * 1_000_000 // phy.bit_rate)
