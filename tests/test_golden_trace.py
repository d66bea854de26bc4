"""Trace-digest gate: fixed (config, seed) runs must reproduce pinned digests.

One table, ``PINNED``, holds one digest per entry, and one function,
``case_digest``, computes it: sha256 over each run's raw ``medium.trace``,
its ``MetricsReport`` and its per-station counters (packets enqueued,
delivered, dropped on a full queue, dropped at the retry limit, and the
queue length at the horizon).  The entries:

- the golden cases: four scenarios under both protocols at seeds 1 and 7919,
  runs 0 and 1;
- ``two-way-token``: saturated two-way token flows, the one golden case where
  addressed DATA frames reach token schedulers;
- ``bench-*``: every run of three benchmark workloads at seed 1 and two at
  seed 7919, configs read from ``perfbench/workloads.py``;
- ``corpus-*``: seeded random 0.05 s scenarios over wide parameter ranges,
  then seeded hand-placed networks of two-way flows (``corpus-two-way-*``),
  which reach paths the golden cases miss.

A refactor must leave every digest unchanged.  A change that alters behaviour
on purpose replaces the table with the one printed on failure and says in
CHANGES.md which entries moved and why.
"""

import hashlib
import importlib.util
import random
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

import tokendcf.token
from tokendcf import (MacParams, Medium, ScenarioConfig, Simulation, Station,
                      TokenParams, TrafficSpec, derive_seed)

from conftest import Network, read_frames

PARETO = TrafficSpec(kind="pareto_on_off", packet_size=1500, rate_bps=1e6)

# scenario name -> ScenarioConfig keywords (seed added per case)
SCENARIOS = {
    "clique20": dict(n_transmitters=20, area_side=150.0, duration_s=0.1),
    "clique100": dict(n_transmitters=100, area_side=150.0, duration_s=0.05),
    "multihop800": dict(n_transmitters=30, area_side=800.0, duration_s=0.1),
    "pareto1500": dict(n_transmitters=60, area_side=1500.0, duration_s=0.2,
                       traffic=PARETO),
}
PROTOCOLS = ("dcf", "token_dcf")
SEEDS = (1, 7919)
RUNS = (0, 1)

# Saturated two-way token flows, 0 <-> 1 and 2 <-> 3 in a 150 m square (every
# generated scenario sends to sinks, which have no token scheduler).
TWO_WAY = [(0.0, 0.0), (100.0, 0.0), (0.0, 150.0), (100.0, 150.0)]
TWO_WAY_FLOWS = [(0, 1), (1, 0), (2, 3), (3, 2)]
TWO_WAY_HORIZON_US = 50_000

# the benchmark's traced workload and seed pairs
BENCH = (("clique-sat-token", 1), ("clique-sat-dcf-n100", 1), ("multihop-pareto-token", 1),
         ("clique-sat-token", 7919), ("clique-sat-dcf-n100", 7919),
         ("multihop-pareto-token", 7919))

CORPUS_SEED = 20_260_000
CORPUS_SIZE = 300
TWO_WAY_NETWORKS = 40
CORPUS_HORIZON_US = 50_000


def _workloads():
    """perfbench/workloads.py, loaded from its file, so the pins follow the benchmark."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def simulate(config, run_index):
    """Run ``run_index`` of ``config`` with the trace on: (network, report)."""
    sim = Simulation(config, derive_seed(config.seed, run_index), trace=[])
    return sim, sim.run()


def saturate(positions, flows, horizon_us, **kw):
    """A full-buffer hand-placed network run to ``horizon_us``: (network, report)."""
    net = Network(positions, flows, trace=True, **kw)
    return net, net.saturate().run(horizon_us)


def _mac_token(rng):
    mac = MacParams(retry_limit=rng.choice((0, 1, 7)),
                    queue_capacity=rng.choice((1, 5, 50)),
                    ack_timeout_guard=rng.choice((1, 20, 57)))
    token = TokenParams(period_us=rng.choice((20_000, 100_000)), max_num=rng.choice((5, 20)))
    return mac, token


def _corpus():
    """name -> one-run case, seeded by CORPUS_SEED: generated scenarios, then two-way networks."""
    rng = random.Random(CORPUS_SEED)
    cases = {}
    for i in range(CORPUS_SIZE):
        mac, token = _mac_token(rng)
        traffic = TrafficSpec(kind=rng.choice(("full_buffer", "pareto_on_off")),
                              packet_size=rng.choice((100, 500, 1500)))
        config = ScenarioConfig(
            protocol=rng.choice(PROTOCOLS), n_transmitters=rng.randint(1, 40),
            area_side=float(rng.randint(50, 1500)), duration_s=CORPUS_HORIZON_US / 1e6,
            seed=rng.randrange(1 << 31), mac=mac, token=token, traffic=traffic)
        cases[f"corpus-{i:03d}"] = (partial(simulate, config, 0),)
    for i in range(TWO_WAY_NETWORKS):
        mac, token = _mac_token(rng)
        side = float(rng.randint(100, 2000))
        positions, flows = [], []
        for _pair in range(rng.randint(1, 6)):
            a = len(positions)
            x, y = rng.uniform(0.0, side), rng.uniform(0.0, side)
            positions += [(x, y), (x + rng.uniform(10.0, 240.0), y)]
            flows += [(a, a + 1), (a + 1, a)]
        cases[f"corpus-two-way-{i:02d}"] = (partial(
            saturate, positions, flows, CORPUS_HORIZON_US, protocol=rng.choice(PROTOCOLS),
            payload=rng.choice((100, 500, 1500)), mac=mac, token=token,
            seed=rng.randrange(1 << 31)),)
    return cases


def _cases():
    """name -> the runs of each golden and benchmark entry: thunks returning (network, report)."""
    cases = {}
    for name, kw in SCENARIOS.items():
        for protocol in PROTOCOLS:
            for seed in SEEDS:
                config = ScenarioConfig(protocol=protocol, seed=seed, **kw)
                for run in RUNS:
                    cases[f"{name}-{protocol}-s{seed}-r{run}"] = (partial(simulate, config, run),)
    cases["two-way-token"] = (partial(saturate, TWO_WAY, TWO_WAY_FLOWS, TWO_WAY_HORIZON_US,
                                      protocol="token_dcf"),)
    workloads = _workloads()
    for workload, seed in BENCH:
        config = workloads.workload_config(workload, seed)
        cases[f"bench-{workload}-s{seed}"] = tuple(partial(simulate, config, i)
                                                   for i in range(config.runs))
    return cases


def case_digest(runs, reached):
    """sha256 (first 16 hex digits) of each run's trace, report and station counters.

    Each trace is read first, so every pinned run passes the reader's checks.
    Also counts into ``reached`` the full-queue drops, the retry-limit drops
    by ``retry_limit``, and the flow sources that delivered nothing.
    """
    digest = hashlib.sha256()
    for run in runs:
        net, report = run()
        counters = [(st.enqueued, st.delivered, st.dropped_full, st.dropped_retry,
                     len(st.queue)) for st in net.stations]
        read_frames(net.medium.trace)
        digest.update(repr(net.medium.trace).encode())
        digest.update(repr(report).encode())
        digest.update(repr(counters).encode())
        net.close()
        reached["full-queue drop"] += sum(st.dropped_full for st in net.stations)
        reached["retry drop", net.config.mac.retry_limit] += sum(
            st.dropped_retry for st in net.stations)
        reached["silent flow"] += sum(net.stations[src].delivered == 0 for src, _dst in net.flows)
    return digest.hexdigest()[:16]


@pytest.fixture(scope="module")
def results():
    """name -> (digest, Counter of the paths it reached), for every entry of PINNED.

    In the corpus, the MAC's half-duplex ACK guard, ``Medium.withdraw_access``
    and the Adapt step are counted too, by wrappers that call the originals
    unchanged.
    """
    reached = Counter()
    send_ack, withdraw, apply_header = (Station._send_ack, Medium.withdraw_access,
                                        tokendcf.token.apply_header)

    def counted_send_ack(st, ack):
        if st.medium.is_transmitting(st.sid):
            reached["half-duplex ACK loss"] += 1
        send_ack(st, ack)

    def counted_withdraw(medium, sid):
        reached["withdrawn grant"] += 1
        withdraw(medium, sid)

    def counted_apply_header(schedulers, src, privileged, q_len):
        apply_header(schedulers, src, privileged, q_len)
        for s in schedulers:
            if s.success == s.fail == 0:   # a full window just moved p (or tried to)
                reached["Adapt step", s.params.max_num] += 1

    out = {}

    def run(cases):
        for name, runs in cases.items():
            reached.clear()
            out[name] = (case_digest(runs, reached), +reached)

    run(_cases())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Station, "_send_ack", counted_send_ack)
        mp.setattr(Medium, "withdraw_access", counted_withdraw)
        mp.setattr(tokendcf.token, "apply_header", counted_apply_header)
        run(_corpus())
    return out


PINNED = {
    'clique20-dcf-s1-r0': 'cc3cb4ac1461523d',
    'clique20-dcf-s1-r1': '20ba5bbee6f941f5',
    'clique20-dcf-s7919-r0': '7b26c220cf451b2c',
    'clique20-dcf-s7919-r1': '4d6eb9f36c5219a5',
    'clique20-token_dcf-s1-r0': 'e784d33592c1baa4',
    'clique20-token_dcf-s1-r1': 'd1c6573444836a51',
    'clique20-token_dcf-s7919-r0': '85169d8a2c68e518',
    'clique20-token_dcf-s7919-r1': '25cfd0cd288e536b',
    'clique100-dcf-s1-r0': '62ef55f13061cdaa',
    'clique100-dcf-s1-r1': '492e67b27f95c651',
    'clique100-dcf-s7919-r0': '6c100c4d36562cda',
    'clique100-dcf-s7919-r1': 'f57d6d086dcc4336',
    'clique100-token_dcf-s1-r0': '1991d2d9f94b05d0',
    'clique100-token_dcf-s1-r1': 'a78da7be3c19a258',
    'clique100-token_dcf-s7919-r0': '96d570a00fd2fca9',
    'clique100-token_dcf-s7919-r1': '13bffbc20b382009',
    'multihop800-dcf-s1-r0': '543b09ad7c70bac9',
    'multihop800-dcf-s1-r1': 'fa92d0036123da27',
    'multihop800-dcf-s7919-r0': 'c57b686c821fb56c',
    'multihop800-dcf-s7919-r1': '3ba017a8c5add10b',
    'multihop800-token_dcf-s1-r0': '272f5baf84444bba',
    'multihop800-token_dcf-s1-r1': '007e3b3267037071',
    'multihop800-token_dcf-s7919-r0': 'c6545bcd630de727',
    'multihop800-token_dcf-s7919-r1': '65f40f61641b838a',
    'pareto1500-dcf-s1-r0': '7ffd011220c46063',
    'pareto1500-dcf-s1-r1': '67c464daa0f1b6af',
    'pareto1500-dcf-s7919-r0': 'b8247cba8c02991e',
    'pareto1500-dcf-s7919-r1': '812f8852357bac3c',
    'pareto1500-token_dcf-s1-r0': 'dc2eb1fb89de85ee',
    'pareto1500-token_dcf-s1-r1': '792d60401ceba50b',
    'pareto1500-token_dcf-s7919-r0': '3815c6d20a4fa3e3',
    'pareto1500-token_dcf-s7919-r1': 'c298e84f82272334',
    'two-way-token': '4d0825c18f0501ee',
    'bench-clique-sat-token-s1': 'fdd0df73d90659db',
    'bench-clique-sat-dcf-n100-s1': '0e3eb7450017db9e',
    'bench-multihop-pareto-token-s1': '0dee403f120b5949',
    'bench-clique-sat-token-s7919': 'f4b9ba9ef435528a',
    'bench-clique-sat-dcf-n100-s7919': '55e0533b40d68598',
    'bench-multihop-pareto-token-s7919': '4c98c63a41cdbf54',
    'corpus-000': '2fd02c34fd4f0af9',
    'corpus-001': '5b59c1cfcb46bbc7',
    'corpus-002': '893acd812ce4cab0',
    'corpus-003': 'dc734bdfd70c9a9a',
    'corpus-004': '9faeb61b7b983e78',
    'corpus-005': 'a3480edc70ef97dc',
    'corpus-006': '96a4f2518caae36f',
    'corpus-007': '063a7ddcf76e0602',
    'corpus-008': 'e9e115c6073e7c7b',
    'corpus-009': 'add71845a0c3fee4',
    'corpus-010': 'e749b56cc76a1f5e',
    'corpus-011': 'f520569004945dfe',
    'corpus-012': '077cfb4a011fd60d',
    'corpus-013': '1d0cde29154332b2',
    'corpus-014': '6d6f006658b9238b',
    'corpus-015': 'aa185bddbf97a1e7',
    'corpus-016': '3c9d3218453ae681',
    'corpus-017': '56384882a1b9320f',
    'corpus-018': '7026470c17311cff',
    'corpus-019': 'd120f636f6995f23',
    'corpus-020': 'b46747c50556250b',
    'corpus-021': 'a8da9d14f81a66a4',
    'corpus-022': '44e7fc451a55afa0',
    'corpus-023': '6374c3595af75ea8',
    'corpus-024': '1dbc3513c14afec9',
    'corpus-025': '589fb32846f21535',
    'corpus-026': 'ed1607760251e4b7',
    'corpus-027': 'f50d0b0a66db4b10',
    'corpus-028': '27b16b2760453db6',
    'corpus-029': 'acb864ceef188f1b',
    'corpus-030': 'f7118939e2bd1f94',
    'corpus-031': '82eff13299593df8',
    'corpus-032': '4850e1315f749e12',
    'corpus-033': 'aec6a80906c68a6e',
    'corpus-034': '51bd83f4c9232905',
    'corpus-035': 'b2fe0f1e27e1cd25',
    'corpus-036': 'c51a8212fd5ea892',
    'corpus-037': '4652dbc094f769d6',
    'corpus-038': 'b7f79d9b7ecd561f',
    'corpus-039': 'c3a5894cb42c83d0',
    'corpus-040': 'ddf73d6e77bba40f',
    'corpus-041': '1766d2c9b35a3549',
    'corpus-042': '233846cafbe038c5',
    'corpus-043': 'e54de2984bffda22',
    'corpus-044': '28665c47209b99c5',
    'corpus-045': 'd7b0bff6280f15e6',
    'corpus-046': '1c4dbf1efeae3d72',
    'corpus-047': 'c897b7e909825915',
    'corpus-048': '24a7a93850fe2e41',
    'corpus-049': '8d68bb8ad95fb79e',
    'corpus-050': '04fc164059186793',
    'corpus-051': '0dab7bb15efaa7d1',
    'corpus-052': '93ff6d36572d95fb',
    'corpus-053': '9b3da92c7b1e085b',
    'corpus-054': 'c5def50098fbd5a4',
    'corpus-055': 'a9be2c500630cf5a',
    'corpus-056': '0059a77c56addab9',
    'corpus-057': 'f6c82d483f9007db',
    'corpus-058': 'ef71a44a4bfcdb8b',
    'corpus-059': 'a47df8056a15f298',
    'corpus-060': 'ce20cf047afcda8f',
    'corpus-061': 'b344d9f530ba008d',
    'corpus-062': '5dbadb80a9589ee2',
    'corpus-063': 'fcfa73704986d7b0',
    'corpus-064': '1bf2b7fcfdb3fc79',
    'corpus-065': 'fb0ccb28f7af7ad4',
    'corpus-066': 'b4e4cdc2e76d4e43',
    'corpus-067': '8a23f7a0323ba45c',
    'corpus-068': 'a926996fbc57310d',
    'corpus-069': '1dae0b01e886eb1b',
    'corpus-070': '641b8f9d435226ad',
    'corpus-071': '75b1584c4065d2b9',
    'corpus-072': '85e427059b5d8aef',
    'corpus-073': 'f34dbd50aa121e17',
    'corpus-074': '76cddbf6a8e1bbf1',
    'corpus-075': '8f6c57f80e5f6c33',
    'corpus-076': '872bb565b1ca20b2',
    'corpus-077': '3bf05bd377f87609',
    'corpus-078': 'ed01e1164e7e5a1c',
    'corpus-079': '59b0bca5d00b3995',
    'corpus-080': '1b2e068228a21940',
    'corpus-081': '6d9127823c0ecd91',
    'corpus-082': 'c466d48c6a72120f',
    'corpus-083': '1bf8c8d716ca162b',
    'corpus-084': 'dffc548c6c413b62',
    'corpus-085': '4ed07e7a2bf04e7e',
    'corpus-086': '10d6d5beb0dd5cc1',
    'corpus-087': '1ebf7abd694fd2ef',
    'corpus-088': '2169fe895b81955c',
    'corpus-089': '8b69136bfeff571f',
    'corpus-090': 'c87b4035886c5682',
    'corpus-091': '46b795a53a778237',
    'corpus-092': '2c5d07f22a41583d',
    'corpus-093': 'ee1de2161e794bb9',
    'corpus-094': '69f07eebf579fcd0',
    'corpus-095': '1695ea91e75be02f',
    'corpus-096': '0a215ae7ee88c45f',
    'corpus-097': '3620df1b5da3786e',
    'corpus-098': 'caeeab93c2b4f273',
    'corpus-099': 'e29ad36834916e31',
    'corpus-100': 'e46569c72f52dec2',
    'corpus-101': '7af7482c5de7a8a4',
    'corpus-102': '993b861009e0d184',
    'corpus-103': 'c7e5ed3eae7551f9',
    'corpus-104': '45e353d8e1983096',
    'corpus-105': '66ad79b00c974219',
    'corpus-106': '1f1564483fbdd4be',
    'corpus-107': '1870d899de403c11',
    'corpus-108': '8fe0baeb13ca8de6',
    'corpus-109': 'a05fbcbeac1edb8e',
    'corpus-110': '483491bfc8c614fb',
    'corpus-111': '3f8e377d03cb1801',
    'corpus-112': '78d7362a3bba5d5d',
    'corpus-113': '2d050d7901f8dd00',
    'corpus-114': 'ef10f7d10cc16641',
    'corpus-115': '387162387ab6f522',
    'corpus-116': '7bd1242ec7103607',
    'corpus-117': 'bd63f922fc863ec9',
    'corpus-118': '4c8d7bb33c14c6cb',
    'corpus-119': '155431b364569956',
    'corpus-120': '9e418e970bc7ed57',
    'corpus-121': 'b1e5f05ea4b851f9',
    'corpus-122': '241edc1c9c3ecbe8',
    'corpus-123': '6a23b1b63df447ef',
    'corpus-124': '55ec7a73b73936ab',
    'corpus-125': '89f78e800bc4270f',
    'corpus-126': 'a460d38a25e3974e',
    'corpus-127': '67fac781789c76c6',
    'corpus-128': '3e5c76d8073a5653',
    'corpus-129': '2200211f5be34b62',
    'corpus-130': 'da14ea46931f2f94',
    'corpus-131': '481b3cf79eebb64d',
    'corpus-132': '03c93a410e358f60',
    'corpus-133': 'f961f5db20ecbf28',
    'corpus-134': '4ec3b9883d5c347c',
    'corpus-135': '39c36f447acb7522',
    'corpus-136': 'abc84396f7a56f53',
    'corpus-137': '5fe64d09ebd2271d',
    'corpus-138': 'c4b353f8a1c60304',
    'corpus-139': '4dc7954e2651484d',
    'corpus-140': '418bf95c262edc73',
    'corpus-141': 'be5a3d6ea19ea0a0',
    'corpus-142': '4312510098b9d101',
    'corpus-143': 'c7603077c3d4272f',
    'corpus-144': '90e543aa972977fa',
    'corpus-145': '0ad8f270ab33bda8',
    'corpus-146': 'b6960f9e6e48a8f2',
    'corpus-147': '41c4b1091d425494',
    'corpus-148': '4aac87d4184172f3',
    'corpus-149': 'ea9e79f2e4066166',
    'corpus-150': 'a01db817536993be',
    'corpus-151': 'cacdd1ca25e3b28d',
    'corpus-152': 'fbec9a24f8c427ef',
    'corpus-153': '4eea21de2f4a9af5',
    'corpus-154': '012614ab0821240d',
    'corpus-155': 'e78b7909c3b7c6ce',
    'corpus-156': '6c8a088bf3ab9444',
    'corpus-157': 'ea4e6c3822c55389',
    'corpus-158': '90c53eb488ffec6d',
    'corpus-159': '53409654832ac463',
    'corpus-160': 'f92bdadd55993355',
    'corpus-161': '26f11fb89337b4a2',
    'corpus-162': 'd00c9c56247926b8',
    'corpus-163': '761f41789dc85f43',
    'corpus-164': 'bd2045711497a2ee',
    'corpus-165': '0bbe11a85555a47a',
    'corpus-166': '177f50dc052fb0dd',
    'corpus-167': 'ed65370866d0d131',
    'corpus-168': '6a9969d3f506a7b3',
    'corpus-169': '690a928bbcc0293e',
    'corpus-170': '0ccc11ade5557963',
    'corpus-171': 'a4ecffdd28148aa0',
    'corpus-172': '5355e3b3b8f011a9',
    'corpus-173': 'bbaeabe7d07ea9c1',
    'corpus-174': 'cbbdb1246b7e9e14',
    'corpus-175': '5e87039400c30c31',
    'corpus-176': '4ab2f1c2952de80d',
    'corpus-177': 'ffd8329ce511d523',
    'corpus-178': '574f387af6953f04',
    'corpus-179': '56dd8d5cb0e48cf5',
    'corpus-180': '7ced8805231b8553',
    'corpus-181': 'dbdecc0527737bc9',
    'corpus-182': 'fa9fbcad6684cb5c',
    'corpus-183': 'c37278197664bc6c',
    'corpus-184': '94dd336852043f53',
    'corpus-185': 'c8e6d5ea5c0751bf',
    'corpus-186': 'f8816ebecccfb492',
    'corpus-187': 'b6474201cf2afae4',
    'corpus-188': '628bc4e78263aba3',
    'corpus-189': '201e064291cd9877',
    'corpus-190': '167000fc46c4c632',
    'corpus-191': 'a471b4b5d79ee4a1',
    'corpus-192': 'fd9f536642d5443b',
    'corpus-193': '48a83f090c2e5235',
    'corpus-194': '00ee9a3412a8087b',
    'corpus-195': 'a14002e018a7f835',
    'corpus-196': '6a2ac6c37bb1d71c',
    'corpus-197': 'a5bf21707ee025bb',
    'corpus-198': '6223e1b2de54ba93',
    'corpus-199': '7f640d18002b3652',
    'corpus-200': '36003a99196e02e8',
    'corpus-201': '020ec91980f917d1',
    'corpus-202': 'b9a5ac0aeb10dd79',
    'corpus-203': '0d3ad91029cb2cab',
    'corpus-204': '9f6e440ffe0aafa1',
    'corpus-205': 'f8ae9f2ee94c5688',
    'corpus-206': '5fb66a5354931295',
    'corpus-207': 'da329144e2483fec',
    'corpus-208': '4fc14f3d3a6103f1',
    'corpus-209': '663c738eaa18e31b',
    'corpus-210': '62eb62df319917d4',
    'corpus-211': '1f3ff4c76057c4ef',
    'corpus-212': 'bdb04a5600d3995f',
    'corpus-213': '81ba9ba9fb80c121',
    'corpus-214': 'ca9260df2933fb51',
    'corpus-215': '8277bc809827731b',
    'corpus-216': '9ad865f63559605f',
    'corpus-217': '8253d16cc08f159a',
    'corpus-218': '238a41b62af54701',
    'corpus-219': 'b56b6b55931fb3ea',
    'corpus-220': '00673d44b21ded51',
    'corpus-221': '171af684bc3b4e2e',
    'corpus-222': 'e221e96d76fdc86c',
    'corpus-223': 'c83a4126176018b3',
    'corpus-224': '057fa6a88d87a929',
    'corpus-225': '5f91e08fdf54f9ea',
    'corpus-226': '19fc4e88092ee65d',
    'corpus-227': '56058045281d2141',
    'corpus-228': '2d00b175765e652f',
    'corpus-229': '6bc6f6350590df0c',
    'corpus-230': '225a0de41a29ff5f',
    'corpus-231': 'e59c9a5cdd243dde',
    'corpus-232': '734101d0f472adf5',
    'corpus-233': '726f7179dea24ac6',
    'corpus-234': '5d783b59a7b466f2',
    'corpus-235': '5cf05864096dc626',
    'corpus-236': 'd0c70febea38c5b7',
    'corpus-237': 'fee5885acb41dd6e',
    'corpus-238': 'f8800b2d93fcfc06',
    'corpus-239': '582636dc654c419e',
    'corpus-240': '75bc35f8a1cb71fc',
    'corpus-241': '7f17430368044cf5',
    'corpus-242': '0e747ee1ac834616',
    'corpus-243': '38aabae4de946cbe',
    'corpus-244': '75fab188e445e7cd',
    'corpus-245': '1ed370c3a26ca7aa',
    'corpus-246': 'd325e2e8dc23e495',
    'corpus-247': 'd77ff5ac7b92ec1d',
    'corpus-248': '8f45a3ad5981c970',
    'corpus-249': '56738ecfba68bcdd',
    'corpus-250': 'e2b94f34e137c8ec',
    'corpus-251': 'b2756de9f91af379',
    'corpus-252': 'a7c7485a506c645a',
    'corpus-253': '480f128761ba88c3',
    'corpus-254': '13cfb473fb16c93f',
    'corpus-255': '8b32c58081e7fc60',
    'corpus-256': 'fddf48c8084b5437',
    'corpus-257': 'a7a3ca3f4d58931a',
    'corpus-258': '7cb3adad340bf6e4',
    'corpus-259': '0f24caac6a2de1ab',
    'corpus-260': '65d7a7459e376653',
    'corpus-261': '94608ed57bef6ade',
    'corpus-262': 'a45cda1f015a9315',
    'corpus-263': 'dbbb7bbd27beb779',
    'corpus-264': '48ff92d7d51e3ee9',
    'corpus-265': '0450120aea6b4155',
    'corpus-266': 'c89546bb9b9786ef',
    'corpus-267': '30370306553fbb46',
    'corpus-268': 'ebe06313b3479d49',
    'corpus-269': '1f3a755a6db1286d',
    'corpus-270': 'f20bdac3321543c9',
    'corpus-271': 'f58c4776c62ff79b',
    'corpus-272': '70f636aeeffcf2c6',
    'corpus-273': 'c6f281a186a6291b',
    'corpus-274': 'bedeb4bdb51a979b',
    'corpus-275': 'a41fedcd9f773902',
    'corpus-276': '41eace17b07536b3',
    'corpus-277': '459bafb0d70ec4b5',
    'corpus-278': '22598403672ea575',
    'corpus-279': '64574d5e1d1638c0',
    'corpus-280': 'e938bc51a61f188e',
    'corpus-281': '47c209e5cb7b522f',
    'corpus-282': 'd68c804e9246e021',
    'corpus-283': '071ccbd4bf3d04a0',
    'corpus-284': 'ad8cbdc08c0777fb',
    'corpus-285': '92427c846a78425d',
    'corpus-286': '65cfacdc58f2892b',
    'corpus-287': '7e741b0e13a95185',
    'corpus-288': '9a0b3c21ead983f5',
    'corpus-289': 'df2afec626eda564',
    'corpus-290': '23f4a5ab5e70ad00',
    'corpus-291': 'dc61284936f2646d',
    'corpus-292': '8c29763d222ce9d4',
    'corpus-293': '821948d11647fffc',
    'corpus-294': '76d7c85ec929daf0',
    'corpus-295': 'c4b632ab1f9293c5',
    'corpus-296': '6b13dc62bdbabf7c',
    'corpus-297': '4d53db97101ad675',
    'corpus-298': '8e364e06cec94185',
    'corpus-299': 'f54818856f498041',
    'corpus-two-way-00': '04ba010aa06f4fc2',
    'corpus-two-way-01': 'a8ff1debda0cb119',
    'corpus-two-way-02': '6d27bbf9a3b4ec8f',
    'corpus-two-way-03': 'b29853073e6c5e85',
    'corpus-two-way-04': '54624bdb81dc8a08',
    'corpus-two-way-05': '6fae51cd89cf61c2',
    'corpus-two-way-06': 'b2404cfe2d1ce374',
    'corpus-two-way-07': 'a19b001f2e2dbfd6',
    'corpus-two-way-08': '5fa6a730a461bfc1',
    'corpus-two-way-09': '8690041826880791',
    'corpus-two-way-10': '8180e1c81c48845b',
    'corpus-two-way-11': '3f4e73dd91ea4be3',
    'corpus-two-way-12': '33f9d6a0c857b4a8',
    'corpus-two-way-13': 'ce7bbaf1ba967aa8',
    'corpus-two-way-14': 'af1d8c680ab1b0e3',
    'corpus-two-way-15': 'fdc7866e3b1d9a60',
    'corpus-two-way-16': '9223d3827c746e9d',
    'corpus-two-way-17': 'b7b992ca1a934307',
    'corpus-two-way-18': '30ef9ef00ef82079',
    'corpus-two-way-19': '4d82cbc29c6b70cf',
    'corpus-two-way-20': '8f3b3b45b88ec214',
    'corpus-two-way-21': '5cada7d2ef29f00f',
    'corpus-two-way-22': 'ae53f90432be77cb',
    'corpus-two-way-23': '15ee22f4aad58313',
    'corpus-two-way-24': '5314b05a2672ec4b',
    'corpus-two-way-25': 'eb92d33566947a18',
    'corpus-two-way-26': 'f8000511796a5ca6',
    'corpus-two-way-27': '535e087b712587e4',
    'corpus-two-way-28': '4c4c23050af5e94d',
    'corpus-two-way-29': '2b96f11c80d82e0a',
    'corpus-two-way-30': '2e65275b1593f4d1',
    'corpus-two-way-31': 'ff7365ac4db03795',
    'corpus-two-way-32': 'c19b4ab3998668b0',
    'corpus-two-way-33': '15e61145b4127ea7',
    'corpus-two-way-34': '0b5437315c291eb5',
    'corpus-two-way-35': '5335f9e329cc8fc1',
    'corpus-two-way-36': '6d6713c2329ddf01',
    'corpus-two-way-37': 'eb23271a4ad6de8d',
    'corpus-two-way-38': 'f152d0f5b022f827',
    'corpus-two-way-39': '197ac98948f5acb1',
}


def test_golden_traces_unchanged(results):
    got = {name: digest for name, (digest, _reached) in results.items()}
    if got != PINNED:
        moved = [name for name in got if got[name] != PINNED.get(name)]
        gone = [name for name in PINNED if name not in got]
        # on stdout, unprefixed, so that it pastes over the table above
        print("PINNED = {\n" + "".join(f"    {name!r}: {digest!r},\n"
                                       for name, digest in got.items()) + "}")
        raise AssertionError(f"{len(moved)} of {len(got)} trace digests differ: {moved}; "
                             f"pinned but not run: {gone}; new table on stdout")


def test_two_way_flows_all_deliver(results):
    # the two-way entry pins addressed DATA reaching token schedulers only
    # while every flow delivers
    assert results["two-way-token"][1]["silent flow"] == 0


def test_corpus_reaches_the_paths_the_golden_cases_miss(results):
    # the golden cases, all at default MAC and token parameters, drop no
    # packet on a full queue or at a retry limit below 7, and their sinks
    # send no DATA, so none hits the half-duplex ACK guard; they withdraw
    # grants, but only at defaults
    reached = Counter()
    for name, (_digest, paths) in results.items():
        if name.startswith("corpus-"):
            reached.update(paths)
    for path in ("full-queue drop", "half-duplex ACK loss", ("retry drop", 0),
                 ("retry drop", 1), "withdrawn grant", ("Adapt step", 5)):
        assert reached[path] > 0, path
