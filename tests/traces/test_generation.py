"""Golden pins, exact lengths and the no-hash guard of the stream generators.

Every SHA-256 below was recorded from the generators as they stood before
``make_reference_stream`` stopped calling ``np.unique`` and
``pointer_chase`` stopped walking one Python step per reference, so the
array code must reproduce the old streams byte for byte.  A digest covers
the little-endian addresses followed by the ``is_instruction`` mask as one
byte per reference.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import distinct_address_ratio
from repro.analysis.reuse import working_set_sizes
from repro.traces import synthetic
from repro.traces.spec_like import SPEC_LIKE_NAMES, get_workload
from repro.traces.trace import AddressTrace
from repro.traces.zoo import ZOO_NAMES

ALL_WORKLOADS = SPEC_LIKE_NAMES + ZOO_NAMES


def _digest(stream) -> str:
    digest = hashlib.sha256(np.ascontiguousarray(stream.addresses, dtype="<u8").tobytes())
    digest.update(np.ascontiguousarray(stream.is_instruction, dtype=np.uint8).tobytes())
    return digest.hexdigest()


def _array_digest(addresses) -> str:
    return hashlib.sha256(np.ascontiguousarray(addresses, dtype="<u8").tobytes()).hexdigest()


#: ``get_workload(name).reference_stream(30_000, seed=1)`` for all 36 workloads.
GENERATOR_SHA256 = {
    "400.perlbench": "a135e1a1dff596f994ab40facc0fd013d691df7bcbe5de5fe91e72a9d8db9777",
    "401.bzip2": "6b7537ac3baf2117551285b7c4061948866f10c5aebadfcc6b3f00bddb4352c6",
    "403.gcc": "21bd5b37498203f4e8c874fb0969522c646a04edff05391f9907fd8b0bdf4a0c",
    "410.bwaves": "fdd2d0cbc4ea129c4e5bd702462e43e23021ed7c144838af268eaed38259351b",
    "429.mcf": "3ac6a74ab35746c356e4e5165b435651bd8f060cc20bd87d0c759c3264e70416",
    "433.milc": "9ea0d5685d6166945345f8766b20952f0eae9b0cc9e717300e11186e2f797072",
    "434.zeusmp": "3cedcc7e2458a4f03506ed78e858874e66652c843d0ef21814ed0b7fd5b263d7",
    "435.gromacs": "a2c02c389266196f87d1dd8114ee61ccf7dabcb90f76a60ef08568230692f2d8",
    "444.namd": "9bce5466c93ecc07a36d1e9aecbeadcd1f18b9bd6e048dd5df26b2cb175e6d64",
    "445.gobmk": "e1ef70016e43c2b67b429bd61e70da9ff18a33fd95db864e7a56f86e0ae477cf",
    "447.dealII": "e1e4aef0517b0afebf2fd8ef6608c329425f4f7b4f0114339f7ee9e28081c107",
    "450.soplex": "464542d990f9f087f0f5dc70f75033c0a535495340e26a97fe38d061b168e60e",
    "453.povray": "628390755a253389d7932a7205fd62763e7ad34712bae4edecc019ac5f5728dc",
    "456.hmmer": "0cd5cd1211f25cbe5f26ff2b58107f18b64579c415a100384c53aecb9436ee12",
    "458.sjeng": "aaa1d0edbd1bdf8c17c746594c1e09b5a44b0c7eee3998839251b2b6af3414e5",
    "462.libquantum": "3bdfb0beb55617b7b7188a364e017f396145ea14e720815a9216176292418638",
    "464.h264ref": "af802e7a0d2168c00faedf33349e2e840d21a5c92b07717bb5117bce922045a9",
    "470.lbm": "35f6abcd54673dfdf1dea36f88aeadbbe77b4f40798a7d2abdd90d3ef542ac24",
    "471.omnetpp": "fc60811c1828a1025a29107969d2dd589b793e2ec1e8fd0311a9da0b87d6a0ed",
    "473.astar": "43365c2c5e6fc3ed2612b6f2ab47cd25690829433d0d143156345ce13451ee1e",
    "482.sphinx3": "323b6e3b295445abf2b3dcb27a42548a74f66c22c9d51c9fa818dae38f2eed8b",
    "483.xalancbmk": "220abd0bf111064786316e6c70e4650b6d03f75b73cc0a74b4e1a5fcfb82b996",
    "mix1": "9747ae15d7cb2e88402880d31a60f49ea76fd29764c0227ae986dda1a005c41e",
    "mix2": "df03ccac546b9a9132f7c6f96696a575ee26b857be7ddfceb9d774846d829a78",
    "mix3": "25fb2347dbfe0ddcc173529db47f47953098395260be4d05dd0abe5f8367b148",
    "mix4": "bd2ad7ce131be3772dfdf51b0208c02d1fdf4aeb1dc50dbe883cbf0b62662484",
    "mix5": "799a23faa8bd875e78874f9b2f5df2e510aa44cb1a3935da079f1e826062eefc",
    "mix6": "c985c72ed5f83f558a2ba9fdec6ba52ab85ed06495a10d4135f7e6a924497459",
    "mix7": "12c863b579baed71e55411b2210aea0a9d7a8855f688b3ae55da5831d7db7dbf",
    "gap.bfs": "5da3b654dca65afbd76016e6de53d9a2f08d5057cd3606fc7d23f7a8e746dfbe",
    "gap.sssp": "28903d6cef51be2eb7c15f329f8ed5ea23ace416de825931578431763524c87d",
    "gap.cc": "25363840c1fc9d7a6c59b97378a562a0ffd903bacf7274be70326ad15a87f535",
    "stream.add": "d8b43441ffc9d2ae0e9a30a231b7feb14040061e7a80673aecac5ee45f2a0f00",
    "stream.copy": "729826b6f9fab1452ded0bd3786189a64e95ebe2c0b7afe6c57e15ddcc12e72f",
    "stream.scale": "0e786c3428411606f4713dd9ac2a5962fc7fc074345a064d25b14b3b44d55b6e",
    "stream.triad": "ba7d89f890d9aec3737e716095bae6181090875d455617a6ca99a0ca507ecc49",
}

#: The benchmark's four sources, ``reference_stream(1_100_000, seed=1)``.
SOURCE_SHA256 = {
    "429.mcf": "6ba5b6c8283a1b74fb0f5fc67a7c3611240c5c01433a97113ddc4ce52cf8d136",
    "403.gcc": "97a8d457bf17091d1d5a2c3ae728f37eb4f96a591d45230ec59044e5e9c91273",
    "433.milc": "8850ed3905349d46d11e567804b5ed75f894cff9718cd9a1b82fd6012f795df4",
    "410.bwaves": "8ff57aaf36c9b064666c3d60564b5d8f7d1198ca75e5c03ef47bdf55a04a1a17",
}

#: ``make_reference_stream(random_working_set(n, 64, seed=n),
#: instruction_ratio=ratio, seed=7)`` keyed ``"n/ratio"``.
INTERLEAVE_SHA256 = {
    "1/0": "ce3a2ae2e6b39750d88bdb6a4a206500b4826d6d9242bfb70862fe12f56e92b1",
    "1/0.3": "ce3a2ae2e6b39750d88bdb6a4a206500b4826d6d9242bfb70862fe12f56e92b1",
    "1/1": "b92c9c9fb572cbead5cf59bc4267c24158e2b6492d8d889690a034a0996960e4",
    "1/1.7": "14341ea962411d379d49fdf37cb9af4e68e3978c9ae441ce378b9ef4b97b2718",
    "1/3": "91550207ecde3ab1ac0ddacc77cdce7912f67eff846aa4a16e41a7627de2ff4e",
    "2/0": "95cb7b350f28ad9a6c7345cd627c740f9681dcddf4b6a300ad5c83c11781f888",
    "2/0.3": "2f0fa21042f6dd02c2f8014aba465da9b73c56905c831392bf341f7dd10d627f",
    "2/1": "d8ddfe1aa84e4f04dc3e3ea33ab13e245317ba50ad884565db42767953de33ac",
    "2/1.7": "b1334fc0b83bf942c68d6afd5a8cc6908934f11a01c0a477398eba6561debf96",
    "2/3": "a1c82f4d5312c25357ea6fc7cb15a3f1307332995c52771e0a3f117659c410b0",
    "5/0": "a3a5eba876591bc9557fbdb4ad96a2d9d1516a8f13e66f850ab5b0bfeb5f6884",
    "5/0.3": "5edd034cc2876c73ade8abf27086a90adf8444db5fb0f69b29c8a1ba1adec161",
    "5/1": "235756186d558e6ad67b779a427ccf259957e45fba3987a33443a9cc666762ec",
    "5/1.7": "ceff82fb8758ed6c2b777cf35d7ba849d0195af47e1263a6ecab528d1ffdac71",
    "5/3": "20491bd2621fc34d2116bbd8f1874dd39a00baae5e86a185e1eb225a1fe4b77f",
    "1000/0": "557372138275e4058feba33cdadb292f82fb96231082068decdeddc9c73516c8",
    "1000/0.3": "b63c44dd6a17fc041eb5e25e0e06f7b0074f0597cd2d957dcb9d90006c2b7e8c",
    "1000/1": "cc0ba6294a36e49d5fe773569131bc99658f26e7b9f4e81724852dcff26b4159",
    "1000/1.7": "462e90423d85e148322b14b091a01b6cabe029b7558abd1a7421a63ff38f6d5f",
    "1000/3": "bfc52a8fc2f0b9adda3fb52775e00ba04cdabe1395a81fec967e378c7f23ad91",
}

#: ``pointer_chase(length, num_nodes, seed=3)`` keyed ``"length/num_nodes"``
#: (addresses only): walks shorter than, as long as and longer than the list.
POINTER_CHASE_SHA256 = {
    "5/40": "95e88e0d8bb98a122a34f33eedad3a470297d51853b9b46cd778e9b8a013041d",
    "40/40": "f5804c8b4a9f3e501255178fe550a51d4df0fbc7319d2d32a645696efbb73734",
    "41/40": "1f9914f8c671526c938570c8e56a5e63d3f0f7a9e66c8093d46d9fa068cca3f9",
    "1000/40": "25aaf41c004f48b4006b5d6b1d76000fabba0f5dbf7ba4a94bac305bad065e12",
    "1/1": "8c6b2557f3a57e306294ed16734f735cd563ed70c3a4861c019b1f9ff0782502",
    "7/1": "3fcbee4596380967f22fb5abdcbec89aaef8d5985ff89cf7a7c25e17c1b5747f",
}


class TestGoldenStreams:
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_workload_stream(self, name):
        assert _digest(get_workload(name).reference_stream(30_000, seed=1)) == GENERATOR_SHA256[name]

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(SOURCE_SHA256))
    def test_benchmark_source_at_full_scale(self, name):
        assert _digest(get_workload(name).reference_stream(1_100_000, seed=1)) == SOURCE_SHA256[name]

    @pytest.mark.parametrize("case", sorted(INTERLEAVE_SHA256))
    def test_instruction_interleave(self, case):
        length, ratio = case.split("/")
        data = synthetic.random_working_set(int(length), working_set_blocks=64, seed=int(length))
        stream = synthetic.make_reference_stream(data, instruction_ratio=float(ratio), seed=7)
        assert _digest(stream) == INTERLEAVE_SHA256[case]

    @pytest.mark.parametrize("case", sorted(POINTER_CHASE_SHA256))
    def test_pointer_chase(self, case):
        length, nodes = (int(part) for part in case.split("/"))
        addresses = synthetic.pointer_chase(length, num_nodes=nodes, seed=3)
        assert _array_digest(addresses) == POINTER_CHASE_SHA256[case]


def _stepwise_chase(length, num_nodes, seed, base=0x5000_0000, node_bytes=64):
    """One successor step per reference: the definition of the walk."""
    successor = np.random.default_rng(seed).permutation(num_nodes).tolist()
    nodes, node = [], 0
    for _ in range(length):
        nodes.append(node)
        node = successor[node]
    return [base + node * node_bytes for node in nodes]


class TestPointerChaseWalk:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_a_stepwise_walk(self, length, num_nodes, seed):
        """The blocked walk visits node ``successor^k(0)`` at step ``k``,
        whether it stops squaring early (many nodes) or late (few)."""
        addresses = synthetic.pointer_chase(length, num_nodes=num_nodes, seed=seed)
        assert addresses.tolist() == _stepwise_chase(length, num_nodes, seed)


class TestInstructionSlots:
    def test_collided_positions_fall_back_to_the_first_free_slots(self, monkeypatch):
        """If truncating the evenly spaced positions ever collides, the
        missing fetches take the lowest free slots, as the ``np.unique`` +
        ``np.setdiff1d`` fill did."""
        collided = np.array([0, 0, 3, 3, 3, 9], dtype=np.float64)
        monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: collided)
        data = np.arange(100, 106, dtype=np.uint64)
        stream = synthetic.make_reference_stream(data, instruction_ratio=1.0, seed=2)
        # Unique positions {0, 3, 9}, then the three lowest free slots.
        expected = sorted({0, 3, 9} | {1, 2, 4})
        assert np.flatnonzero(stream.is_instruction).tolist() == expected
        assert np.array_equal(stream.data_addresses, data)
        code = synthetic.code_stream(6, seed=2)
        assert np.array_equal(stream.instruction_addresses, code)


class TestExactLengths:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(ALL_WORKLOADS),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=7),
    )
    @example("403.gcc", 5, 0)
    @example("mix3", 10, 1)
    def test_stream_holds_exactly_the_requested_references(self, name, length, seed):
        """``length`` data references and as many instruction fetches, even
        below a workload's phase or core count."""
        stream = get_workload(name).reference_stream(length, seed=seed)
        assert stream.data_addresses.size == length
        assert len(stream) == 2 * length


def _refuse(*args, **kwargs):
    raise AssertionError("hash-based np.unique/np.setdiff1d called")


class TestNoHashPath:
    """NumPy >= 2.3 hashes in ``np.unique``; the generators and the distinct
    counts must not reach it (nor ``np.setdiff1d``, which calls it)."""

    @pytest.fixture(autouse=True)
    def _no_unique(self, monkeypatch):
        monkeypatch.setattr(np, "unique", _refuse)
        monkeypatch.setattr(np, "setdiff1d", _refuse)

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_workload_generators(self, name):
        assert len(get_workload(name).reference_stream(2_000, seed=1)) == 4_000

    def test_primitive_generators(self):
        streams = [
            synthetic.sequential_stream(100),
            synthetic.strided_stream(100, wrap_bytes=1024),
            synthetic.multi_stream(100, bases=[0, 1 << 20]),
            synthetic.loop_nest(100, rows=8, cols=8, column_major=True),
            synthetic.random_working_set(100, working_set_blocks=16),
            synthetic.pointer_chase(100, num_nodes=30),
            synthetic.gups_updates(100),
            synthetic.stack_accesses(100),
            synthetic.region_mixture(100, regions=[(0, 4096), (1 << 20, 4096)]),
            synthetic.code_stream(100),
        ]
        combined = synthetic.phased_stream(streams)
        assert len(synthetic.make_reference_stream(combined, instruction_ratio=1.7)) == 2_700

    def test_distinct_counts(self):
        values = np.array([5, 1, 5, 9, 1, 1], dtype=np.uint64)
        assert AddressTrace(values).distinct_addresses() == 3
        assert distinct_address_ratio(values[:2], values) == pytest.approx(2 / 3)
        assert working_set_sizes(values, window=4) == [3, 1]
