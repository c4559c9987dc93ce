"""Pinned digests of every generated trace.

A trace is a pure function of its workload's phase patterns and one seeded
RNG, so a change to any pattern's addresses, write flags or RNG call order
changes some benchmark's trace.  That is a model change, not a refactor: the
digests below pin the traces every implementation of the patterns must
reproduce.  Each entry is the sha256 of the packed addresses (little-endian
``uint64``) and of the write-flag bytes, for

* ``capture(20_000)`` of all twelve benchmarks at seeds 1234 and 4321;
* the same runs streamed as ``stream(20_000, 7_001)``, windows concatenated;
* ``SyntheticWorkload`` at its defaults and at each version-locality point of
  the Trip-format ablation, built as ``trip_format_rows`` builds it.

A change that alters a trace on purpose updates this file in the same commit
and says why.
"""

import sys
from array import array
from hashlib import sha256

import pytest

from repro.experiments.ablations import LOCALITIES
from repro.workloads.registry import WORKLOAD_NAMES, get_workload
from repro.workloads.synthetic import SyntheticWorkload

ACCESSES = 20_000
WINDOW = 7_001

TRACES = {
    ("bsw", 1234): (
        "aa62857b99974dc137478e5301b3a2eae3107fbda0f8b294d83e5af660ec7408",
        "df3e871e015925a4c5d5d4b439dd34da0b75fb0a8d31384d429bd67f4d82a75a",
    ),
    ("chain", 1234): (
        "5d6e3f53e9b7cbc57e135a60e6e6f754c1631451ede78646415247383ae46fab",
        "4560631208abd0f1f35cf7c78bb2b1aa610695be3aff61e26948fbeef63f1d90",
    ),
    ("dbg", 1234): (
        "1f46044c6c6464c068c2a54b1b8948f47c9a3ccdbc72cb363689a5919837f56f",
        "e8bf6f7d48c0c1a6d8cc89f28cd3289bb82b7215df6c604259c847cb70762a95",
    ),
    ("fmi", 1234): (
        "c2f4249b301299f104a4b20b154c0c9d34a952f060906ab7d03fd14580bac5b5",
        "8c17f28c0f245140bbcd66b8e73545335506729220b05ee01afce8c516751e11",
    ),
    ("pileup", 1234): (
        "e540c781158dfbb9ad8a068fb47d3a4ae2851c299da77d37d0590accac98ee16",
        "fee1d3696e420702af84b8d021803a119520c407d0c80b23d85edc1d5cdba92c",
    ),
    ("bfs", 1234): (
        "f27460699c3c82fa7fcb47f24e742851b123596ce48b0fbf5cbbdd5876cfc1a2",
        "a65c9a656587692876245353abf3db80eab571b6d6cdcd33f694c160a8d63e10",
    ),
    ("pr", 1234): (
        "c5ef7a520869cf85ce519332d26fd83a90adaa02008b9e676ed9cf7ebeccabd0",
        "1a8d278a6f9671d002cc46a57ce647615ddf2d1adcc2d53495b6e69479bbf266",
    ),
    ("sssp", 1234): (
        "518a3d14d3efec2060788ffb26e9ea99782e32c48b92c8eaa3f245ad554325de",
        "15465558cc7a2f8050c4883e20331206aa3bf524426990a7dd05dda7a233cc75",
    ),
    ("llama2-gen", 1234): (
        "f2ea96a4a4cb93075fb4d25b7703fa19afca5a04dbad409c48ec851b9db135da",
        "869a1c25135d33e9bdf9b725da6917ad0a7cf6881182c74f31fa445017253c33",
    ),
    ("redis", 1234): (
        "ea1bf039d63b472f9b63ef634e254b3a1b6558e9b762ce7e42b47700f5e042dd",
        "6ac7e4ca3607cb53ff11b50b544e48c02dd8f36a75185fcb7b0c298ca4e66020",
    ),
    ("memcached", 1234): (
        "9caa3004026ba0a6b613d9033b2288ee3e1d238f93b757f5925d693a7991fe36",
        "329b503562feb6fedf80c26764f58d0a75134865b13f6c00efbbd6905b0285cf",
    ),
    ("hyrise", 1234): (
        "a050989dd98833d4cb2b2841cb87649684a636589ea4e4b81f74aa3035b205ec",
        "0e063e292e38012a9fb6b8930fa6e2f72264f052292a4bfcb6eac30bd0c16e6f",
    ),
    ("bsw", 4321): (
        "a4c9ef0ebd2713672fb3a29b35f1698d29fd31d2ee84c7b0dfe97d1f6771e0b2",
        "c8eadaac0150ebb91bbcfb7d25971294c5db381c84b9418cdd552b274284bb5e",
    ),
    ("chain", 4321): (
        "fdd957fa33eb7b754c45fbd2d70f255c7d84f61afd1553498090010bc5abaf00",
        "4560631208abd0f1f35cf7c78bb2b1aa610695be3aff61e26948fbeef63f1d90",
    ),
    ("dbg", 4321): (
        "08fee73a323e79708442275d03104da63db4800e0d89499603b3f2195a1bf223",
        "e8bf6f7d48c0c1a6d8cc89f28cd3289bb82b7215df6c604259c847cb70762a95",
    ),
    ("fmi", 4321): (
        "277fa0a213a18ead72989a24e7107eb58ac9487f66c830debdd7f84937842096",
        "17446c9fd33ce27a9f8c1e32d63e4826e00ecb9c272524a611ee133cd2a8018e",
    ),
    ("pileup", 4321): (
        "1ab3b1e00cc765b00a6e42fad986ecaa7a193fd544a4561d4b59624b661ea592",
        "fee1d3696e420702af84b8d021803a119520c407d0c80b23d85edc1d5cdba92c",
    ),
    ("bfs", 4321): (
        "b42450c576fbbb437430ab17cd859d50d9bf269fbf779fb6c04a3baef273743c",
        "0d6e7876ea84c4419fc45357992b5b029c984d93dd0e251832bf64a4a8f7158f",
    ),
    ("pr", 4321): (
        "b6bc0dd2aaff22ec634ca3d350bccd9f1f53e02e57bc927a398961946a150f41",
        "958df34469de39aafbed8dbd74ec2a0ba9953ac63e087f7956a280228375a8c2",
    ),
    ("sssp", 4321): (
        "72855f85cae3ace87956b25d4dcd3b8e505214761a55c7b1ae838e2a33e57d6a",
        "383fe703681cf2177e05e6aaed8fd5a114e1e636f984d181a1288f4d37cdbc87",
    ),
    ("llama2-gen", 4321): (
        "f2ea96a4a4cb93075fb4d25b7703fa19afca5a04dbad409c48ec851b9db135da",
        "869a1c25135d33e9bdf9b725da6917ad0a7cf6881182c74f31fa445017253c33",
    ),
    ("redis", 4321): (
        "0075f4af8df720b745533a9d2d5539ed99878ba40aafc425043ae01a1fca29ed",
        "6ac7e4ca3607cb53ff11b50b544e48c02dd8f36a75185fcb7b0c298ca4e66020",
    ),
    ("memcached", 4321): (
        "4c9ae1a04d0dd104624c47c85e9686a310b5176fffca302f8046efc2d9ec9217",
        "329b503562feb6fedf80c26764f58d0a75134865b13f6c00efbbd6905b0285cf",
    ),
    ("hyrise", 4321): (
        "bad9d3b4497ffe7ef3eaf71425726d8f925fc5d156b7ae6848875b75bfb2c764",
        "7421e8074c5a7f252875be530353a7429285b21be9bbf203e33c89ff378ac2dd",
    ),
}
SYNTHETIC = {
    None: (
        "885f5ff699d8c231aac9e200acc5d3854c34d675c71ce1950bae46baf81237ad",
        "34962b1cf3ce68ec3192e7037b0606c9546ca3ab6158c0b7e40070b64d5c5334",
    ),
    1.0: (
        "d831b24f2d5ebca510d4523f3721da2a8d3d51690134dcc060460fe938aae1d6",
        "b473271113c7461a8fe3eadb8fb59f95ba13729e8d993d834162c6fdbddeac47",
    ),
    0.7: (
        "1da6e0ae8d8eb92101025ca86f9a2c5d3a0c8f87150dbc3bbf4c24d1598dfe21",
        "6854b7fba474309cb4db3ae6843389e4d23104f81cb5c0e00f81bff7ae45740e",
    ),
    0.3: (
        "062f56afd877d7f26813a0199dcd99f7591483d0fe047fd55296247af56a4097",
        "e4612281c11a57a705d549c810c76c11f80ec97c77960e463efe8ef3309f6dee",
    ),
}


def digests(addresses, writes):
    packed = array("Q", addresses)
    if sys.byteorder == "big":
        packed.byteswap()
    return sha256(packed.tobytes()).hexdigest(), sha256(bytes(writes)).hexdigest()


def streamed(workload):
    addresses, writes = array("Q"), bytearray()
    for window in workload.stream(ACCESSES, WINDOW):
        addresses.extend(window.addresses)
        writes.extend(window.writes)
    return digests(addresses, writes)


def synthetic(locality):
    if locality is None:
        return SyntheticWorkload()
    # As ``repro.experiments.ablations.trip_format_rows`` builds it.
    return SyntheticWorkload(version_locality=locality, footprint_bytes=2 << 20, seed=11)


def test_every_benchmark_is_pinned_at_both_seeds():
    assert sorted(TRACES) == sorted(
        (name, seed) for name in WORKLOAD_NAMES for seed in (1234, 4321)
    )


@pytest.mark.parametrize("name, seed", sorted(TRACES))
def test_captured_trace_matches_its_digest(name, seed):
    trace = get_workload(name, seed=seed).capture(ACCESSES)
    assert digests(trace.addresses, trace.writes) == TRACES[name, seed]


@pytest.mark.parametrize("name, seed", sorted(TRACES))
def test_streamed_windows_concatenate_to_the_pinned_trace(name, seed):
    assert streamed(get_workload(name, seed=seed)) == TRACES[name, seed]


@pytest.mark.parametrize("locality", [None, *LOCALITIES], ids=lambda v: f"locality-{v}")
def test_synthetic_trace_matches_its_digest(locality):
    trace = synthetic(locality).capture(ACCESSES)
    assert digests(trace.addresses, trace.writes) == SYNTHETIC[locality]
    assert streamed(synthetic(locality)) == SYNTHETIC[locality]
