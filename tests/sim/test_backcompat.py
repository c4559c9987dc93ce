"""Backwards compatibility of the string-keyed registry with pre-PR3 code.

Before the registry was re-keyed by label, suites were enum-keyed in memory
(by a mode enum since removed) and the persistent store wrote
the enum's ``.value`` -- the paper label -- to disk.  These tests pin that a
pre-PR3 on-disk suite (a committed fixture generated by the enum-era code)
still decodes, still round-trips and still reproduces bit-for-bit.
"""

import json
import os

import pytest

from repro.sim.engine import run_suite
from repro.sim.results import SimulationResult, decode_suite, encode_suite

FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "pre_pr3_suite.json"
)


@pytest.fixture(scope="module")
def fixture():
    with open(FIXTURE_PATH) as handle:
        return json.load(handle)


def _stored(suite_json):
    """The fixture's suite as the store holds it: the payload's bytes."""
    return json.dumps(suite_json, separators=(",", ":")).encode("utf-8")


class TestPrePr3SuiteFixture:
    def test_decodes_to_simulation_results(self, fixture):
        suite = decode_suite(_stored(fixture["suite"]))
        assert set(suite) == set(fixture["settings"]["benchmarks"])
        for per_mode in suite.values():
            # The fixture was dumped with sorted keys; the label set matters.
            assert set(per_mode) == set(fixture["settings"]["modes"])
            for mode, result in per_mode.items():
                assert isinstance(result, SimulationResult)
                assert result.mode == mode
                assert type(result.mode) is str

    def test_round_trips_losslessly(self, fixture):
        payload = encode_suite(decode_suite(_stored(fixture["suite"])))
        assert json.loads(payload) == fixture["suite"]

    def test_todays_engine_reproduces_the_enum_era_numbers(self, fixture):
        # The re-keying is bookkeeping only: replaying the fixture's settings
        # through the refactored stack must be bit-identical to what the
        # enum-keyed code produced.
        settings = fixture["settings"]
        suite = run_suite(
            tuple(settings["benchmarks"]),
            modes=tuple(settings["modes"]),
            scale=settings["scale"],
            num_accesses=settings["num_accesses"],
            seed=settings["seed"],
        )
        assert json.loads(encode_suite(suite)) == fixture["suite"]
