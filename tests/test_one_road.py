"""One road from a job to its payload.

A scenario is registered where it is written and returns the payload;
``run_job`` turns it into canonical JSON text once, and every consumer —
the cache record, a pool worker's reply, a ``reduce`` — sees that text or
its ``json.loads``.  Pinned here: the payload bytes of one tiny job per
scenario, the equality of a value across every execution mode, and the
registry's refusal of a second claimant to a name.
"""

import hashlib
import importlib
import math

import pytest

from repro.experiments import fig20_timeout_models
from repro.experiments.cache import ResultCache
from repro.experiments.executor import Executor
from repro.experiments.jobs import SCENARIOS, scenario
from tests import purity_controls
from tests.test_job_purity import one_tiny_job_per_scenario

#: SHA-256 of the canonical payload text of ``one_tiny_job_per_scenario()``,
#: computed at the commit *before* scenarios started returning payloads
#: (PR 23) and unchanged by it.  A digest moves only when a payload byte
#: does: update it on purpose (with the cache salt), never to get green.
PAYLOAD_SHA256 = {
    "cbr_restart": "a3fc990001ac90e9f346b07e9886c91e48968c2d5b08e8bd31e57ae64619787e",
    "flash_crowd": "01dde575c9961c53d3ad5c653c999b50645b3159dcf70f90eb6e6b523de3171f",
    "oscillation": "b7edac0487615a32c0e8ca758fcc1307e1c2ba479382675310d30173478a282b",
    "convergence": "e38e216cb55bf07f1b4188684ef9d47945ad0247c1bb6314fe03f2b99a0c7145",
    "analysis_acks": "052626cb53990b225615f64718720941f62aba40793f878c54e047b8a5eca67c",
    "doubling": "4dff2943e8ef6fcb2451a64a2664a0225a0b94dda3f455c98d6179364c7e928d",
    "loss_pattern": "82a9eab90d568f26e2aa257de92402f40557dfbd605b0ff03703c5c62e7cbe38",
    "timeout_models": "3257f2d9c404897f5ed86602941ba4e190d2a925ecf48c0df24b85d2e9452668",
    "responsiveness": "a19a1584344c1f3783bff51524a5a4b86f2cc09356c9dbfb6af9cd236e314362",
    "queue_dynamics": "03aac393a3d4ed2968977be17709954c7f4ee70f9136455f0da3754114c6b5b1",
    "aggressiveness": "884c31b4c6ec967aca6784c1d0363f19d63d53ebc65a95cff6a1d543fde1bc38",
    "acks_to_fairness": "e2f30bd3022f63a63ee18469d052db809ded3f3dc70d5c86940b61c50cc1ce98",
}


def test_every_scenario_payload_is_pinned():
    # A scenario registered without a pin fails here too.
    assert set(PAYLOAD_SHA256) == set(SCENARIOS)
    jobs = one_tiny_job_per_scenario()
    digests = {
        jb.scenario: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for jb, text in zip(jobs, purity_controls.payload_texts(jobs))
    }
    assert digests == PAYLOAD_SHA256


def same(a, b) -> bool:
    """Equal values of exactly equal types, all the way down."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[key], b[key]) for key in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def test_a_value_is_the_same_object_shape_in_every_mode(tmp_path):
    wanted = ("cbr_restart", "doubling", "timeout_models")
    jobs = [jb for jb in one_tiny_job_per_scenario() if jb.scenario in wanted]
    assert len(jobs) == len(wanted)
    disk = ResultCache(tmp_path)
    modes = {
        "serial": Executor().map(jobs),
        "serial, cold disk cache": Executor().map(jobs, disk),
        "serial, warm disk cache": Executor().map(jobs, disk),
    }
    with Executor(2) as pool:
        modes["pool"] = pool.map(jobs)
        assert pool.last_report.inlined < len(jobs)  # some crossed the pool
        modes["pool, cold disk cache"] = pool.map(jobs, ResultCache(tmp_path / "pool"))
    assert all(result.cached for result in modes["serial, warm disk cache"])
    reference = [result.value for result in modes.pop("serial")]
    for mode, results in modes.items():
        for jb, expected, result in zip(jobs, reference, results):
            assert same(result.value, expected), (mode, jb.scenario)


def test_a_second_function_cannot_take_a_registered_name():
    def impostor(jb):  # pragma: no cover - never called
        return None

    with pytest.raises(ValueError) as excinfo:
        scenario("aggressiveness")(impostor)
    message = str(excinfo.value)
    assert "'aggressiveness'" in message
    assert "repro.experiments.ext_responsiveness.aggressiveness" in message
    assert f"{__name__}." in message and "impostor" in message
    assert SCENARIOS["aggressiveness"].__name__ == "aggressiveness"


def test_the_same_definition_may_register_again():
    fn = SCENARIOS["timeout_models"]
    assert scenario("timeout_models")(fn) is fn
    # A reload re-executes the decorator on a new function object.
    importlib.reload(fig20_timeout_models)
    assert SCENARIOS["timeout_models"] is fig20_timeout_models.timeout_models is not fn
