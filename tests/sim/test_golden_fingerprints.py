"""Exact goldens for the paths that have no second implementation.

Sticky, persistent, contraction and max-min runs are otherwise compared
only plane-against-plane (both sides move together under a refactor),
and ``TestGoldenDeterminism`` pins one memoryless scenario to a few
percent.  Each row here is the sha256 of the shared fingerprint
(``tests/fingerprint.py``) of one small scenario, recorded once and
required to stay *exactly* that on both control planes — the two planes
are bit-identical, so one digest serves both.

A digest may only change together with a ``CODE_VERSION`` bump (a metered
series moved on purpose); regenerate with::

    PYTHONPATH=src:. python tests/sim/test_golden_fingerprints.py

``CODE_VERSION`` 6 re-recorded the two persistent rows, and nothing else:
level link keys used to be encoded in base n, which minted cluster IDs
(>= 10^7) overflow, so ``drift_link_events`` read 0 at every level.  The
level-tagged row keys of the stacked hierarchy diff count it right (the
level-series oracle in ``tests/sim/levels_oracle.py`` agrees); every
other fingerprint field of both rows is unchanged.

* ``persistent-radio``: drift ``{1: 0, 2: 0, 3: 0}`` -> ``{1: 37, 2: 0,
  3: 0}``; digest ``29ace23b...55267efc`` -> ``e6e666ad...62d984``.
* ``persistent-radio-large``: drift ``{1: 0, 2: 0, 3: 0, 4: 0}`` ->
  ``{1: 225, 2: 11, 3: 0, 4: 0}``; digest ``3bfcbe51...2da79cf0`` ->
  ``94538daa...69feafeb8``.
"""

import pytest

from repro.sim import Scenario, run_scenario
from tests.fingerprint import fingerprint, fingerprint_sha256

BASE = dict(n=80, steps=8, warmup=2, max_levels=3, hop_sample_every=4)

# name -> (scenario fields, planes it runs on, digest)
GOLDEN = {
    "memoryless-radio": (
        dict(seed=3), (False, True),
        "3110567662d9fbf2cbd75601b86a0d843975c0fc3cc90a96b4c300e155909315"),
    "sticky-radio": (
        dict(seed=5, election_mode="sticky"), (False, True),
        "87a4c3a93128f2807e4f1aaa4f3dde15aa8fae782d9a86836656a22d25e8ae98"),
    "persistent-radio": (
        dict(seed=9, election_mode="persistent"), (False, True),
        "e6e666ad80e0e49a249524df48994c5f6368a68f0cd8b41ca5d01a92ea62d984"),
    # Large enough that head hand-overs and cluster merges happen (5 and
    # 90 cid deaths over the run), which the 80-node row barely sees.
    "persistent-radio-large": (
        dict(n=200, steps=12, max_levels=4, seed=21,
             election_mode="persistent"), (False, True),
        "94538daaf09951d314b0c5cd8fd27ecceeff773b21d0a93cf30ba0369feafeb8"),
    "memoryless-contraction": (
        dict(seed=13, level_mode="contraction"), (False, True),
        "d62c8a43792711e9b5efcbbba1a1010fbb48a4db9ea3870e644aa72c154d8af7"),
    "sticky-contraction": (
        dict(seed=2, election_mode="sticky", level_mode="contraction"),
        (False, True),
        "d5d871c47f4326789f1f0b4bff7595d379ba30414d1859a26f4f1a60393f5a90"),
    "maxmin-d2-radio": (
        dict(seed=4, clustering="maxmin", maxmin_d=2), (False, True),
        "377c055d2842576f1cdd1777f3613d9fe8b2f124284cd37f5c4552f2eae4ecbd"),
    "maxmin-d3-contraction": (
        dict(seed=6, clustering="maxmin", maxmin_d=3,
             level_mode="contraction"), (False, True),
        "c86c37abb65663d966b657f729f489780994d601f294db2aadf3752d3528ce0f"),
    "lossy-chaos": (
        dict(n=90, steps=12, warmup=3, seed=7, loss_rate=0.08,
             retry_attempts=3, queries_per_step=3,
             chaos=("crash:start=2,duration=4,rate=0.04,repair=3",
                    "partition:start=7,duration=3")),
        (False, True),
        "10739cb57506cc1ed25b0a0c7cdf3e51beb75797710a81ba4aa91cf9b752acc1"),
}


def _scenario(name: str, event_plane: bool) -> Scenario:
    fields, _, _ = GOLDEN[name]
    return Scenario(**{**BASE, **fields,
                       "incremental_hierarchy": event_plane})


CASES = [
    pytest.param(name, plane, id=f"{name}-{'event' if plane else 'full'}")
    for name, (_, planes, _) in GOLDEN.items()
    for plane in planes
]


@pytest.mark.parametrize("name,event_plane", CASES)
def test_fingerprint_is_the_recorded_one(name, event_plane):
    res = run_scenario(_scenario(name, event_plane))
    assert fingerprint_sha256(res) == GOLDEN[name][2], fingerprint(res)


if __name__ == "__main__":  # regenerate the table's digests
    for name in GOLDEN:
        print(name, fingerprint_sha256(run_scenario(_scenario(name, False))))
