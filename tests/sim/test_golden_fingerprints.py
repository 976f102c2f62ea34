"""Exact goldens for the paths that have no second implementation.

Sticky, persistent and contraction runs are otherwise compared
only against the stepping oracle (both sides move together under a
refactor), and ``TestGoldenDeterminism`` pins one memoryless scenario to
a few percent.  Each row here is the sha256 of the shared fingerprint
(``tests/fingerprint.py``) of one small scenario, recorded once and
required to stay *exactly* that twice: under the patch-or-full rule
(``-full``: at these sizes it reassigns every server every step) and
with patching forced on every step (``-event``) — the two plans are
bit-identical, so one digest serves both.

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

Every row was then re-recorded once without a ``CODE_VERSION`` bump,
because the fingerprint itself grew: it now carries each level's ALCA
``state_stats`` (p_j, occupancy, transition and crossing counts), which
no digest pinned before.  The simulator was unchanged at that point, so
no metered series moved.

``CODE_VERSION`` 7 re-recorded ``persistent-radio-large``, the only row
whose hierarchy changes depth mid-run (3 levels, 4 at step 6, 3, then 4
at steps 8-9).  ALCA transitions are now counted between consecutive
snapshots only, so level 3 no longer diffs step 8's election against
step 6's: its transition histogram ``{0: 1, 1: 2}`` -> ``{0: 1, 1: 1}``;
digest ``96786434...7c2fd9bf`` -> ``51285ee8...3c876252``.  Every other
field of that row, and every other row, is unchanged.

The two max-min rows (``maxmin-d2-radio``, ``maxmin-d3-contraction``)
were deleted with max-min clustering itself; every other digest stayed.
"""

import pytest

from repro.sim import Scenario, run_scenario
from tests.fingerprint import fingerprint, fingerprint_sha256
from tests.sim.stepping_oracle import force_patch

BASE = dict(n=80, steps=8, warmup=2, max_levels=3, hop_sample_every=4)

# name -> (scenario fields, digest)
GOLDEN = {
    "memoryless-radio": (
        dict(seed=3),
        "680b20a052296d9f8ae2a17360ad69deb3bf19533b86cd15dad0248eb9c80233"),
    "sticky-radio": (
        dict(seed=5, election_mode="sticky"),
        "131ef1bd52f83e281632ab6e2429c44574be32e498179c04d8209f23d4474471"),
    "persistent-radio": (
        dict(seed=9, election_mode="persistent"),
        "ed73712880f546a0445a7dad2d4424f4fac7331feb13eaba5e0da4fe913d08c2"),
    # Large enough that head hand-overs and cluster merges happen (5 and
    # 90 cid deaths over the run), which the 80-node row barely sees.
    "persistent-radio-large": (
        dict(n=200, steps=12, max_levels=4, seed=21,
             election_mode="persistent"),
        "51285ee835ef1dd0da2caba5bcf6f692a4eedfdf20004b3a25f3f8aa3c876252"),
    "memoryless-contraction": (
        dict(seed=13, level_mode="contraction"),
        "234b65b6bc7230eeb512d0dbbffdd5b83922277e89f9c2d86b35314af003d3c5"),
    "sticky-contraction": (
        dict(seed=2, election_mode="sticky", level_mode="contraction"),
        "8c1e32b30dc9eaad4370649b09563b15644ed2dd31f531d62acd6893cc1b1cd2"),
    "lossy-chaos": (
        dict(n=90, steps=12, warmup=3, seed=7, loss_rate=0.08,
             retry_attempts=3, queries_per_step=3,
             chaos=("crash:start=2,duration=4,rate=0.04,repair=3",
                    "partition:start=7,duration=3")),
        "33d3aa05b07d5e02767cd7abd6d6cbfcaaec3d850079d07cd9fce3177e5a4c42"),
}


def _scenario(name: str) -> Scenario:
    return Scenario(**{**BASE, **GOLDEN[name][0]})


@pytest.mark.parametrize("forced", [False, True], ids=["full", "event"])
@pytest.mark.parametrize("name", list(GOLDEN))
def test_fingerprint_is_the_recorded_one(name, forced, monkeypatch):
    if forced:
        force_patch(monkeypatch)
    res = run_scenario(_scenario(name))
    assert fingerprint_sha256(res) == GOLDEN[name][1], fingerprint(res)


if __name__ == "__main__":  # regenerate the table's digests
    for name in GOLDEN:
        print(name, fingerprint_sha256(run_scenario(_scenario(name))))
