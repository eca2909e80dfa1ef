"""The call contract of the `Claim` records.

A record holds none of the generators, checks or fuzzy operations: its
callables look them up by their names on `lab` when they run, so a wrapper
installed there sees every call.  `tests/test_mutants.py` and the
benchmark's spans rest on that.  Here counting wrappers are installed on
those names and each trial-run claim is audited at 10 trials, seed 1, after
a warm-up audit has filled the caches (the subgroup generator checks each
chain once, on first reach).  The counts are pinned: a change that moves a
call out of a wrapper's sight, or adds calls, fails here.
"""
from collections import Counter

import pytest

from qfuzzy import lab

COUNTED = (
    "random_qfuzzy", "random_qfuzzy_subgroup", "_mixed_subset", "alpha_restrict",
    "image_subset", "preimage_subset", "intersection", "complement", "product",
    "compare", "check_alpha_subgroup", "check_anti_subgroup", "check_qfuzzy_subgroup",
    "classify_abelian", "level_sets",
)

CONFIG = lab.AuditConfig(trials=10, seed=1)
TRIAL_CLAIMS = tuple(c for c in lab.CLAIM_ORDER if lab.CLAIMS[c].carriers != "search")

# per claim, the calls of each counted name that it makes (names it never
# calls are left out)
CALLS = {
    "P3.3": {"random_qfuzzy": 320, "alpha_restrict": 480, "intersection": 320, "compare": 160},
    "P3.4": {"random_qfuzzy": 180, "alpha_restrict": 1800, "image_subset": 1620,
             "preimage_subset": 1620, "compare": 1620},
    "P4.2": {"random_qfuzzy_subgroup": 160, "alpha_restrict": 160, "check_qfuzzy_subgroup": 160},
    "P4.6": {"random_qfuzzy_subgroup": 160, "alpha_restrict": 160},
    "P4.7": {"random_qfuzzy_subgroup": 160, "alpha_restrict": 160},
    "P4.8": {"random_qfuzzy_subgroup": 320, "alpha_restrict": 160, "intersection": 160,
             "check_qfuzzy_subgroup": 160},
    "P4.11": {"random_qfuzzy_subgroup": 160, "alpha_restrict": 160, "complement": 160,
              "check_anti_subgroup": 160, "check_qfuzzy_subgroup": 160},
    "P4.12": {"random_qfuzzy": 76, "random_qfuzzy_subgroup": 84, "_mixed_subset": 160,
              "alpha_restrict": 160, "check_alpha_subgroup": 160},
    "P4.14": {"random_qfuzzy_subgroup": 100, "alpha_restrict": 100, "product": 50,
              "check_qfuzzy_subgroup": 50},
    "P4.15": {"random_qfuzzy": 53, "random_qfuzzy_subgroup": 47, "_mixed_subset": 100,
              "alpha_restrict": 100, "product": 50, "check_qfuzzy_subgroup": 99},
    "R4.16": {"random_qfuzzy": 46, "random_qfuzzy_subgroup": 54, "_mixed_subset": 100,
              "alpha_restrict": 100, "product": 50, "check_qfuzzy_subgroup": 84},
    "P5.2": {"random_qfuzzy_subgroup": 90, "alpha_restrict": 760, "image_subset": 670,
             "check_qfuzzy_subgroup": 670},
    "P5.4": {"random_qfuzzy_subgroup": 90, "alpha_restrict": 760, "preimage_subset": 670,
             "check_qfuzzy_subgroup": 670},
    "P5.7": {"random_qfuzzy_subgroup": 90, "alpha_restrict": 549, "image_subset": 459,
             "classify_abelian": 537},
    "P5.8": {"random_qfuzzy_subgroup": 90, "alpha_restrict": 437, "preimage_subset": 347,
             "classify_abelian": 437},
    "P5.10": {"random_qfuzzy_subgroup": 90, "alpha_restrict": 240, "image_subset": 150,
              "preimage_subset": 150, "compare": 150, "level_sets": 240},
    "P5.11": {"random_qfuzzy_subgroup": 90, "alpha_restrict": 270, "preimage_subset": 360,
              "compare": 180, "level_sets": 270},
}


@pytest.fixture(scope="module")
def warmed():
    lab.audit(set(TRIAL_CLAIMS), CONFIG)


def test_the_table_covers_every_trial_claim():
    assert tuple(CALLS) == TRIAL_CLAIMS


@pytest.mark.parametrize("claim", TRIAL_CLAIMS)
def test_wrappers_on_lab_see_every_call(monkeypatch, warmed, claim):
    counts = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in COUNTED:
        monkeypatch.setattr(lab, name, counting(name, getattr(lab, name)))
    lab.audit({claim}, CONFIG)
    assert dict(counts) == CALLS[claim]
