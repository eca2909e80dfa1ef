"""The mutation matrix: which claims refute a broken fuzzy operation or check.

Each mutant replaces one operation or check wherever a `qfuzzy` module binds
it, as perfbench/spans.py's tracer installs its wrappers, so the `Claim`
records in `lab` and the `fuzzy` and `checks` functions that call it all read
the mutant, and the whole catalog is audited at 50 trials.  Beside the audit
run two negative controls, one per classifier: each expects a witness that a
classifier must find, and a control that finds none refutes the mutant as a
claim does.  Each row states its one outcome: the claims, then the controls,
that refute the mutant (exactly those), or that it survives, with the reason
it is equivalent on the audited domain.
A refactor or a new conclusion that changes a row, in either direction,
fails here; the row then moves with a CHANGES.md line that says why.
"""
import dataclasses
import sys

import pytest

from fraction_oracle import ONE, constant_qfuzzy
from qfuzzy import checks, fuzzy, groups, lab
from qfuzzy.checks import CheckReport
from qfuzzy.fuzzy import QFuzzySubset

CONFIG = lab.AuditConfig(trials=50)

# the real operations, captured at import: a mutant that calls one must not
# reach itself once it is installed in the module that defines it
_alpha_restrict = fuzzy.alpha_restrict
_preimage_subset = fuzzy.preimage_subset
_level_sets = fuzzy.level_sets
_classify_abelian = checks.classify_abelian
_analyze_subset = groups.analyze_subset

# The negative controls, each read through `lab`'s own names.  No claim
# expects a kernel that is not abelian or a level set that is not cyclic, so
# without them a classifier that calls everything abelian or cyclic passes.
# On a constant table the kernel and every level set are the whole group.
ABELIAN_CONTROL = "a kernel set need not be abelian"
CYCLIC_CONTROL = "a level set need not be cyclic"
CONTROLS = (
    (ABELIAN_CONTROL, constant_qfuzzy(groups.standard_group("symmetric3"), ("q",), ONE),
     lambda phi: not lab._all_abelian(phi)),
    (CYCLIC_CONTROL, constant_qfuzzy(groups.standard_group("klein4"), ("q",), ONE),
     lambda phi: not lab._all_cyclic(phi)),
)


def image_min_over_fiber(f, theta):
    columns = tuple(
        tuple(min(column[x] for x in bucket) if bucket else 0 for bucket in f.fibers)
        for column in theta.columns
    )
    return QFuzzySubset(f.target, theta.q_labels, columns, theta.den)


def image_empty_fiber_at_top(f, theta):
    columns = tuple(
        tuple(max(column[x] for x in bucket) if bucket else max(column) for bucket in f.fibers)
        for column in theta.columns
    )
    return QFuzzySubset(f.target, theta.q_labels, columns, theta.den)


def complement_identity(theta):
    return QFuzzySubset(theta.group, theta.q_labels, theta.columns, theta.den)


def restriction_drops_to_zero(theta, alpha):
    # a grade below the cap becomes 0, one at or above it the cap
    out = _alpha_restrict(theta, alpha)
    n, d = out.alpha.as_integer_ratio()
    cap = n * (out.den // d)
    columns = tuple(tuple(cap if g >= cap else 0 for g in column) for column in out.columns)
    return QFuzzySubset(out.group, out.q_labels, columns, out.den, theta, out.alpha)


def preimage_at_inverse(f, sigma):
    # x -> sigma(f(x)^-1)
    inverses = f.target.inverses
    columns = tuple(tuple(column[inverses[y]] for y in f.images) for column in sigma.columns)
    return QFuzzySubset(f.source, sigma.q_labels, columns, sigma.den)


def preimage_identity_at_top(f, sigma):
    out = _preimage_subset(f, sigma)
    e = f.source.identity
    columns = tuple(column[:e] + (max(column),) + column[e + 1:] for column in out.columns)
    return QFuzzySubset(f.source, sigma.q_labels, columns, sigma.den)


def left_factor(a, b):
    return a


def restriction_keeps_every_grade(theta, alpha):
    out = _alpha_restrict(theta, alpha)
    return QFuzzySubset(theta.group, theta.q_labels, theta.columns, theta.den, theta, out.alpha)


def every_kernel_abelian(phi):
    return {q: s._replace(is_abelian=True) for q, s in _classify_abelian(phi).items()}


def kernel_at_greatest_grade(phi):
    return {
        q: frozenset(x for x, g in enumerate(column) if g == max(column))
        for q, column in zip(phi.q_labels, phi.columns)
    }


def level_sets_without_least_cut(phi, k):
    return _level_sets(phi, k)[1:]


def every_subset_cyclic(group, subset):
    return dataclasses.replace(_analyze_subset(group, subset), is_cyclic=True)


def inverse_condition_only(theta):
    inverse = checks._inverse_condition(theta)
    return CheckReport(inverse.ok, {"inverse": inverse}, inverse.witness, inverse.detail)


# No claim refutes it.  Each survivor is equivalent on the audited domain:
# - both preimage mutants: every preimage claim but P3.4 draws psi as a
#   subgroup, where psi(y^-1) = psi(y) and psi(e) is the top grade, and both
#   sides of P3.4 go through the same `preimage_subset`, so no pointwise
#   mutation of it can make P3.4 fail;
# - a left-factor intersection: both sides of P3.3 go through it, and P4.8's
#   theta is itself a subgroup;
# - the kernel taken at the greatest grade: a subgroup's identity holds it,
#   in P4.6's kernel and in P5.7's and P5.8's abelian test alike;
# - level sets without the least cut: only P5.10's and P5.11's cyclicity
#   hypotheses and findings read them, and those claims pass on a level-set
#   inclusion that holds by construction;
# - a restriction that sends grades below the cap to 0: it is a monotone map
#   of the grades, so it keeps a subgroup a subgroup, P3.3 and P3.4 put it on
#   both of their sides, `product`'s re-check restricts its base with it too
#   (it commutes with min), and a non-subgroup still restricts to a subgroup
#   for R4.3 (only the worked examples catch it: ROADMAP item 3).
SURVIVES = ()

# (name, global replaced, mutant, outcome): the claims that refute it, in
# catalog order, then the controls
MATRIX = (
    ("image takes the min over a fiber", "image_subset", image_min_over_fiber, ("P5.7", "P5.10")),
    ("an empty fiber's image grade is the column's top", "image_subset",
     image_empty_fiber_at_top, ("P5.2", "P5.7")),
    ("intersection is union", "intersection", fuzzy.union, ("P4.8",)),
    ("complement is the identity", "complement", complement_identity, ("P4.11",)),
    ("restriction sends grades below the cap to 0", "alpha_restrict",
     restriction_drops_to_zero, SURVIVES),
    # R4.3 searches for a non-subgroup whose restriction is a subgroup; with
    # every grade kept there is none.  Every trial claim passes, as for the
    # row above
    ("restriction keeps every grade", "alpha_restrict", restriction_keeps_every_grade,
     ("R4.3",)),
    ("preimage reads psi(f(x)^-1)", "preimage_subset", preimage_at_inverse,
     SURVIVES),
    ("preimage gives the identity the top grade", "preimage_subset",
     preimage_identity_at_top, SURVIVES),
    ("intersection returns its left factor", "intersection", left_factor, SURVIVES),
    # only R4.9's search needs a union that differs from its left factor
    ("union returns its left factor", "union", left_factor, ("R4.9",)),
    # no claim expects a kernel that is not abelian (or a level set that is
    # not cyclic): only the negative controls catch these two
    ("every kernel is called abelian", "classify_abelian", every_kernel_abelian,
     (ABELIAN_CONTROL,)),
    ("every subset is called cyclic", "analyze_subset", every_subset_cyclic,
     (CYCLIC_CONTROL,)),
    ("the kernel is taken at the greatest grade", "kernel_set", kernel_at_greatest_grade,
     SURVIVES),
    ("level sets skip the least cut", "level_sets", level_sets_without_least_cut, SURVIVES),
    # R4.9 searches for a union of subgroups that fails the check, and such a
    # union meets the inverse condition
    ("the subgroup check reads the inverse condition only", "check_qfuzzy_subgroup",
     inverse_condition_only, ("R4.9",)),
)


def refuting_claims():
    # the claims with a failure, in catalog order, then each control that
    # finds no witness
    reports = lab.audit(set(lab.CLAIM_ORDER), CONFIG)
    claims = tuple(dict.fromkeys(r.prop_id for r in reports if r.failures))
    return claims + tuple(name for name, table, finds in CONTROLS if not finds(table))


def test_the_unmutated_audit_refutes_nothing():
    assert refuting_claims() == ()


@pytest.mark.parametrize(
    "global_name, mutant, outcome", [row[1:] for row in MATRIX], ids=[row[0] for row in MATRIX]
)
def test_mutation_matrix(monkeypatch, global_name, mutant, outcome):
    original = getattr(lab, global_name)
    for name, module in list(sys.modules.items()):
        if name == "qfuzzy" or name.startswith("qfuzzy."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, mutant)
    assert refuting_claims() == outcome
