"""The mutation matrix: which claims refute a broken fuzzy operation or check.

Each mutant replaces one operation or check on `lab`'s module globals, which the
`Claim` records look up by name when they run, and the whole catalog is
audited at 50 trials.  Each row states its one outcome: the claims that
refute the mutant (exactly those), `InvariantError`, which stops the audit,
or that it survives, with the reason it is equivalent on the audited domain.
A refactor or a new conclusion that changes a row, in either direction,
fails here; the row then moves with a CHANGES.md line that says why.
"""
import pytest

from qfuzzy import checks, fuzzy, lab
from qfuzzy.checks import CheckReport
from qfuzzy.fuzzy import InvariantError, QFuzzySubset

CONFIG = lab.AuditConfig(trials=50)


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
    out = fuzzy.alpha_restrict(theta, alpha)
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
    out = fuzzy.preimage_subset(f, sigma)
    e = f.source.identity
    columns = tuple(column[:e] + (max(column),) + column[e + 1:] for column in out.columns)
    return QFuzzySubset(f.source, sigma.q_labels, columns, sigma.den)


def left_factor(a, b):
    return a


def restriction_keeps_every_grade(theta, alpha):
    out = fuzzy.alpha_restrict(theta, alpha)
    return QFuzzySubset(theta.group, theta.q_labels, theta.columns, theta.den, theta, out.alpha)


def every_kernel_abelian(phi):
    return {q: s._replace(is_abelian=True) for q, s in checks.classify_abelian(phi).items()}


def kernel_at_greatest_grade(phi):
    return {
        q: frozenset(x for x, g in enumerate(column) if g == max(column))
        for q, column in zip(phi.q_labels, phi.columns)
    }


def level_sets_without_least_cut(phi, k):
    return fuzzy.level_sets(phi, k)[1:]


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
# - an abelian test that passes every kernel: no claim expects a kernel that
#   is not abelian;
# - the kernel taken at the greatest grade: a subgroup's identity holds it;
# - level sets without the least cut: only P5.10's and P5.11's cyclicity
#   hypotheses and findings read them, and those claims pass on a level-set
#   inclusion that holds by construction.
SURVIVES = ()

# (name, lab global replaced, mutant, outcome): the claims that refute it, in
# catalog order, or InvariantError
MATRIX = (
    ("image takes the min over a fiber", "image_subset", image_min_over_fiber, ("P5.7", "P5.10")),
    ("an empty fiber's image grade is the column's top", "image_subset",
     image_empty_fiber_at_top, ("P5.2", "P5.7")),
    ("intersection is union", "intersection", fuzzy.union, ("P4.8",)),
    ("complement is the identity", "complement", complement_identity, ("P4.11",)),
    # `product` re-checks its result against the direct product of the
    # factors, which the mutants restricted: P4.14's first trial stops the audit
    ("restriction sends grades below the cap to 0", "alpha_restrict",
     restriction_drops_to_zero, InvariantError),
    ("restriction keeps every grade", "alpha_restrict", restriction_keeps_every_grade,
     InvariantError),
    ("preimage reads psi(f(x)^-1)", "preimage_subset", preimage_at_inverse,
     SURVIVES),
    ("preimage gives the identity the top grade", "preimage_subset",
     preimage_identity_at_top, SURVIVES),
    ("intersection returns its left factor", "intersection", left_factor, SURVIVES),
    # only R4.9's search needs a union that differs from its left factor
    ("union returns its left factor", "union", left_factor, ("R4.9",)),
    ("every kernel is called abelian", "classify_abelian", every_kernel_abelian, SURVIVES),
    ("the kernel is taken at the greatest grade", "kernel_set", kernel_at_greatest_grade,
     SURVIVES),
    ("level sets skip the least cut", "level_sets", level_sets_without_least_cut, SURVIVES),
    # R4.9 searches for a union of subgroups that fails the check, and such a
    # union meets the inverse condition
    ("the subgroup check reads the inverse condition only", "check_qfuzzy_subgroup",
     inverse_condition_only, ("R4.9",)),
)


def refuting_claims():
    reports = lab.audit(set(lab.CLAIM_ORDER), CONFIG)
    return tuple(dict.fromkeys(r.prop_id for r in reports if r.failures))


def test_the_unmutated_audit_refutes_nothing():
    assert refuting_claims() == ()


@pytest.mark.parametrize(
    "global_name, mutant, outcome", [row[1:] for row in MATRIX], ids=[row[0] for row in MATRIX]
)
def test_mutation_matrix(monkeypatch, global_name, mutant, outcome):
    monkeypatch.setattr(lab, global_name, mutant)
    if outcome is InvariantError:
        with pytest.raises(InvariantError, match="product"):
            refuting_claims()
    else:
        assert refuting_claims() == outcome
