import random

import pytest

from tppverify.embedding import (
    EmbeddingError,
    SeparatingSolveError,
    cyclic_characters,
    embed_group_algebra,
    evaluate_rep_function,
    realize_algorithm,
    solve_sep_coefficients,
)
from tppverify.groups import TableGroup
from tppverify.matrices import Mat
from tppverify.scalars import GaussRational, QQ
from tppverify.tpp import TppInstance, quotient_product_set


def z5_instance():
    g = TableGroup.cyclic(5)
    return TppInstance(g, list(range(5)), [0], [0], "table")


def test_embed_trivial_construction_exact():
    inst = z5_instance()
    rng = random.Random(1)
    for _ in range(20):
        a = Mat.from_rows([[GaussRational(rng.randint(-9, 9))] for _ in range(5)])
        b = Mat.from_rows([[GaussRational(rng.randint(-9, 9))]])
        prod, rep = embed_group_algebra(a, b, inst)
        assert rep.matched and rep.residual_ok
        assert rep.residual_support_size == 0  # E = 0 for the trivial construction


def test_embed_zero_matrices():
    inst = z5_instance()
    a = Mat.zeros(5, 1, zero=GaussRational(0))
    b = Mat.zeros(1, 1, zero=GaussRational(0))
    prod, rep = embed_group_algebra(a, b, inst)
    assert prod.support() == set()
    assert rep.matched


def test_embed_collision_on_broken_instance():
    g = TableGroup.cyclic(2)
    inst = TppInstance(g, [0, 1], [0], [0, 1], "table")
    a = Mat.from_rows([[GaussRational(1)], [GaussRational(2)]])
    b = Mat.from_rows([[GaussRational(1), GaussRational(1)]])
    with pytest.raises(EmbeddingError):
        embed_group_algebra(a, b, inst)


def test_solve_sep_fourier_inversion():
    inst = z5_instance()
    field, reps = cyclic_characters(5)
    support = list(range(5))
    targets = {"e0": {0: 1}}
    out = solve_sep_coefficients(reps, support, targets, field)
    fifth = field.from_rational(QQ(1, 5))
    for r in range(5):
        assert out["e0"][r][0, 0] == fifth  # Fourier inversion: all 1/5
    # the solved function really is the indicator
    for g in range(5):
        val = evaluate_rep_function(out["e0"], reps, g, field)
        assert val == (field.one if g == 0 else field.zero)


def test_solve_sep_trivial_rep_identity_support():
    g1 = TableGroup.cyclic(1)
    field, reps = cyclic_characters(1)
    out = solve_sep_coefficients(reps, [0], {"e": {0: 1}}, field)
    assert out["e"][0][0, 0] == field.one


def test_solve_sep_infeasible_when_underdetermined():
    field, reps = cyclic_characters(2)
    only_trivial = [reps[0]]
    with pytest.raises(SeparatingSolveError):
        solve_sep_coefficients(only_trivial, [0, 1], {"e": {0: 1}}, field)


def test_realize_z5_exact_recovery():
    inst = z5_instance()
    field, reps = cyclic_characters(5)
    rep = realize_algorithm(inst, reps, field, trials=20, seed=11)
    assert rep.verdict == "pass"
    assert rep.entries_checked == 20 * 5  # 5x1 output per trial


def test_realize_scalar_case():
    g = TableGroup.cyclic(1)
    inst = TppInstance(g, [0], [0], [0], "table")
    field, reps = cyclic_characters(1)
    rep = realize_algorithm(inst, reps, field, trials=5, seed=0)
    assert rep.verdict == "pass"


def test_realize_dropped_character_fails():
    inst = z5_instance()
    field, reps = cyclic_characters(5)
    with pytest.raises(SeparatingSolveError):
        realize_algorithm(inst, reps[:4], field, trials=1, seed=0)


def test_realize_gaussian_entries_with_lcm_field():
    # Gaussian-rational inputs need i in the field: order lcm(5, 4) = 20
    inst = z5_instance()
    field, reps = cyclic_characters(5, field_order=20)
    rng = random.Random(3)
    sep = None
    rep = realize_algorithm(inst, reps, field, trials=3, seed=3)
    assert rep.verdict == "pass"


def test_quotient_support_matches_embedding():
    inst = z5_instance()
    quotient = {q for q, _ in quotient_product_set(inst)}
    assert quotient == set(range(5))


def test_verify_separating_table_mode_with_fourier_indicators():
    from tppverify.sepverify import verify_separating

    inst = z5_instance()
    field, reps = cyclic_characters(5)
    g = inst.group
    support = [q for q, _ in quotient_product_set(inst)]
    targets = {}
    for ix in range(5):
        key = g.mul(inst.x[ix], g.inv(inst.z[0]))
        targets[(ix, 0)] = {key: 1}
    coeffs = solve_sep_coefficients(reps, support, targets, field)
    family = {
        pair: (lambda elt, mats=mats: evaluate_rep_function(mats, reps, elt, field))
        for pair, mats in coeffs.items()
    }
    rep = verify_separating(family, inst)
    assert rep.verdict == "pass"
    assert rep.checked == 5 * 5  # 5 pairs x 5 quotient elements

    # a constant-zero candidate fails at g = x z^-1
    bad = {(0, 0): (lambda elt: field.zero)}
    rep_bad = verify_separating(bad, inst)
    assert rep_bad.verdict == "fail"


def test_verify_separating_trivial_singleton():
    from tppverify.sepfun import Product
    from tppverify.sepverify import verify_separating
    from tppverify.groups import MatrixGroupOps

    ops = MatrixGroupOps(2)
    ident = Mat.identity(2).map(lambda v: GaussRational(v))
    inst = TppInstance(ops, [ident], [ident.copy()], [ident.copy()], "exact")
    rep = verify_separating({(0, 0): Product([])}, inst)
    assert rep.verdict == "pass"
