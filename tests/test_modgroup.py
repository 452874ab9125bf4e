"""Integer matrices, coset tables, and fundamental domain reduction."""

import json
import random
from math import gcd

import pytest
from mpmath import mp, mpc, mpf

from classpoly.modgroup import (
    IDENTITY,
    S,
    T,
    UnimodularMatrix,
    enumerate_cosets,
    lift_vector_to_sl2,
    mobius_apply,
    normalize_vector,
    translation,
)
from classpoly.quadforms import form_of_point, reduce_form

from _oracles import coset_count_formula, in_pm_gamma1, index_of_column, random_sl2


# ----------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------

def test_determinant_validation():
    with pytest.raises(ValueError):
        UnimodularMatrix(1, 0, 0, -1)
    with pytest.raises(ValueError):
        UnimodularMatrix(2, 0, 0, 2)


def test_product_and_inverse():
    rng = random.Random(21)
    for _ in range(50):
        g, h = random_sl2(rng), random_sl2(rng)
        prod = g @ h
        assert prod.a == g.a * h.a + g.b * h.c
        assert prod.b == g.a * h.b + g.b * h.d
        assert prod.c == g.c * h.a + g.d * h.c
        assert prod.d == g.c * h.b + g.d * h.d
        assert g @ g.inverse() == IDENTITY
        assert g.inverse() @ g == IDENTITY


def test_hat_swaps_diagonal():
    g = UnimodularMatrix(2, -1, 5, -2)
    assert g.hat() == UnimodularMatrix(-2, -1, 5, 2)
    assert g.hat().hat() == g
    assert IDENTITY.hat() == IDENTITY


def test_hat_is_an_antihomomorphism():
    rng = random.Random(22)
    for _ in range(40):
        g, h = random_sl2(rng), random_sl2(rng)
        assert (g @ h).hat() == h.hat() @ g.hat()


def test_translation_and_generators():
    assert translation(3) == UnimodularMatrix(1, 3, 0, 1)
    assert translation(1) == T
    assert S @ S == UnimodularMatrix(-1, 0, 0, -1)
    assert (S @ S) @ (S @ S) == IDENTITY


def test_mobius_basics():
    with mp.workprec(128):
        z = mpc("0.3", "1.2")
        assert abs(mobius_apply(T, z) - (z + 1)) < mpf(2) ** -100
        assert abs(mobius_apply(S, mpc(0, 1)) - mpc(0, 1)) < mpf(2) ** -100
        rng = random.Random(23)
        for _ in range(30):
            g, h = random_sl2(rng), random_sl2(rng)
            lhs = mobius_apply(g @ h, z)
            rhs = mobius_apply(g, mobius_apply(h, z))
            assert abs(lhs - rhs) < mpf(2) ** -80
            assert mobius_apply(g, z).imag > 0


# ----------------------------------------------------------------------
# column normalization and lifting
# ----------------------------------------------------------------------

def test_normalize_vector_examples():
    assert normalize_vector(7, 3, 5) == (2, 3)
    assert normalize_vector(-2, -3, 5) == (2, 3)
    assert normalize_vector(-2, -3, 5, tie_break="max") == (3, 2)
    assert normalize_vector(1, 0, 5) == (1, 0)


def test_normalize_vector_picks_from_the_sign_pair():
    rng = random.Random(24)
    for n in (2, 3, 4, 5, 6, 7, 9, 12):
        for _ in range(25):
            g = random_sl2(rng)
            v = (g.a % n, g.c % n)
            w = ((-g.a) % n, (-g.c) % n)
            lo = normalize_vector(g.a, g.c, n)
            hi = normalize_vector(g.a, g.c, n, tie_break="max")
            assert {lo, hi} <= {v, w}
            assert lo == min(v, w) and hi == max(v, w)


def test_normalize_vector_errors():
    with pytest.raises(ValueError):
        normalize_vector(0, 5, 5)
    with pytest.raises(ValueError):
        normalize_vector(2, 4, 6)
    with pytest.raises(ValueError):
        normalize_vector(1, 0, 5, tie_break="median")


def test_lift_vector_special_columns():
    assert lift_vector_to_sl2(1, 0, 5) == IDENTITY
    assert lift_vector_to_sl2(4, 0, 5) == UnimodularMatrix(-1, 0, 0, -1)
    assert lift_vector_to_sl2(0, 0, 1) == IDENTITY


def test_lift_vector_congruence():
    from math import gcd

    for n in range(2, 13):
        for a in range(n):
            for c in range(n):
                if gcd(gcd(a, c), n) != 1:
                    with pytest.raises(ValueError):
                        lift_vector_to_sl2(a, c, n)
                    continue
                g = lift_vector_to_sl2(a, c, n)
                assert g.a % n == a and g.c % n == c
                assert g.c == 0 or 0 <= g.d < g.c


# ----------------------------------------------------------------------
# coset tables
# ----------------------------------------------------------------------

def test_coset_counts_match_index_formula():
    """One rep per primitive column mod n up to sign, ordered by strictly
    increasing normalized first column, each rep's first column mod n being
    that normalized column."""
    for tie_break in ("min", "max"):
        for n in range(1, 61):
            table = enumerate_cosets(n, tie_break)
            assert table.size() == coset_count_formula(n), n
            columns = [(g.a % n, g.c % n) for g in table.reps]
            assert columns == [normalize_vector(a, c, n, tie_break) for a, c in columns]
            assert all(x < y for x, y in zip(columns, columns[1:])), (n, tie_break)
            assert set(columns) == {
                normalize_vector(a, c, n, tie_break)
                for a in range(n) for c in range(n) if gcd(gcd(a, c), n) == 1
            }, (n, tie_break)


def test_every_matrix_falls_in_its_column_coset():
    """Definitional check: a matrix and the rep with the same sign-normalized
    first column differ by an element fixing (1, 0) mod n up to sign."""
    rng = random.Random(26)
    for n in (2, 3, 4, 5, 6, 7):
        table = enumerate_cosets(n)
        for _ in range(40):
            g = random_sl2(rng)
            k = index_of_column(table, g.a, g.c)
            delta = table.reps[k].inverse() @ g
            assert in_pm_gamma1(delta, n)


def test_reps_lie_in_distinct_cosets():
    for n in (4, 5, 6):
        table = enumerate_cosets(n)
        reps = table.reps
        for j in range(len(reps)):
            for k in range(len(reps)):
                delta = reps[j].inverse() @ reps[k]
                assert in_pm_gamma1(delta, n) == (j == k)


def test_reps_index_their_own_columns():
    for tie_break in ("min", "max"):
        table = enumerate_cosets(5, tie_break)
        for k, g in enumerate(table.reps):
            assert index_of_column(table, g.a, g.c) == k


def test_min_and_max_tables_cover_the_same_cosets():
    lo = enumerate_cosets(5, "min")
    hi = enumerate_cosets(5, "max")
    assert lo.size() == hi.size()
    for g in lo.reps:
        k = index_of_column(hi, g.a, g.c)
        assert in_pm_gamma1(hi.reps[k].inverse() @ g, 5)


# ----------------------------------------------------------------------
# fundamental domain
# ----------------------------------------------------------------------

def test_reduce_leaves_interior_points_alone():
    with mp.workprec(192):
        z = mpc("0.21", "1.3")
        reduced, gamma = reduce_form(form_of_point(z))
        z_star = reduced.to_mpc()
        assert gamma == IDENTITY
        assert z_star == z


def test_reduce_pure_translation():
    with mp.workprec(192):
        z = mpc("0.21", "1.3") + 5
        reduced, gamma = reduce_form(form_of_point(z))
        z_star = reduced.to_mpc()
        assert gamma == translation(5)
        assert abs(z_star - mpc("0.21", "1.3")) < mpf(2) ** -150


def test_reduce_random_orbit_returns_home():
    rng = random.Random(27)
    with mp.workprec(256):
        home = mpc("0.1037", "1.41")
        for _ in range(40):
            g = random_sl2(rng, 12)
            moved = mobius_apply(g, home)
            reduced, gamma = reduce_form(form_of_point(moved))
            z_star = reduced.to_mpc()
            assert abs(z_star - home) < mpf(2) ** -180
            # gamma carries the reduced point back: moved = gamma z_star
            assert abs(mobius_apply(gamma, z_star) - moved) < mpf(2) ** -180


def test_reduce_output_is_in_the_fundamental_domain():
    rng = random.Random(28)
    with mp.workprec(192):
        tol = mpf(2) ** -90
        for _ in range(60):
            z = mpc(rng.uniform(-8, 8), rng.uniform(0.002, 3.0))
            z_star = reduce_form(form_of_point(z))[0].to_mpc()
            assert abs(z_star.real) <= mpf("0.5") + tol
            assert abs(z_star) >= 1 - tol
            assert z_star.imag >= mp.sqrt(3) / 2 - tol


def test_reduce_rejects_bad_points():
    with pytest.raises(ValueError):
        form_of_point(mpc(0, -1))


def test_reduce_takes_a_large_translation_in_one_step():
    with mp.workprec(192):
        reduced, gamma = reduce_form(form_of_point(mpc(10 ** 7, 1)))
        assert gamma == translation(10 ** 7)
        assert reduced.to_mpc() == mpc(0, 1)
