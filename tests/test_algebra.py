import copy
import random
from fractions import Fraction

import pytest

import gaudin.algebra as algebra
from gaudin.algebra import (
    AlgebraSignature,
    Mode,
    ModeError,
    NCPoly,
    Packing,
    SignatureMismatchError,
    antisymmetry_residuals,
    classical_limit,
    commutator,
    diagonal_generators,
    poisson_bracket,
)
from gaudin.gluing import random_point
from gaudin.lax import gaudin_lax, physical_hamiltonian, quadratic_hamiltonians
from gaudin.manin import commutation_matrix, talalaev_coefficients, talalaev_generators
from gaudin.poisson import (
    PoissonOperator,
    letter_table,
    limit_rijk_operator,
    pencil,
    standard_operator,
)
from gaudin.ratfun import LaxEntry, RatFun

from oracles import (
    eval_terms,
    leibniz_terms,
    naive_commutator,
    naive_mul,
    naive_normal_form,
    numeric_block_bracket,
    numeric_poisson,
    random_ncpoly,
)


def test_multiply_straightens_single_site(q1):
    e11, e12 = q1.gen(1, 1, 1), q1.gen(1, 1, 2)
    assert e12 * e11 == e11 * e12 - e12


def test_multiply_unit_law(c3, rng):
    p = random_ncpoly(rng, c3)
    assert p * c3.one() == p
    assert c3.one() * p == p


def test_multiply_distinct_sites_commute(q2):
    a = q2.gen(1, 1, 2)
    b = q2.gen(2, 2, 1)
    prod = a * b
    assert prod == b * a
    assert list(prod.terms) == [((1, 1, 2), (2, 2, 1))]


def test_multiply_rejects_signature_mismatch(q2, q3):
    with pytest.raises(SignatureMismatchError):
        q2.gen(1, 1, 1) * q3.gen(1, 1, 1)


class TestSignatureValue:
    def test_equality_and_hash_read_rank_sites_mode(self):
        sig = AlgebraSignature(2, 3, Mode.QUANTUM)
        same = AlgebraSignature(rank=2, sites=3, mode=Mode.QUANTUM)
        assert sig == same and not sig != same and hash(sig) == hash(same)
        assert {sig: 1}[same] == 1
        for other in (AlgebraSignature(3, 3, Mode.QUANTUM), AlgebraSignature(2, 2, Mode.QUANTUM),
                      sig.as_mode(Mode.CLASSICAL)):
            assert sig != other and not sig == other

    def test_deepcopy_is_an_equal_signature(self):
        sig = AlgebraSignature(2, 3, Mode.CLASSICAL)
        clone = copy.deepcopy(sig)
        assert type(clone) is AlgebraSignature and clone == sig
        assert clone.mode is Mode.CLASSICAL
        assert clone.gen(3, 2, 1) == sig.gen(3, 2, 1)

    def test_fields_are_read_only(self):
        sig = AlgebraSignature(2, 3, Mode.CLASSICAL)
        with pytest.raises(AttributeError):
            sig.rank = 4

    @pytest.mark.parametrize("rank, sites, message", [
        (0, 1, "rank must be >= 1, got 0"),
        (1, -2, "sites must be >= 1, got -2"),
    ])
    def test_bad_shapes_refused(self, rank, sites, message):
        with pytest.raises(ValueError, match=message):
            AlgebraSignature(rank, sites, Mode.QUANTUM)

    def test_mismatch_error_names_both_signatures(self, q2, q3, c2, c3):
        with pytest.raises(SignatureMismatchError) as err:
            q2.gen(1, 1, 1) + q3.gen(1, 1, 1)
        assert str(err.value) == (
            "operands over different signatures: "
            "AlgebraSignature(rank=2, sites=2, mode=<Mode.QUANTUM: 'quantum'>) vs "
            "AlgebraSignature(rank=2, sites=3, mode=<Mode.QUANTUM: 'quantum'>)")
        with pytest.raises(SignatureMismatchError) as err:
            poisson_bracket(c2.gen(1, 1, 2), c3.gen(1, 2, 1))
        assert str(err.value) == (
            "AlgebraSignature(rank=2, sites=2, mode=<Mode.CLASSICAL: 'classical'>) vs "
            "AlgebraSignature(rank=2, sites=3, mode=<Mode.CLASSICAL: 'classical'>)")


def test_classical_multiply_commutative(c3, rng):
    for _ in range(20):
        p = random_ncpoly(rng, c3)
        q = random_ncpoly(rng, c3)
        assert p * q == q * p


def test_commutator_gl2_relation(q1):
    assert commutator(q1.gen(1, 1, 2), q1.gen(1, 2, 1)) == \
        q1.gen(1, 1, 1) - q1.gen(1, 2, 2)


def test_commutator_self_vanishes(q1):
    e11 = q1.gen(1, 1, 1)
    assert commutator(e11, e11).is_zero()


def test_commutator_rejects_classical(c2):
    with pytest.raises(ModeError):
        commutator(c2.gen(1, 1, 1), c2.gen(1, 1, 2))


def test_quadratic_hamiltonians_commute_against_oracle(q3):
    # independent right-to-left reduction of every term product
    hams = quadratic_hamiltonians(q3, [0, 1, 2])
    assert commutator(hams[0], hams[1]).is_zero()
    assert naive_commutator(hams[0].terms, hams[1].terms) == {}
    assert naive_commutator(hams[0].terms, hams[2].terms) == {}


def test_kernel_multiply_matches_naive_reducer(q2, rng):
    from oracles import naive_mul
    for _ in range(25):
        p = random_ncpoly(rng, q2, max_degree=2, terms=2)
        q = random_ncpoly(rng, q2, max_degree=2, terms=2)
        assert (p * q).terms == naive_mul(p.terms, q.terms)


def test_poisson_bracket_on_generators(c2):
    assert poisson_bracket(c2.gen(1, 1, 2), c2.gen(1, 2, 1)) == \
        c2.gen(1, 1, 1) - c2.gen(1, 2, 2)
    assert poisson_bracket(c2.gen(1, 1, 2), c2.gen(2, 2, 1)).is_zero()


def test_poisson_bracket_rejects_quantum(q2):
    with pytest.raises(ModeError):
        poisson_bracket(q2.gen(1, 1, 1), q2.gen(1, 1, 2))


def test_hamiltonian_conserved_with_numeric_crosscheck(c3, rng):
    hams = quadratic_hamiltonians(c3, [0, 1, 2])
    hg = physical_hamiltonian(c3)
    br = poisson_bracket(hams[0], hg)
    assert br.is_zero()
    # numeric cross-check of the bracket value at 5 random integer points
    for _ in range(5):
        point = random_point(rng, c3)
        assert numeric_poisson(hams[0].terms, hg.terms, point, max_degree=2) == 0


def test_numeric_poisson_oracle_agrees_on_nonzero_brackets(c3, rng):
    for _ in range(10):
        f = random_ncpoly(rng, c3, max_degree=2, terms=2)
        g = random_ncpoly(rng, c3, max_degree=2, terms=2)
        br = poisson_bracket(f, g)
        point = random_point(rng, c3)
        assert eval_terms(br.terms, point) == numeric_poisson(f.terms, g.terms, point, 2)


def test_classical_limit_examples(q1):
    e11, e12 = q1.gen(1, 1, 1), q1.gen(1, 1, 2)
    csig = q1.as_mode(Mode.CLASSICAL)
    assert classical_limit(e11 * e12 - e12) == csig.gen(1, 1, 1) * csig.gen(1, 1, 2)
    assert classical_limit(e11) == csig.gen(1, 1, 1)
    assert classical_limit(q1.zero()).is_zero()


def test_classical_limit_intertwines_brackets(q2, rng):
    checked = 0
    for _ in range(40):
        p = random_ncpoly(rng, q2, max_degree=2, terms=2)
        q = random_ncpoly(rng, q2, max_degree=2, terms=2)
        lhs = poisson_bracket(classical_limit(p), classical_limit(q))
        if lhs.is_zero():
            continue
        assert classical_limit(commutator(p, q)) == lhs
        checked += 1
    assert checked >= 10


def test_diagonal_generators_examples():
    sig = AlgebraSignature(2, 2, Mode.QUANTUM)
    gens = diagonal_generators(sig)
    assert gens[0] == sig.gen(1, 1, 1) + sig.gen(2, 1, 1)
    assert gens[1] == sig.gen(1, 2, 2) + sig.gen(2, 2, 2)


def test_diagonal_generators_commute_with_physical(q3):
    hg = physical_hamiltonian(q3)
    for d in diagonal_generators(q3):
        assert commutator(d, hg).is_zero()


def test_diagonal_generator_central_for_rank_one(rng):
    sig = AlgebraSignature(1, 3, Mode.QUANTUM)
    (gen,) = diagonal_generators(sig)
    for _ in range(10):
        p = random_ncpoly(rng, sig, max_degree=2, terms=3)
        assert commutator(gen, p).is_zero()


def test_associativity_on_random_triples(q2, rng):
    # normal-form canonicity: 200 random triples of degree <= 2 words
    for _ in range(200):
        words = [random_ncpoly(rng, q2, max_degree=2, terms=1) for _ in range(3)]
        a, b, c = words
        assert (a * b) * c == a * (b * c)


def test_commutator_bilinear_antisymmetric_jacobi(q2, rng):
    for _ in range(100):
        a = q2.gen(*_random_letter(rng, q2))
        b = q2.gen(*_random_letter(rng, q2))
        c = q2.gen(*_random_letter(rng, q2))
        assert commutator(a, b) == -commutator(b, a)
        assert commutator(a + b, c) == commutator(a, c) + commutator(b, c)
        jac = (commutator(a, commutator(b, c))
               + commutator(b, commutator(c, a))
               + commutator(c, commutator(a, b)))
        assert jac.is_zero()


def test_poisson_antisymmetry_leibniz_jacobi(c3, rng):
    # the built-in Lie-Poisson rule and the compiled limit-bracket table
    for table in (None, letter_table(limit_rijk_operator(3), c3)):
        def br(f, g):
            return poisson_bracket(f, g, table)

        for _ in range(100):
            p = random_ncpoly(rng, c3, max_degree=2, terms=2)
            q = random_ncpoly(rng, c3, max_degree=2, terms=2)
            r = random_ncpoly(rng, c3, max_degree=2, terms=2)
            assert br(p, q) == -br(q, p)
            assert br(p, q * r) == br(p, q) * r + q * br(p, r)
            assert (br(p, br(q, r)) + br(q, br(r, p)) + br(r, br(p, q))).is_zero()


def _random_letter(rng, sig):
    return (rng.randint(1, sig.sites), rng.randint(1, sig.rank),
            rng.randint(1, sig.rank))


def test_degree_of_zero_is_minus_infinity(c2):
    assert c2.zero().degree == float("-inf")
    assert c2.one().degree == 0


def test_partial_derivative(c2):
    x = c2.gen(1, 1, 1)
    y = c2.gen(1, 1, 2)
    p = (x * x * y * 3 + y) * Fraction(1, 2)
    packing = Packing(c2, p.degree)
    d, _, grad = packing.pack(p)

    def derivative(letter):
        return NCPoly.from_terms(c2, [(packing.word(rest), Fraction(c, d))
                                      for rest, c in grad.get(letter, {}).items()])

    assert d == 2
    assert derivative((1, 1, 1)) == 3 * (x * y)
    assert derivative((1, 1, 2)) == Fraction(3, 2) * (x * x) + Fraction(1, 2)
    assert derivative((2, 1, 1)).is_zero()


@pytest.mark.parametrize("max_exponent", range(1, 7))
def test_packed_word_round_trip(max_exponent):
    """``Packing.word`` inverts ``Packing.monomial`` on sorted words, with
    every field up to its maximum and formal variables packed after the
    letters, as ``lax.spectral_invariants`` packs its basis functions."""
    sig = AlgebraSignature(3, 2, Mode.CLASSICAL)
    extra = [0, 2, (Fraction(1, 3), 1), (Fraction(-2), 2)]
    packing = Packing(sig, max_exponent, extra)
    full = (1 << packing.bits) - 1
    assert full >= max_exponent
    rng = random.Random(max_exponent)
    n = len(packing.variables)
    last = n - len(extra) - 1
    assert packing.variables[last] == (2, 3, 3)     # the last letter at the last site
    assert packing.word(0) == ()
    for _ in range(200):
        fields = rng.sample(range(n), rng.randint(1, 5))
        if rng.random() < 0.5:
            fields.append(last)
        w = tuple(v for i, v in enumerate(packing.variables)
                  if i in fields for _ in range(rng.choice([1, full, rng.randint(1, full)])))
        assert packing.word(packing.monomial(w)) == w


def test_render_is_stable(q1):
    p = q1.gen(1, 1, 1) * q1.gen(1, 1, 2) - q1.gen(1, 1, 2) * Fraction(1, 2)
    assert p.render() == "-1/2 * e[1,2]@1 + e[1,1]@1 * e[1,2]@1"
    assert q1.zero().render() == "0"


# Integer-content bracket kernel: operands whose coefficients carry coprime
# denominators, so every operand is scaled by a nontrivial common denominator.
SCALES = (Fraction(1, 2), Fraction(2, 3), Fraction(-5, 7))


def _fractional_ncpoly(rng, sig, max_degree=3, terms=4):
    p = random_ncpoly(rng, sig, max_degree=max_degree, terms=terms)
    return NCPoly(sig, {w: c * rng.choice(SCALES) for w, c in p.terms.items()})


def _rational_point(rng, sig):
    return {g: Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for g in sig.letters()}


def test_integer_kernel_poisson_matches_numeric_oracle(rng):
    sig = AlgebraSignature(2, 2, Mode.CLASSICAL)
    nonzero = 0
    for _ in range(15):
        f, g = _fractional_ncpoly(rng, sig), _fractional_ncpoly(rng, sig)
        br = poisson_bracket(f, g)
        nonzero += not br.is_zero()
        point = _rational_point(rng, sig)
        assert eval_terms(br.terms, point) == numeric_poisson(f.terms, g.terms, point, 3)
    assert nonzero >= 10


def test_integer_kernel_commutator_matches_naive_reducer(q2, rng):
    nonzero = 0
    for _ in range(15):
        p = _fractional_ncpoly(rng, q2, max_degree=2, terms=3)
        q = _fractional_ncpoly(rng, q2, max_degree=2, terms=3)
        res = commutator(p, q)
        nonzero += not res.is_zero()
        assert res.terms == naive_commutator(p.terms, q.terms)
    assert nonzero >= 10


def test_integer_kernel_table_pencil_matches_block_oracle(rng):
    sig = AlgebraSignature(2, 3, Mode.CLASSICAL)
    lam, mu = Fraction(1, 2), Fraction(-2, 3)
    blocks = {(i, j): {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                       for k in range(1, 4)}
              for i in range(1, 4) for j in range(1, 4)}
    standard = {(i, i): {i: Fraction(1)} for i in range(1, 4)}
    table = letter_table(pencil(lam, standard_operator(3), mu, PoissonOperator(3, blocks)), sig)
    for _ in range(4):
        f = _fractional_ncpoly(rng, sig, max_degree=3, terms=3)
        g = _fractional_ncpoly(rng, sig, max_degree=2, terms=3)
        point = _rational_point(rng, sig)
        expected = (lam * numeric_block_bracket(standard, 2, f.terms, g.terms, point, 3)
                    + mu * numeric_block_bracket(blocks, 2, f.terms, g.terms, point, 3))
        assert eval_terms(poisson_bracket(f, g, table).terms, point) == expected


def test_integer_kernel_results_keep_fraction_coefficients(c2, q2):
    x12 = c2.gen(1, 1, 2) * Fraction(1, 2)
    x21 = c2.gen(1, 2, 1) * Fraction(2, 3) + Fraction(5, 7)
    br = poisson_bracket(x12, x21)
    assert all(type(c) is Fraction for c in br.terms.values())
    assert br.render() == "1/3 * x[1,1]@1 - 1/3 * x[2,2]@1"
    p = q2.gen(1, 1, 2) * Fraction(-5, 7) + q2.gen(2, 1, 1) * Fraction(1, 2)
    q = q2.gen(1, 2, 1) * q2.gen(1, 1, 1) * Fraction(2, 3)
    res = commutator(p, q)
    assert all(type(c) is Fraction for c in res.terms.values())
    assert res.render() == (p * q - q * p).render() == (
        "-10/21 * e[1,1]@1 + 10/21 * e[2,2]@1 - 10/21 * e[1,1]@1 * e[1,1]@1"
        " + 10/21 * e[1,1]@1 * e[2,2]@1 + 10/21 * e[1,2]@1 * e[2,1]@1")


def test_integer_kernel_rejects_mixed_signatures(c2, c3, q2, q3):
    with pytest.raises(SignatureMismatchError):
        poisson_bracket(c2.gen(1, 1, 2), c3.gen(1, 2, 1))
    with pytest.raises(SignatureMismatchError):
        commutator(q2.gen(1, 1, 2), q3.gen(1, 2, 1))
    with pytest.raises(ModeError):
        commutator(c2.gen(1, 1, 2), q2.gen(1, 2, 1))
    with pytest.raises(ModeError):
        poisson_bracket(q2.gen(1, 1, 2), c2.gen(1, 2, 1))


# Site-factored kernel: products and commutators split words into per-site
# blocks and telescope over the sites two words share.  The operands below
# draw each term's sites at random, so term pairs share 0, 1, 2 or 3 sites.
def _site_spread_ncpoly(rng, sig, terms=5):
    items = []
    for _ in range(terms):
        sites = [s for s in range(1, sig.sites + 1) if rng.random() < 0.6]
        word = tuple(sorted((s, rng.randint(1, sig.rank), rng.randint(1, sig.rank))
                            for s in sites for _ in range(rng.randint(1, 2))))
        items.append((word, Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((2, 3, 7)))))
    return NCPoly.from_terms(sig, items)


def _shared_sites(w1, w2):
    return len({g[0] for g in w1} & {g[0] for g in w2})


def test_site_factored_kernel_matches_naive_reducer(q3):
    rng = random.Random(20261018)
    shared = set()
    for _ in range(25):
        p, q = _site_spread_ncpoly(rng, q3), _site_spread_ncpoly(rng, q3)
        shared |= {_shared_sites(w1, w2) for w1 in p.terms for w2 in q.terms}
        assert (p * q).terms == naive_mul(p.terms, q.terms)
        assert commutator(p, q).terms == naive_commutator(p.terms, q.terms)
    assert shared == {0, 1, 2, 3}


def test_one_letter_and_constant_left_factors_match_naive_reducer(q3):
    # a one-letter left word is inserted where it sorts when the letters
    # sorting before it lie at other sites, and straightened site by site
    # otherwise; a constant left factor scales the right one
    rng = random.Random(20261020)
    ways = set()
    for _ in range(40):
        g = (rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 2))
        p = NCPoly(q3, {(g,): Fraction(rng.choice((-2, 1, 3)), rng.choice((1, 5)))})
        q = _site_spread_ncpoly(rng, q3)
        ways |= {algebra._letter_times(g, w) is None
                 for w in q.terms if w and g > w[0]}
        assert (p * q).terms == naive_mul(p.terms, q.terms)
    assert ways == {True, False}
    q = _site_spread_ncpoly(rng, q3)
    for c in (Fraction(-2, 3), Fraction(1)):
        p = NCPoly(q3, {(): c})
        assert (p * q).terms == naive_mul(p.terms, q.terms)
    a = LaxEntry(q3, {w: RatFun.one_over_z_minus(1) for w in q.terms})
    for f in (RatFun.z() * 2, RatFun.const(1)):
        assert LaxEntry.scalar(q3, f) * a == a.map(lambda h: f * h)


def test_three_site_telescope_against_naive_reducer(q3):
    # every site holds noncommuting letters of both words, so each site's
    # local commutator and both its local products enter the telescope
    p = NCPoly(q3, {((1, 1, 2), (2, 2, 1), (3, 1, 2)): Fraction(1, 2)})
    q = NCPoly(q3, {((1, 2, 1), (2, 1, 2), (3, 2, 1)): Fraction(2, 7)})
    res = commutator(p, q)
    assert res.terms == naive_commutator(p.terms, q.terms)
    assert len(res.terms) > 3


def test_lax_entry_product_matches_term_expansion(q3):
    rng = random.Random(7)
    coeffs = [RatFun.const(Fraction(2, 3)), RatFun.z(), RatFun.one_over_z_minus(1),
              RatFun.one_over_z_minus(Fraction(1, 2)) * 3]
    a = LaxEntry(q3, {w: rng.choice(coeffs) for w in _site_spread_ncpoly(rng, q3).terms})
    b = LaxEntry(q3, {w: rng.choice(coeffs) for w in _site_spread_ncpoly(rng, q3).terms})
    expected = LaxEntry.zero(q3)
    for w1, f in a.terms.items():
        for w2, g in b.terms.items():
            for w, k in naive_normal_form(w1 + w2).items():
                expected = expected + LaxEntry(q3, {w: f * g * k})
    assert a * b == expected
    assert not expected.is_zero()


def test_straightening_cache_stays_site_local():
    algebra._STRAIGHTEN.clear()
    algebra._LOCAL_PAIRS.clear()
    sig = AlgebraSignature(2, 3, Mode.QUANTUM)
    coeffs = talalaev_coefficients(talalaev_generators(gaudin_lax(sig, [0, 1, 2])))
    assert commutation_matrix([c for _, c in coeffs], [label for label, _ in coeffs]).passed
    assert algebra._STRAIGHTEN
    assert all(len({g[0] for g in w}) == 1 for w in algebra._STRAIGHTEN)
    assert all(len({g[0] for g in a + b}) == 1 for a, b in algebra._LOCAL_PAIRS)
    # a cache of whole cross-site words held 2275 words after this table
    assert len(algebra._STRAIGHTEN) < 2275 // 10
    assert len(algebra._STRAIGHTEN) + len(algebra._LOCAL_PAIRS) < 2275 // 4


# Packed classical kernel: poisson_bracket packs each word's exponent vector
# into one int with a field of (deg p + deg q - 1).bit_length() bits per
# letter.  The cases below fill the top of a field, so packing with one bit
# fewer would carry into the next letter and change the result.
def _power(sig, letter, k):
    return NCPoly(sig, {(letter,) * k: Fraction(1)})


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
def test_packed_bracket_fills_the_top_of_a_field(c2, k):
    # {x11^k x12, x11^k x21} holds x11^(2k+1): for k = 3 and 7 every bit of
    # the field is set
    x11, x12, x21 = (1, 1, 1), (1, 1, 2), (1, 2, 1)
    for site in (1, 2):
        g = (site, 1, 1)
        p = _power(c2, g, k) * c2.gen(site, 1, 2)
        q = _power(c2, g, k) * c2.gen(site, 2, 1)
        br = poisson_bracket(p, q)
        assert br.terms == leibniz_terms(p.terms, q.terms)
        assert br.terms[(g,) * (2 * k + 1)] == 1
    # the last letter in the packing order, against a lower one
    last = (2, 2, 2)
    p = _power(c2, last, k) * c2.gen(2, 2, 1)
    q = _power(c2, last, k) * c2.gen(2, 1, 2) * c2.gen(*x11) * c2.gen(*x12)
    assert poisson_bracket(p, q).terms == leibniz_terms(p.terms, q.terms)
    assert poisson_bracket(_power(c2, x21, k), _power(c2, x12, k)).terms == \
        leibniz_terms(_power(c2, x21, k).terms, _power(c2, x12, k).terms)


def test_packed_bracket_matches_leibniz_and_numeric_oracles(c3):
    rng = random.Random(4101)
    for _ in range(12):
        f = _fractional_ncpoly(rng, c3, max_degree=4, terms=4)
        g = _fractional_ncpoly(rng, c3, max_degree=3, terms=4)
        br = poisson_bracket(f, g)
        assert br.terms == leibniz_terms(f.terms, g.terms)
        point = _rational_point(rng, c3)
        assert eval_terms(br.terms, point) == numeric_poisson(f.terms, g.terms, point, 4)


def test_packed_bracket_zero_and_constant_operands(c3, rng):
    p = random_ncpoly(rng, c3, max_degree=3, terms=4)
    zero, half = c3.zero(), c3.one() * Fraction(1, 2)
    for a, b in ((zero, p), (p, zero), (zero, zero), (half, p), (p, half), (half, half)):
        assert poisson_bracket(a, b) == c3.zero()
        assert poisson_bracket(a, b, letter_table(limit_rijk_operator(3), c3)).is_zero()
    # a constant term inside a nonconstant operand drops out of the bracket
    x = c3.gen(1, 1, 2)
    assert poisson_bracket(x + 5, p) == poisson_bracket(x, p)


def test_packed_bracket_rank_one_single_site():
    sig = AlgebraSignature(1, 1, Mode.CLASSICAL)
    x = (1, 1, 1)
    # the Lie-Poisson bracket of gl(1) vanishes
    assert poisson_bracket(_power(sig, x, 3), _power(sig, x, 4)).is_zero()
    # a table with {x, x} = c x: {x^a, x^b} = a b c x^(a+b-1)
    c = Fraction(-3, 5)
    table = (5, {(x, x): [(x, -3)]})
    for a, b in ((1, 1), (1, 2), (2, 3), (4, 4), (8, 1)):
        br = poisson_bracket(_power(sig, x, a), _power(sig, x, b), table)
        assert br.terms == {(x,) * (a + b - 1): a * b * c}
        assert br.terms == leibniz_terms(_power(sig, x, a).terms, _power(sig, x, b).terms,
                                         table)


def test_antisymmetry_residuals_double_the_self_bracket():
    # no block operator gives {x, x} != 0, so the table is planted
    x = (1, 1, 2)
    table = (3, {(x, x): [((1, 1, 1), 1)], (x, (1, 2, 1)): [((1, 1, 1), 1)],
                 ((1, 2, 1), x): [((1, 1, 1), -1)]})
    assert list(antisymmetry_residuals(table)) == [(x, x, {(1, 1, 1): 2})]


def test_packed_bracket_fractional_limit_tables(c3):
    rng = random.Random(4102)
    op = pencil(Fraction(1, 2), standard_operator(3), Fraction(-2, 3), limit_rijk_operator(3))
    table = letter_table(op, c3)
    d, rules = table
    assert any(Fraction(k, d).denominator > 1 for rule in rules.values() for _, k in rule)
    for _ in range(8):
        f = _fractional_ncpoly(rng, c3, max_degree=3, terms=4)
        g = _fractional_ncpoly(rng, c3, max_degree=3, terms=4)
        br = poisson_bracket(f, g, table)
        assert br.terms == leibniz_terms(f.terms, g.terms, table)
        assert not br.is_zero()
