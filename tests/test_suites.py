import pytest

from gaudin.reports import CheckReport, all_passed
from gaudin.suites import SUITES, RunConfig, run_suite


def small_cfg(**kw):
    defaults = dict(rank=1, sites=2, seed=3)
    defaults.update(kw)
    return RunConfig(**defaults)


def test_run_suite_quadratic_small():
    reports = run_suite("quadratic", small_cfg())
    assert all_passed(reports)


def test_run_suite_unknown():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nonsense", small_cfg())


def test_scale_guard_and_override():
    cfg = small_cfg(rank=4)
    with pytest.raises(ValueError, match="desk-scale"):
        run_suite("quadratic", cfg)
    cfg = small_cfg(sites=4, mode="quantum", unsafe_scale=True)
    cfg.check_scale()  # no error once overridden


def test_diagnostics_do_not_gate():
    reports = [
        CheckReport(check="a", passed=True),
        CheckReport(check="b", passed=None, info={"diagnostic": True}),
    ]
    assert all_passed(reports)
    reports.append(CheckReport(check="c", passed=False))
    assert not all_passed(reports)


def test_manin_suite_small():
    reports = run_suite("manin", small_cfg(rank=2, sites=2))
    assert all_passed(reports)
    names = [r.check for r in reports]
    assert any("weyl_control" in n for n in names)


def test_talalaev_suite_certifies_residue_coefficients():
    reports = run_suite("talalaev", small_cfg(rank=2, sites=2))
    assert all_passed(reports)
    rep = next(r for r in reports if r.check == "talalaev_commutation")
    # QH0 and QTr2 have double poles; QTr1 repeats QH1, and the
    # simple-pole residues of QH0 at the two poles are proportional
    assert rep.params == {"count": 8, "mode": "quantum"}
    # QTr2[z=0,order 0] is -2 QH0[z=0,order 0] plus a product of central
    # coefficients, so only QH0[z=0,order 0] is in the basis
    assert rep.info == {"central": 6, "basis": 1, "pairs": 0}


def test_talalaev_r3n2_commutator_calls(monkeypatch, tmp_path):
    # 88 letter tests of the centre test plus 3 basis pairs: a lost
    # reduction of the certificate shows here without any timing
    import gaudin.algebra
    from gaudin.cli import main

    calls = []
    real = gaudin.algebra.commutator
    monkeypatch.setattr(gaudin.algebra, "commutator", lambda p, q: calls.append(1) or real(p, q))
    assert main(["verify", "talalaev", "--r", "3", "--sites", "2", "--out", str(tmp_path)]) == 0
    assert len(calls) == 88 + 3


def test_no_suite_takes_a_polynomial_gcd(monkeypatch):
    # RatFun is canonical in partial-fraction form, so no arithmetic path
    # reaches ratfun.poly_gcd
    import gaudin.ratfun

    calls = []
    real = gaudin.ratfun.poly_gcd
    monkeypatch.setattr(gaudin.ratfun, "poly_gcd", lambda *a: calls.append(a) or real(*a))
    for name in SUITES:
        run_suite(name, RunConfig())
    run_suite("manin", RunConfig(rank=3))
    assert calls == []


@pytest.mark.parametrize("suite", ["talalaev", "manin"])
def test_quantum_suites_apply_the_quantum_limit(suite):
    # both build the quantum algebra, so the classical default mode must not
    # lift the three-site limit
    with pytest.raises(ValueError, match="sites <= 3 in quantum mode"):
        run_suite(suite, small_cfg(sites=4))
    with pytest.raises(ValueError, match="sites <= 3 in quantum mode"):
        run_suite(suite, small_cfg(sites=4, mode="classical"))
    small_cfg(sites=4).check_scale()  # a classical build may use four sites


@pytest.mark.parametrize("suite,cfg,matrices", [
    ("bending", RunConfig(), 2), ("bending", RunConfig(sites=2), 1),
    ("glue", RunConfig(), 2), ("glue", RunConfig(mode="quantum", rank=3), 2),
])
def test_quantum_half_runs_talalaev_once_per_matrix(monkeypatch, suite, cfg, matrices):
    # the symbol check and the commutation table read the same outputs
    import gaudin.gluing

    calls = []
    real = gaudin.gluing.talalaev_generators
    monkeypatch.setattr(gaudin.gluing, "talalaev_generators",
                        lambda m: calls.append(m.label) or real(m))
    reports = run_suite(suite, cfg)
    assert all_passed(reports)
    assert len(calls) == matrices
    assert len(set(calls)) == matrices


def test_classical_glue_at_rank_three_has_no_quantum_half(monkeypatch):
    import gaudin.gluing

    monkeypatch.setattr(gaudin.gluing, "talalaev_generators",
                        lambda m: pytest.fail("quantum half ran"))
    checks = [r.check for r in run_suite("glue", RunConfig(rank=3))]
    assert checks == ["glued_family_commutes", "rank_completeness", "hg_membership"]


def test_bending_table_certificates_bracket_each_pair_once(monkeypatch):
    # per certificate: each central input against the 36 letters in one
    # order, the non-central inputs up to their first nonzero letter bracket,
    # and the pairs i < j of S (C(9, 2) = 36 and C(13, 2) = 78)
    from gaudin import algebra, poisson

    calls = []
    bracket, certificate = algebra.Packing.bracket, poisson.commutation_matrix

    def counted_certificate(*args, **kw):
        calls.append(0)
        return certificate(*args, **kw)

    def counted_bracket(*args):
        calls[-1] += 1
        return bracket(*args)

    monkeypatch.setattr(algebra.Packing, "bracket", counted_bracket)
    monkeypatch.setattr(poisson, "commutation_matrix", counted_certificate)
    reports = run_suite("bending", RunConfig(rank=3, sites=4))
    assert all_passed(reports)
    info = {r.check: r.info for r in reports}
    assert info["bending_commutes_standard"] == {"central": 14, "basis": 9, "pairs": 36}
    assert info["bending_commutes_limit"] == {"central": 11, "basis": 13, "pairs": 78}
    assert calls == [14 * 36 + 22 + 36, 11 * 36 + 25 + 78]
