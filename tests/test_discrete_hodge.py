"""Matrix Dirac complexes: structure identities, spectra, the circle study."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from checks import (
    RANK_TOL,
    group_eigenvalues,
    projected_eigh,
    structure_report,
    verify_decomposition,
    verify_eigenspace_pairing,
    verify_minimax,
)
from tubespec.discrete_hodge import (
    DiracComplexMatrix,
    _circle_exact_spectrum,
    build_circle_complex,
    build_interval_complex,
    exact_positive_spectrum,
    harmonic_dimension,
    s1_case_study,
)


def _assert_structure_clean(cx):
    rep = structure_report(cx)
    for key, residual in rep.items():
        assert residual <= 1e-12, f"{cx.name}: {key} residual {residual}"


@pytest.mark.parametrize("n", [4, 8, 32, 128])
def test_circle_structure_identities(n):
    _assert_structure_clean(build_circle_complex(n))


@pytest.mark.parametrize("condition", ["Absolute", "Relative"])
@pytest.mark.parametrize("n", [5, 8, 33, 128])
def test_interval_structure_identities(n, condition):
    _assert_structure_clean(build_interval_complex(n, 1.0, condition))


def test_circle_closed_form_spectrum():
    n = 16
    cx = build_circle_complex(n)
    want = sorted(4.0 * math.sin(math.pi * k / n) ** 2 / cx.step**2
                  for k in range(1, n) for _ in (0, 1))  # functions and forms
    got = np.sort(np.linalg.eigvalsh(cx.P))[2:]  # drop the 2 harmonic zeros
    assert got == pytest.approx(want, rel=1e-11)


def test_interval_absolute_matches_free_string():
    n, length = 9, 1.0
    cx = build_interval_complex(n, length, "Absolute")
    want = [4.0 * math.sin(math.pi * k / (2 * n)) ** 2 / cx.step**2
            for k in range(1, n)]
    assert exact_positive_spectrum(cx) == pytest.approx(want, rel=1e-11)
    assert harmonic_dimension(cx) == 1  # the constant function


def test_interval_relative_matches_fixed_string():
    n, length = 9, 1.0
    cx = build_interval_complex(n, length, "Relative")
    want = [4.0 * math.sin(math.pi * k / (2 * (n - 1))) ** 2 / cx.step**2
            for k in range(1, n - 1)]
    assert exact_positive_spectrum(cx) == pytest.approx(want, rel=1e-11)
    assert harmonic_dimension(cx) == 1  # the constant 1-form survives


def test_green_identity_is_exact():
    cx = build_circle_complex(12)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal(cx.dim)
        b = rng.standard_normal(cx.dim)
        lhs = float((cx.d @ a) @ b)
        rhs = float(a @ (cx.delta @ b))
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


def test_decomposition_is_complete():
    for cx in (build_circle_complex(8),
               build_interval_complex(8, 1.0, "Absolute"),
               build_interval_complex(8, 1.0, "Relative")):
        rep = verify_decomposition(cx)
        assert rep["complete"]
        assert sum(rep["dims"]) == cx.dim
        assert rep["max_orthogonality_residual"] <= 1e-10


def test_circle_decomposition_dimensions():
    rep = verify_decomposition(build_circle_complex(8))
    assert rep["dims"] == (2, 7, 7)  # harmonic, exact, coexact


def test_exact_and_coexact_spectra_agree():
    for cx in (build_circle_complex(10),
               build_interval_complex(11, 2.0, "Absolute")):
        ex = exact_positive_spectrum(cx)
        co = projected_eigh(cx, cx.delta)[0]
        assert ex == pytest.approx(co, rel=1e-10)


def test_multiplicity_bookkeeping_per_eigenvalue():
    n = 8
    cx = build_circle_complex(n)
    groups = group_eigenvalues(exact_positive_spectrum(cx))
    # interior wavenumbers pair k with n-k, the Nyquist mode is alone
    assert [m for _, m in groups] == [2, 2, 2, 1]
    for lam, mult in groups:
        split = verify_eigenspace_pairing(cx, lam)
        assert split.E_exact.shape[1] == mult
        assert split.E_coexact.shape[1] == mult
        assert split.E.shape[1] == 2 * mult


def test_pairing_first_circle_eigenvalue():
    cx = build_circle_complex(8)
    lam = float(exact_positive_spectrum(cx)[0])
    assert lam == pytest.approx(0.9496412035517839, rel=1e-12)
    split = verify_eigenspace_pairing(cx, lam)
    assert split.eigenvalue == lam


def test_pairing_rejects_bad_eigenvalues():
    cx = build_circle_complex(8)
    with pytest.raises(ValueError, match="positive"):
        verify_eigenspace_pairing(cx, 0.0)
    with pytest.raises(ValueError, match="eigenvalue"):
        verify_eigenspace_pairing(cx, 0.123456)


def test_minimax_facets_on_circle():
    cx = build_circle_complex(8)
    for i in (1, 2, 3):
        rep = verify_minimax(cx, i)
        assert not rep["degenerate"]
        assert rep["passed"]
        assert rep["sup_quotient"] == pytest.approx(rep["lambda_exact"],
                                                    rel=1e-8)


@pytest.mark.parametrize("cx", [build_circle_complex(n) for n in (8, 16, 33, 64)]
                         + [build_interval_complex(n, 2.0, cond) for n in (8, 16, 33)
                            for cond in ("Absolute", "Relative")],
                         ids=lambda cx: cx.name)
def test_minimax_quotient_matches_scipy_generalized_eigh(cx):
    # verify_minimax reduces the i x i pencil (A, B) with a Cholesky factor of
    # B in numpy; scipy's generalized eigh on the same A and B is the oracle
    exact_vectors = projected_eigh(cx, cx.d)[1]
    pinv_d = np.linalg.pinv(cx.d, rcond=RANK_TOL)
    available = exact_positive_spectrum(cx).size
    for i in [i for i in (1, 2, 3, 5, 8) if i <= available]:
        rep = verify_minimax(cx, i)
        L = exact_vectors[:, :i]
        chi = pinv_d @ L
        want = float(np.max(scipy.linalg.eigh(L.T @ L, chi.T @ chi,
                                              eigvals_only=True)))
        assert rep["sup_quotient"] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_minimax_degenerate_and_validation():
    cx = build_circle_complex(8)
    assert verify_minimax(cx, 99) == {"degenerate": True, "available": 7}
    with pytest.raises(ValueError, match=">= 1"):
        verify_minimax(cx, 0)


def test_builder_validation():
    with pytest.raises(ValueError):
        build_circle_complex(3)
    with pytest.raises(ValueError):
        build_interval_complex(3, 1.0)
    with pytest.raises(ValueError):
        build_interval_complex(8, 0.0)
    with pytest.raises(ValueError):
        build_interval_complex(8, 1.0, "Mixed")


S1_TABLE = {
    # (n, fraction) -> (C_rho, bound, true_mu_N)
    (64, 0.125): (1.748582, 0.030089, 3.987165),
    (64, 0.25): (0.451208, 0.021271, 3.987165),
    (128, 0.125): (1.804833, 0.031143, 3.996788),
    (128, 0.25): (0.454759, 0.021834, 3.996788),
}


@pytest.mark.parametrize("n,frac", sorted(S1_TABLE))
def test_s1_case_study_regression(n, frac):
    rep = s1_case_study(n, frac)
    c_rho, bound, true_mu = S1_TABLE[(n, frac)]
    assert rep["C_rho"] == pytest.approx(c_rho, abs=5e-7)
    assert rep["bound"] == pytest.approx(bound, abs=5e-7)
    assert rep["true_mu_N"] == pytest.approx(true_mu, abs=5e-7)
    assert rep["valid"]
    assert 0.0 < rep["bound"] <= rep["true_mu_N"]
    assert rep["margin"] == pytest.approx(rep["true_mu_N"] - rep["bound"])
    # two overlap components, one harmonic constant each
    assert rep["harmonic_dim_overlap_total"] == 2
    assert rep["N"] == 3


def test_s1_overlap_direction():
    # shrinking the overlap raises C_rho, and because the arcs shrink with
    # it, mu(U_i) grows enough that the bound rises as well
    wide = s1_case_study(64, 0.25)
    narrow = s1_case_study(64, 0.125)
    assert narrow["C_rho"] > wide["C_rho"]
    assert narrow["bound"] > wide["bound"]


def test_s1_report_is_internally_consistent():
    rep = s1_case_study(64, 0.25)
    n, e = rep["n"], rep["edge_extension"]
    assert rep["arc_nodes"] == n // 2 + 2 * e + 1
    assert rep["overlap_component_nodes"] == 2 * e + 1
    assert rep["cover"]["mu_set"] == [rep["mu_arcs"]] * 2
    assert rep["cover"]["C_rho"] == rep["C_rho"]
    assert len(rep["per_set_terms"]) == 2


def test_s1_degenerate_inputs():
    with pytest.raises(ValueError, match=">= 32"):
        s1_case_study(16, 0.25)
    with pytest.raises(ValueError, match="even"):
        s1_case_study(33, 0.25)
    with pytest.raises(ValueError, match="fraction"):
        s1_case_study(64, 0.5)
    with pytest.raises(ValueError, match="fraction"):
        s1_case_study(64, 0.0)
    with pytest.raises(ValueError, match="degenerate overlap"):
        s1_case_study(64, 0.01)  # e rounds to 0


_BUILDERS = {"circle": build_circle_complex,
             "Absolute": lambda n: build_interval_complex(n, 1.0, "Absolute"),
             "Relative": lambda n: build_interval_complex(n, 1.0, "Relative")}


@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_complex_stores_only_D(kind):
    cx = _BUILDERS[kind](9)
    arrays = [f.name for f in dataclasses.fields(cx)
              if isinstance(getattr(cx, f.name), np.ndarray)]
    assert arrays == ["D"]
    assert (cx.dim_minus, cx.dim_plus) == cx.D.shape
    d = cx.d
    assert np.array_equal(d[cx.dim_plus:, :cx.dim_plus], cx.D)
    d[cx.dim_plus:, :cx.dim_plus] = 0.0
    assert not d.any()
    grading = np.diag([1.0] * cx.dim_plus + [-1.0] * cx.dim_minus)
    assert np.array_equal(cx.delta, cx.d.T)
    assert np.array_equal(cx.T, grading)
    assert np.array_equal(cx.Q, cx.d + cx.d.T)
    assert np.array_equal(cx.P, cx.Q @ cx.Q)
    blocks = scipy.linalg.block_diag(cx.D.T @ cx.D, cx.D @ cx.D.T)
    assert np.allclose(cx.P, blocks, rtol=0.0, atol=1e-12 * np.abs(blocks).max())


@pytest.mark.parametrize("n", [8, 33, 100])
@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_gram_spectra_match_projection_onto_ranges(kind, n):
    # the Gram block D D^T against P projected onto range(d), and onto
    # range(delta), whose spectrum d pairs with it
    cx = _BUILDERS[kind](n)
    got = exact_positive_spectrum(cx)
    for span in (cx.d, cx.delta):
        want = projected_eigh(cx, span)[0]
        assert got.size == want.size
        assert got == pytest.approx(want, rel=1e-10)
    assert harmonic_dimension(cx) == verify_decomposition(cx)["dims"][0]


@pytest.mark.parametrize("frac", [0.125, 0.25])
@pytest.mark.parametrize("n", [64, 256, 1024])
def test_s1_case_study_matches_closed_forms(n, frac):
    rep = s1_case_study(n, frac)
    h = 2.0 * math.pi / n

    def string(nodes):  # lowest free-string eigenvalue on `nodes` nodes
        return 4.0 * math.sin(math.pi / (2 * nodes)) ** 2 / h**2

    assert rep["mu_arcs"] == pytest.approx(string(rep["arc_nodes"]), rel=1e-10)
    assert rep["mu_overlap"] == pytest.approx(
        string(rep["overlap_component_nodes"]), rel=1e-10)
    # mu_N is the ceil(N/2)-th distinct circle eigenvalue, each one doubled;
    # the closed form the study uses is within 4 ulp of a 40-digit evaluation
    k = (rep["N"] + 1) // 2
    with mpmath.workdps(40):
        want = float(4 * mpmath.sin(mpmath.pi * k / n) ** 2 / (2 * mpmath.pi / n) ** 2)
    assert abs(rep["true_mu_N"] - want) <= 4 * math.ulp(want)
    # the constant function spans the kernel of each Absolute interval
    assert rep["harmonic_dim_arcs"] == 1
    assert rep["harmonic_dim_overlap_total"] == 2

    # the steepest step of the smoothstep ramp over 2e edges sets C_rho
    ramp = 2 * rep["edge_extension"]

    def smoothstep(y):
        return 3.0 * y**2 - 2.0 * y**3

    jump = max(abs(smoothstep((i + 1) / ramp) - smoothstep(i / ramp))
               for i in range(ramp))
    assert rep["C_rho"] == pytest.approx(0.5 * (jump / h) ** 2, rel=1e-12)


def test_s1_case_study_runs_one_eigensolve_per_complex(monkeypatch):
    # arc and overlap component: each spectrum gives mu and h at once; the
    # circle's spectrum comes from its closed form, with no eigensolve
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    rep = s1_case_study(1024, 0.125)
    assert rep["valid"]
    e = rep["edge_extension"]
    assert calls == [(512 + 2 * e, 512 + 2 * e), (2 * e, 2 * e)]


@pytest.mark.parametrize("n", [64, 1536, 1920])
def test_circle_closed_form_matches_a_high_precision_evaluation(n):
    # at n = 1536 and 1920, sin(pi (n - 2) / n) in floats is about 1e-13
    # off sin(2 pi / n), hundreds of ulp of mu_3; each eigenvalue must be
    # within 8 ulp of its true value (the worst seen is 5)
    got = _circle_exact_spectrum(n)
    with mpmath.workdps(40):
        step = 2 * mpmath.pi / n
        want = sorted(float(4 * mpmath.sin(mpmath.pi * k / n) ** 2 / step**2)
                      for k in range(1, n))
    assert all(abs(g - w) <= 8 * math.ulp(w) for g, w in zip(got, want, strict=True))


@pytest.mark.parametrize("N", [3, 4, 31])
def test_s1_true_mu_N_is_the_Nth_circle_eigenvalue(N, monkeypatch):
    # the circle of 32 nodes has 31 positive exact eigenvalues, each value
    # but the top one 4 / step^2 (k = n/2) twice: mu_3 = mu_4 and mu_31 is the top
    import tubespec.discrete_hodge as dh
    real = dh.laplacian_bound

    def with_N(cover, **kwargs):
        res = real(cover, **kwargs)
        return dataclasses.replace(res, N=N)

    monkeypatch.setattr(dh, "laplacian_bound", with_N)
    rep = s1_case_study(32, 0.25)
    step = 2.0 * math.pi / 32
    mu_twin_2 = 4.0 * math.sin(2 * math.pi / 32) ** 2 / step**2
    want = {3: mu_twin_2, 4: mu_twin_2, 31: 4.0 / step**2}[N]
    assert rep["N"] == N
    assert rep["true_mu_N"] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_circle_closed_form_matches_the_dense_exact_spectrum(n):
    # the dense Hodge path referees the closed form that s1_case_study uses
    want = exact_positive_spectrum(build_circle_complex(n))
    got = _circle_exact_spectrum(n)
    assert got.size == want.size == n - 1
    assert got == pytest.approx(want, rel=1e-10)


def test_s1_case_study_builds_no_graded_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("dim x dim graded matrix built")

    monkeypatch.setattr(DiracComplexMatrix, "d", property(refuse))
    monkeypatch.setattr(DiracComplexMatrix, "P", property(refuse))
    assert s1_case_study(64, 0.125)["valid"]


def test_zero_cutoff_at_the_case_study_limit():
    # the largest interval s1_case_study can build: the smallest positive
    # eigenvalue is sin^2(pi / 4098) ~ 5.9e-7 of the largest, far above 1e-9
    cx = build_interval_complex(2049, 2.0 * math.pi, "Absolute")
    assert harmonic_dimension(cx) == 1
    assert exact_positive_spectrum(cx).size == 2048
