"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single
"[PASS] criterion N: ..." or "[FAIL] criterion N: ..." line before
asserting, so a plain run (with -s) yields one status line per criterion.

Criterion 5's final sub-check is at peak width delta=1. In the CodeState
wavefunction a peak at mu = (j+dk) ell carries the envelope weight
exp(-delta^2 mu^2 / 2), and ell^2 = 2 pi / d. For d=3 at delta=1, the
0-logical state's nearest side peaks sit at +-3 ell with weight
exp(-3 pi) ~ 8e-5, so that state is the Gaussian vacuum and its log M must
match the vacuum's within 1e-3. The phase state keeps peaks at +-ell with
relative weight exp(-pi/3) ~ 0.35: it is a three-Gaussian superposition, not
the vacuum, and its log M lies about 1.7e-2 above the vacuum's. The phase
state is therefore checked, within the same 1e-3, against the negativity of
the literal theta oracle (wigner_oracle) integrated by the same midpoint
escalation; its distance from the vacuum is printed for information only.
"""

import math
import time

import numpy as np

from zakgross import wigner
from zakgross.estimator import estimate, plan
from zakgross.measure import MeasurementSpec, quadrature_probabilities
from zakgross.oracles import (
    SP_TAGS,
    check_calibration,
    check_decompose_roundtrip,
    check_gottesman_knill,
    check_normalization,
    check_theta_oracle,
    gaussian_wigner,
    parity_identity_holds,
    random_word,
    wigner_oracle,
)
from zakgross.qudit import CodeParams
from zakgross.symplectic import word_symplectic
from zakgross.theta import CodeState
from zakgross.wigner import RealisticFactor, realistic_input


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _report_check(num, budget_s, check, *args):
    t0 = time.time()
    ok, detail = check(*args)
    elapsed = time.time() - t0
    _report(num, ok and elapsed < budget_s, f"{detail}, {elapsed:.1f}s")


def test_criterion_1_gottesman_knill_agreement():
    # ideal inputs + generator words + lattice displacements, binned at K=d,
    # against the dense Clifford oracle
    rng = np.random.default_rng(20260815)
    _report_check(1, 120.0, check_gottesman_knill, rng, (3, 5), (1, 2, 3), 100)


def test_criterion_2_parity_identity():
    rng = np.random.default_rng(41)
    t0 = time.time()
    checked = 0
    for _ in range(500):
        n = int(rng.integers(1, 4))
        params = CodeParams(d=3, n=n)
        word = random_word(rng, n, int(rng.integers(1, 9)), tags=SP_TAGS)
        s = word_symplectic(word, params)
        a = rng.integers(-50, 51, size=(1000, 2 * n))
        ok_batch = parity_identity_holds(s, a.astype(object))
        assert ok_batch.all(), f"parity identity broken for word {word}"
        checked += int(ok_batch.size)
    elapsed = time.time() - t0
    _report(
        2,
        checked == 500_000 and elapsed < 60.0,
        f"exponent parity identity exact on {checked} (S, a) pairs, {elapsed:.1f}s",
    )


def test_criterion_3_theta_vs_direct_definition_oracle():
    _report_check(3, 300.0, check_theta_oracle, (0.2, 0.3, 0.5), 9)


def test_criterion_4_normalization():
    _report_check(4, math.inf, check_normalization, (0.2, 0.3, 0.5))


def test_criterion_5_negativity_headline_and_trends():
    d = 3
    params = CodeParams(d=d, n=1)
    t0 = time.time()
    deltas = (0.5, 0.4, 0.3, 0.25)
    log_m = {}
    for delta in deltas:
        for kind in ("logical", "phase"):
            if kind == "phase":
                st = CodeState.phase_state(d, delta)
            else:
                st = CodeState.logical(d, 0, delta)
            log_m[(kind, delta)] = math.log(RealisticFactor(st).negativity(tol=1e-7))

    headline = log_m[("logical", 0.25)]
    headline_ok = 1.5e-4 <= headline <= 6.0e-4

    logical_seq = [log_m[("logical", dl)] for dl in deltas]
    monotone_ok = all(a > b for a, b in zip(logical_seq, logical_seq[1:]))
    order_ok = all(log_m[("phase", dl)] > log_m[("logical", dl)] for dl in deltas)

    # at delta=1 the 0-logical state is the vacuum; the phase state keeps its
    # side peaks, so it is held to the literal oracle; both references go
    # through the package's own midpoint escalation
    period = params.torus_period
    vac = math.log(
        wigner._abs_integral(lambda xs, zs: gaussian_wigner(d, xs, zs) / d, period, 1e-7)
    )
    lim_logical = math.log(RealisticFactor(CodeState.logical(d, 0, 1.0)).negativity(tol=1e-7))
    phase_fac = RealisticFactor(CodeState.phase_state(d, 1.0))
    lim_phase = math.log(phase_fac.negativity(tol=1e-7))
    oracle = math.log(
        wigner._abs_integral(
            lambda xs, zs: wigner_oracle(phase_fac.state, xs, zs) / (d * phase_fac.norm),
            period,
            1e-7,
        )
    )
    dev_logical = abs(lim_logical - vac)
    dev_phase_oracle = abs(lim_phase - oracle)
    dev_phase_vac = abs(lim_phase - vac)
    limit_ok = dev_logical < 1e-3 and dev_phase_oracle < 1e-3

    elapsed = time.time() - t0
    ok = headline_ok and monotone_ok and order_ok and limit_ok and elapsed < 900.0
    _report(
        5,
        ok,
        f"log M(0.25, 0-logical)={headline:.3e} in [1.5e-4, 6e-4]: {headline_ok}; "
        f"0-logical decreasing over {deltas}: {monotone_ok}; "
        f"phase above 0-logical everywhere: {order_ok}; "
        f"delta=1: phase vs oracle log M={oracle:.5f} dev {dev_phase_oracle:.1e}, "
        f"0-logical vs vacuum log M={vac:.5f} dev {dev_logical:.1e} (tol 1e-3); "
        f"phase vs vacuum dev {dev_phase_vac:.1e} (information); {elapsed:.0f}s",
    )


def test_criterion_6_estimator_calibration():
    t0 = time.time()
    d = 3
    calib_ok, calib_detail = check_calibration(200, 0.05, 0.1)

    params1 = CodeParams(d=d, n=1)
    rstate = realistic_input(params1, [CodeState.logical(d, 0, 0.3)])
    rspec = MeasurementSpec((0,), K=d)
    ref = quadrature_probabilities(rstate, rspec)
    rplan = plan(0.02, 0.05, rstate.negativity())
    rep = estimate(rstate, rspec, rplan, seed=11)
    rdev = float(np.abs(rep.probabilities - ref).max())
    realistic_ok = rdev < 0.02

    elapsed = time.time() - t0
    ok = calib_ok and realistic_ok and elapsed < 600.0
    _report(
        6,
        ok,
        f"{calib_detail}; "
        f"realistic width 0.3 vs quadrature: dev {rdev:.1e} (tol 0.02); {elapsed:.0f}s",
    )


def test_criterion_7_negativity_multiplicativity_and_invariance():
    rng = np.random.default_rng(99)
    d = 3
    params = CodeParams(d=d, n=2)
    st_a = CodeState.logical(d, 0, 0.3)
    st_b = CodeState.phase_state(d, 0.35)
    state = realistic_input(params, [st_a, st_b])

    m_joint = state.negativity()
    m_a = RealisticFactor(st_a).negativity()
    m_b = RealisticFactor(st_b).negativity()
    rel = abs(m_joint - m_a * m_b) / (m_a * m_b)
    product_ok = rel < 1e-8

    # the product rule rests on pointwise factorization of the joint function;
    # exercise that through the generic 2-mode evaluation path
    period = params.torus_period
    pts = rng.uniform(0.0, period, size=(200, 4))
    joint = np.array([state.evaluate(p) for p in pts])
    fac_a = RealisticFactor(st_a)
    fac_b = RealisticFactor(st_b)
    split = np.array(
        [
            float(fac_a.wigner(np.array([p[0], p[2]])) * fac_b.wigner(np.array([p[1], p[3]])))
            for p in pts
        ]
    )
    factor_dev = float(np.abs(joint - split).max())
    factor_ok = factor_dev < 1e-10

    evolved = state
    for _ in range(3):
        evolved = evolved.apply_word(random_word(rng, 2, 4, tags=SP_TAGS))
        evolved = evolved.apply_displacement(rng.integers(-3, 4, size=4).tolist())
    invariance_ok = evolved.negativity() == m_joint

    ok = product_ok and factor_ok and invariance_ok
    _report(
        7,
        ok,
        f"2-mode negativity vs factor product: rel dev {rel:.1e} (tol 1e-8); "
        f"pointwise factorization dev {factor_dev:.1e}; "
        f"gate+displacement invariance exact: {invariance_ok}",
    )


def test_criterion_8_decomposition_round_trip():
    _report_check(8, 120.0, check_decompose_roundtrip, np.random.default_rng(5150), 100)
