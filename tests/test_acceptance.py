"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the [PASS]/[FAIL] lines.
"""

import json
import math

import numpy as np
import pytest

from circleforge.arcs import ExceptionalSample
from circleforge.arcints import (
    major_arc_integral,
    pruned_integral_diagnostic,
    singular_integral,
)
from circleforge.cli import main as cli_main
from circleforge.moments import (
    count_cube_sixth_correlation,
    count_sixth_pair_collisions,
    cube_multiplicity,
    shifted_cube_correlation,
    sixth_power_eighth_moment,
)
from circleforge.powersums import leading_constant
from circleforge.repcount import pair_spectrum, read_spectrum, rep_count_range, rep_count_single, write_spectrum
from circleforge.scan import PsiSpec, scan
from circleforge.sseries import congruence_count, series_term, truncated_singular_series

from oracles import cube_sixth_correlation_brute, prime_powers_up_to, rep_range_enumeration


def _report(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}", flush=True)
    assert ok, label


def test_criterion_01_gamma_identity():
    lc = leading_constant()
    ok = lc.value > 0 and abs(lc.value - lc.gamma_product_form) <= 1e-12 * lc.value
    _report(ok, "criterion 1: leading-constant closed forms agree to 1e-12")


def test_criterion_02_exact_oracle_equivalence():
    rc = rep_count_range(2000)
    oracle = rep_range_enumeration(2000)
    ok_range = np.array_equal(rc.values.astype(np.int64), oracle)

    full = rep_count_range(10**5).values
    rng = np.random.default_rng(2025)
    targets = rng.integers(1, 10**5 + 1, 200)
    ok_single = all(rep_count_single(int(n)) == int(full[int(n)]) for n in targets)
    _report(
        ok_range and ok_single,
        "criterion 2: range counts match 6-loop enumeration at 2000; "
        "single-target counts match for 200 random n <= 1e5",
    )


def test_criterion_03_divisor_sum_identity():
    rng = np.random.default_rng(3)
    targets = [int(v) for v in rng.integers(1, 10**6, 20)]
    worst = 0.0
    for p, h, q in prime_powers_up_to(10**4):
        divisors = [p**j for j in range(h + 1)]
        spectrum = {n % q: congruence_count(q, n).count for n in targets}
        for n in targets:
            lhs = sum(series_term(d, n).value for d in divisors)
            rhs = spectrum[n % q] / q**5
            worst = max(worst, abs(lhs - rhs))
    ok_sweep = worst <= 1e-8

    # closed mod-2 case: A(1) + A(2) = 1 with M_n(2) = 32, exactly
    ok_mod2 = all(
        congruence_count(2, n).count == 32
        and series_term(2, n).value == 0.0
        and series_term(1, n).value == 1.0
        for n in (0, 1, 17, 10**6)
    )
    _report(
        ok_sweep and ok_mod2,
        f"criterion 3: divisor-sum identity on all prime powers <= 1e4 "
        f"(worst gap {worst:.2e} <= 1e-8) and the exact mod-2 case",
    )


def test_criterion_04_series_multiplicativity():
    rng = np.random.default_rng(4)
    done = 0
    worst = 0.0
    while done < 200:
        q1 = int(rng.integers(2, 120))
        q2 = int(rng.integers(2, 10**4 // q1 + 1))
        if math.gcd(q1, q2) != 1:
            continue
        done += 1
        n = int(rng.integers(1, 10**6))
        gap = abs(
            series_term(q1 * q2, n).value
            - series_term(q1, n).value * series_term(q2, n).value
        )
        worst = max(worst, gap)
    _report(
        worst <= 1e-8,
        f"criterion 4: term multiplicativity on 200 coprime pairs "
        f"(worst gap {worst:.2e} <= 1e-8)",
    )


def test_criterion_05_series_positivity_and_stability():
    from circleforge.sseries import series_batch

    sw, _ = series_batch(10**4, 1000)
    minimum = float(sw[1:].min())
    ok_pos = minimum > 0.05

    rng = np.random.default_rng(5)
    ns = [int(v) for v in rng.integers(1, 10**6, 100)]
    med_low = float(np.median([truncated_singular_series(n, 500).tail_estimate for n in ns]))
    med_high = float(np.median([truncated_singular_series(n, 1000).tail_estimate for n in ns]))
    ok_decay = med_high < med_low
    _report(
        ok_pos and ok_decay,
        f"criterion 5: truncated series > 0.05 for all n <= 1e4 (min {minimum:.3f}); "
        f"median tail shrinks when W doubles ({med_low:.2e} -> {med_high:.2e})",
    )


def test_criterion_06_moment_oracles():
    ok = count_sixth_pair_collisions(2).count == 6
    ok &= sixth_power_eighth_moment(2).count == 70
    got = count_cube_sixth_correlation(64).count
    ok &= got == cube_sixth_correlation_brute(64)
    corr = shifted_cube_correlation(73, [4242])
    ok &= corr.count == 73 and corr.parts["off_diagonal"] == 0
    ok &= 721 in cube_multiplicity(16).members
    _report(ok, "criterion 6: small-scale moment counts match their oracles")


def test_criterion_07_trend_suite():
    ratio_i1 = count_cube_sixth_correlation(10**6).count / (10**6) ** (2 / 3)
    ok = ratio_i1 <= 3.5

    hua = {P6: sixth_power_eighth_moment(P6).count for P6 in (25, 50, 100)}
    slopes_hua = [math.log2(hua[50] / hua[25]), math.log2(hua[100] / hua[50])]
    ok &= all(s <= 5.0 for s in slopes_hua)

    cards = {P3: len(cube_multiplicity(P3).members) for P3 in (500, 1000, 2000)}
    slopes_card = [math.log2(cards[1000] / cards[500]), math.log2(cards[2000] / cards[1000])]
    ok &= all(s <= 1.6 for s in slopes_card)

    ratio_i2 = count_sixth_pair_collisions(200).count / (2 * 200**2)
    ok &= abs(ratio_i2 - 1) <= 0.25
    _report(
        ok,
        f"criterion 7: trend suite (correlation/X^(2/3) = {ratio_i1:.2f} <= 3.5, "
        f"eighth-moment slopes {slopes_hua[0]:.2f}/{slopes_hua[1]:.2f} <= 5.0, "
        f"multiplicity slopes {slopes_card[0]:.2f}/{slopes_card[1]:.2f} <= 1.6, "
        f"collision ratio {ratio_i2:.4f} within 25%)",
    )


def test_criterion_08_quadrature_contracts():
    si = singular_integral(10**4, 10**4, 50)
    ok = abs(si.value - si.reference) <= 0.10 * si.reference
    ok &= si.rel_change <= 0.01

    mai = major_arc_integral(5000, 10**4, 3, grid=10)
    ok &= mai.value_rel_change <= 0.01 and mai.approx_rel_change <= 0.01

    sample = ExceptionalSample(members=(700, 801, 999))
    pruned = pruned_integral_diagnostic(1000, 8, sample, grid=10)
    ok &= pruned.raw_rel_change <= 0.02
    ok &= pruned.square_majorant_rel_change <= 0.02
    ok &= pruned.cubic_approx_rel_change <= 0.02
    _report(
        ok,
        f"criterion 8: singular integral within 10% of closed form "
        f"(ratio {si.value / si.reference:.4f}); grid halving <= 1% on arcs, "
        f"<= 2% on pruned diagnostics",
    )


@pytest.fixture(scope="module")
def scan_ladder():
    psi = PsiSpec.parse("log")
    return {X: scan(X, psi, 1000) for X in (10**4, 10**5, 10**6)}


def test_criterion_09_convergence_trends(scan_ladder):
    med = [scan_ladder[X].rel_err_median_asymptotic for X in (10**4, 10**5, 10**6)]
    prop = [scan_ladder[X].exceptional_proportion for X in (10**4, 10**5, 10**6)]
    ok = med[0] > med[1] > med[2]
    ok &= prop[0] > prop[1] > prop[2]
    _report(
        ok,
        f"criterion 9: median relative error decreases "
        f"({med[0]:.4f} > {med[1]:.4f} > {med[2]:.4f}) and exceptional "
        f"proportion decreases ({prop[0]:.4f} > {prop[1]:.4f} > {prop[2]:.4f})",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    argv = ["arcs", "--op", "pruned", "--limit", "500", "--Q", "7",
            "--sample", "10", "--seed", "99"]
    outs = []
    for _ in range(2):
        assert cli_main(list(argv)) == 0
        outs.append(capsys.readouterr().out)
    ok = outs[0] == outs[1] and json.loads(outs[0])["sample_size"] == 10

    assert cli_main(["scan", "--limit", "200", "--psi", "log", "--trunc", "100"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["scan", "--limit", "200", "--psi", "log", "--trunc", "100"]) == 0
    ok &= capsys.readouterr().out == first

    spectrum = pair_spectrum(2, 100)
    path = tmp_path / "cache.bin"
    write_spectrum(spectrum, str(path))
    ok &= np.array_equal(read_spectrum(str(path)).counts, spectrum.counts)
    _report(ok, "criterion 10: CLI output byte-reproducible; cache round-trip exact")
