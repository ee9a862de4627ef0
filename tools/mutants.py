"""Mutation sweep over the guards of ``src/``.

Each entry of :data:`MUTANTS` names a file, a piece of its text that occurs
exactly once, the text that replaces it, and the tier-1 test expected to
fail on the result.  The sweep copies the repository (without ``.git``) to
a temporary directory and checks that the suite passes there.  Then, for
every mutant, it applies the replacement in the copy, runs the tier-1
suite with ``-x -q``, restores the file and prints one ledger line:
``killed`` with the first failing test, or ``survived``.  A survivor is a
guard that no test can tell from its absence: pin it with a test, or
delete its code.

Stdlib only.  Each mutant takes up to one run of the suite (about a
minute), so the sweep is not part of tier-1; ``tests/test_mutants.py``
checks only that every listed text still occurs exactly once.

    python tools/mutants.py            # the whole sweep
    python tools/mutants.py -k basin   # mutants whose name contains "basin"
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    killer: str  # the tier-1 test expected to fail


MUTANTS = [
    # qmkp.Instance: the joint profits as the solvers read them in place.
    Mutant(
        "qmkp: exact symmetry check dropped",
        "src/freqassign/qmkp.py",
        "if not np.array_equal(bits, bits.transpose(0, 2, 1)):",
        "if False:",
        "tests/test_qmkp.py::TestSerialization::test_asymmetric_joint_profits_rejected",
    ),
    Mutant(
        "qmkp: symmetry compared as numbers, not bits",
        "src/freqassign/qmkp.py",
        "if not np.array_equal(bits, bits.transpose(0, 2, 1)):",
        "if not np.array_equal(self.joint_profits, self.joint_profits.transpose(0, 2, 1)):",
        "tests/test_qmkp.py::TestSerialization::test_mirrored_zeros_of_opposite_sign_rejected",
    ),
    Mutant(
        "qmkp: diagonal left as given",
        "src/freqassign/qmkp.py",
        "if not np.all(bits[:, diag, diag] == np.float64(-0.0).view(np.int64)):",
        "if False:",
        "tests/test_incremental_greedy_properties.py::test_general_instances_property",
    ),
    Mutant(
        "qmkp: diagonal written into the caller's array",
        "src/freqassign/qmkp.py",
        "joint = self.joint_profits.copy()",
        "joint = self.joint_profits",
        "tests/test_qmkp.py::TestJointLayout::test_diagonal_stored_as_negative_zero_in_a_copy",
    ),
    Mutant(
        "qmkp: diagonal stored as +0.0",
        "src/freqassign/qmkp.py",
        "joint[:, diag, diag] = -0.0",
        "joint[:, diag, diag] = 0.0",
        "tests/test_incremental_greedy_properties.py::test_signed_zero_densities_match_bitwise",
    ),
    Mutant(
        "qmkp: greedy may pick a placed item again",
        "src/freqassign/qmkp.py",
        "        fits[i] = False\n",
        "",
        "tests/test_acceptance.py::test_criterion_7_greedy_vs_exhaustive",
    ),
    Mutant(
        "profits: pair tensor built with a +0.0 diagonal",
        "src/freqassign/profits.py",
        "pair[:, :: hz.size + 1] = -0.0",
        "pair[:, :: hz.size + 1] = 0.0",
        "tests/test_profits.py::TestBuildProfitTable::test_instance_reads_the_table_in_place",
    ),
    # channel: inputs outside the kernels' range.
    Mutant(
        "channel: carrier needs a finite omega, not a finite omega^2",
        "src/freqassign/channel.py",
        "if not _positive_finite(self.f, omega * omega, amplitude * amplitude):",
        "if not _positive_finite(self.f, omega, amplitude * amplitude):",
        "tests/test_input_checks.py::test_frequency_whose_angular_rate_overflows",
    ),
    Mutant(
        "channel: carrier's amplitude constant (c/(2*omega))^2 unchecked",
        "src/freqassign/channel.py",
        "if not _positive_finite(self.f, omega * omega, amplitude * amplitude):",
        "if not _positive_finite(self.f, omega * omega):",
        "tests/test_input_checks.py::test_frequency_whose_amplitude_constant_overflows",
    ),
    Mutant(
        "channel: pair's lower carrier unchecked",
        "src/freqassign/channel.py",
        "for f in (self.f1, self.f2):",
        "for f in (self.f2,):",
        "tests/test_input_checks.py::test_frequency_whose_squared_angular_rate_underflows",
    ),
    Mutant(
        "channel: null count limit one too high",
        "src/freqassign/channel.py",
        "if count > MAX_NULLS:",
        "if count > MAX_NULLS + 1:",
        "tests/test_channel.py::TestNullDistances::test_more_than_the_limit_refused_with_the_count",
    ),
    Mutant(
        "channel: null count limit one too low",
        "src/freqassign/channel.py",
        "if count > MAX_NULLS:",
        "if count >= MAX_NULLS:",
        "tests/test_channel.py::TestNullDistances::test_limit_itself_listed",
    ),
    Mutant(
        "channel: transmit power unchecked by the kernels",
        "src/freqassign/channel.py",
        '    if not _positive_finite(p_t):\n        raise ValueError("transmit power must be positive and finite")\n    d = np.asarray',
        "    d = np.asarray",
        "tests/test_channel.py::test_transmit_power_must_be_positive_and_finite",
    ),
    Mutant(
        "channel: pair bound's a1^2 + a2^2 unchecked by the kernel",
        "src/freqassign/channel.py",
        "if not _positive_finite(coeffs[1]):",
        "if False:",
        "tests/test_input_checks.py::test_pair_bound_constant_outside_the_float_range",
    ),
    Mutant(
        "channel: pair bound's a1^2 + a2^2 of zero accepted by the kernel",
        "src/freqassign/channel.py",
        "if not _positive_finite(coeffs[1]):",
        "if not coeffs[1] < math.inf:",
        "tests/test_input_checks.py::test_pair_bound_constant_outside_the_float_range",
    ),
    Mutant(
        "worstcase: pair bound's a1^2 + a2^2 unchecked by worst_cases",
        "src/freqassign/worstcase.py",
        "if not ((0.0 < coeffs[1]) & (coeffs[1] < math.inf)).all():",
        "if False:",
        "tests/test_input_checks.py::test_pair_bound_constant_outside_the_float_range",
    ),
    Mutant(
        "worstcase: pair bound's a1^2 + a2^2 of zero accepted by worst_cases",
        "src/freqassign/worstcase.py",
        "if not ((0.0 < coeffs[1]) & (coeffs[1] < math.inf)).all():",
        "if not (coeffs[1] < math.inf).all():",
        "tests/test_input_checks.py::test_pair_bound_constant_outside_the_float_range",
    ),
    # cli: floating-point trouble is an error line, not an inf or nan dB.
    Mutant(
        "cli: overflow not raised",
        "src/freqassign/cli.py",
        'with np.errstate(over="raise", invalid="raise"):',
        "with np.errstate():",
        "tests/test_cli.py::test_carrier_beyond_the_kernels_float_range_exits_2",
    ),
    Mutant(
        "cli: FloatingPointError not reported",
        "src/freqassign/cli.py",
        "except FloatingPointError as exc:",
        "except ZeroDivisionError as exc:",
        "tests/test_cli.py::test_carrier_beyond_the_kernels_float_range_exits_2",
    ),
    # worstcase: which (user, entry) rows have a null.
    Mutant(
        "worstcase: k_max of the taller antenna",
        "src/freqassign/worstcase.py",
        "at = np.nonzero(k <= _k_max(np.minimum(h_tx, h_rx), omega))",
        "at = np.nonzero(k <= _k_max(np.maximum(h_tx, h_rx), omega))",
        "tests/test_table_pass.py::test_edge_users_match_reference",
    ),
    Mutant(
        "worstcase: prefilter at the shortest user",
        "src/freqassign/worstcase.py",
        "top = np.minimum(users[:, 0], users[:, 1]).max()",
        "top = np.minimum(users[:, 0], users[:, 1]).min()",
        "tests/test_batched_worstcase.py::TestUsersIndependence::test_mixed_geometries_match_one_user_and_scalar_calls",
    ),
    # The input checks of the public functions, one mutant each (two where a
    # check tests two things).
    Mutant(
        "channel: antenna heights unchecked",
        "src/freqassign/channel.py",
        "if not _positive_finite(self.h_tx, self.h_rx):",
        "if False:",
        "tests/test_channel.py::TestPathLengths::test_invalid_geometry_rejected",
    ),
    Mutant(
        "channel: pair order unchecked",
        "src/freqassign/channel.py",
        "if not self.f1 < self.f2:",
        "if False:",
        "tests/test_channel.py::TestConstants::test_frequency_types",
    ),
    Mutant(
        "channel: zero spacing accepted",
        "src/freqassign/channel.py",
        "if delta_f <= 0:",
        "if delta_f < 0:",
        "tests/test_input_checks.py::test_pair_from_nonpositive_spacing",
    ),
    Mutant(
        "channel: kernels accept a negative distance",
        "src/freqassign/channel.py",
        '    if (d < 0).any():\n        raise ValueError("ground distance must be nonnegative")\n    l_los, l_ref, q =',
        '    if False:\n        raise ValueError("ground distance must be nonnegative")\n    l_los, l_ref, q =',
        "tests/test_input_checks.py::test_negative_distance",
    ),
    Mutant(
        "channel: path_lengths accepts a negative distance",
        "src/freqassign/channel.py",
        '    if (d < 0).any():\n        raise ValueError("ground distance must be nonnegative")\n    l_los, l_ref, _ =',
        '    if False:\n        raise ValueError("ground distance must be nonnegative")\n    l_los, l_ref, _ =',
        "tests/test_channel.py::TestPathLengths::test_negative_distance_rejected",
    ),
    Mutant(
        "channel: singular geometry accepted",
        "src/freqassign/channel.py",
        "if (l_los == 0.0).any():",
        "if False:",
        "tests/test_channel.py::TestReceivePowerSingle::test_equal_heights_singular_at_zero",
    ),
    Mutant(
        "channel: envelope identity accepts a nonpositive lower rate",
        "src/freqassign/channel.py",
        "if np.any(omega1 <= 0) or np.any(omega2 <= 0):",
        "if np.any(omega2 <= 0):",
        "tests/test_channel.py::TestEnvelopeIdentity::test_rejects_nonpositive_frequencies",
    ),
    Mutant(
        "channel: envelope identity accepts a nonpositive upper rate",
        "src/freqassign/channel.py",
        "if np.any(omega1 <= 0) or np.any(omega2 <= 0):",
        "if np.any(omega1 <= 0):",
        "tests/test_channel.py::TestEnvelopeIdentity::test_rejects_nonpositive_frequencies",
    ),
    Mutant(
        "channel: decibel reference unchecked",
        "src/freqassign/channel.py",
        "if not _positive_finite(reference):",
        "if False:",
        "tests/test_channel.py::TestToDecibel::test_negative_rejected",
    ),
    Mutant(
        "channel: negative power in decibels accepted",
        "src/freqassign/channel.py",
        "if np.any(p < 0):",
        "if False:",
        "tests/test_channel.py::TestToDecibel::test_negative_rejected",
    ),
    Mutant(
        "worstcase: interval bounds unchecked",
        "src/freqassign/worstcase.py",
        "if not (_positive_finite(self.d_min, self.d_max) and self.d_min <= self.d_max):",
        "if not self.d_min <= self.d_max:",
        "tests/test_cli.py::TestPowerCurve::test_non_finite_flag_exits_2",
    ),
    Mutant(
        "worstcase: interval order unchecked",
        "src/freqassign/worstcase.py",
        "if not (_positive_finite(self.d_min, self.d_max) and self.d_min <= self.d_max):",
        "if not _positive_finite(self.d_min, self.d_max):",
        "tests/test_cli.py::TestPowerCurve::test_invalid_flags_exit_nonzero",
    ),
    Mutant(
        "worstcase: transmit power unchecked by worst_cases",
        "src/freqassign/worstcase.py",
        '    if not _positive_finite(p_t):\n        raise ValueError("transmit power must be positive and finite")\n    f1 = ',
        "    f1 = ",
        "tests/test_worstcase.py::TestWorstCasePair::test_invalid_transmit_power_rejected",
    ),
    Mutant(
        "worstcase: negative grid rate accepted",
        "src/freqassign/worstcase.py",
        "if omega < 0:",
        "if False:",
        "tests/test_input_checks.py::test_phase_uniform_grid_with_negative_omega",
    ),
    Mutant(
        "qmkp: non-finite inputs accepted",
        "src/freqassign/qmkp.py",
        "if not np.all(np.isfinite(getattr(self, name))):",
        "if False:",
        "tests/test_qmkp.py::TestSerialization::test_non_finite_values_rejected",
    ),
    Mutant(
        "qmkp: negative weight accepted",
        "src/freqassign/qmkp.py",
        "if np.any(self.weights < 0) or np.any(self.capacities < 0):",
        "if np.any(self.capacities < 0):",
        "tests/test_input_checks.py::TestInstance::test_negative_weight_or_capacity",
    ),
    Mutant(
        "qmkp: negative capacity accepted",
        "src/freqassign/qmkp.py",
        "if np.any(self.weights < 0) or np.any(self.capacities < 0):",
        "if np.any(self.weights < 0):",
        "tests/test_input_checks.py::TestInstance::test_negative_weight_or_capacity",
    ),
    Mutant(
        "qmkp: profits shape unchecked",
        "src/freqassign/qmkp.py",
        "if self.profits.shape != (k, n):",
        "if False:",
        "tests/test_input_checks.py::TestInstance::test_misshaped_profits",
    ),
    Mutant(
        "qmkp: joint profits shape unchecked",
        "src/freqassign/qmkp.py",
        "if self.joint_profits.shape != (k, n, n):",
        "if False:",
        "tests/test_input_checks.py::TestInstance::test_misshaped_joint_profits",
    ),
    Mutant(
        "qmkp: assignment's knapsack count unchecked",
        "src/freqassign/qmkp.py",
        "if assignment.n_knapsacks != instance.n_knapsacks:",
        "if False:",
        "tests/test_input_checks.py::test_assignment_with_another_knapsack_count",
    ),
    Mutant(
        "qmkp: item index above the range accepted",
        "src/freqassign/qmkp.py",
        "if not 0 <= i < instance.n_items:",
        "if not 0 <= i:",
        "tests/test_qmkp.py::TestFeasible::test_out_of_range_rejected",
    ),
    Mutant(
        "qmkp: negative item index accepted",
        "src/freqassign/qmkp.py",
        "if not 0 <= i < instance.n_items:",
        "if not i < instance.n_items:",
        "tests/test_qmkp.py::TestFeasible::test_out_of_range_rejected",
    ),
    Mutant(
        "qmkp: value density of a zero-weight item",
        "src/freqassign/qmkp.py",
        "    if w == 0:\n",
        "    if False:\n",
        "tests/test_incremental_greedy.py::TestErrorsUnchanged::test_zero_weight_unassigned_item",
    ),
    Mutant(
        "qmkp: greedy accepts a zero-weight item",
        "src/freqassign/qmkp.py",
        "if k and np.any(w == 0):",
        "if False:",
        "tests/test_incremental_greedy.py::TestErrorsUnchanged::test_zero_weight_unassigned_item",
    ),
    # Without the guard test_size_guard would enumerate 1e30 allocations, so
    # the mutant inverts it instead of dropping it.
    Mutant(
        "qmkp: exhaustive size guard inverted",
        "src/freqassign/qmkp.py",
        "if (k + 1) ** n > EXHAUSTIVE_LIMIT:",
        "if (k + 1) ** n <= EXHAUSTIVE_LIMIT:",
        "tests/test_acceptance.py::test_criterion_7_greedy_vs_exhaustive",
    ),
    Mutant(
        "qmkp: baseline schemes accept any weights and capacities",
        "src/freqassign/qmkp.py",
        "if not (np.all(instance.weights == 1.0) and np.all(instance.capacities == 2.0)):",
        "if False:",
        "tests/test_input_checks.py::test_baselines_need_unit_weights_and_capacity_2",
    ),
    Mutant(
        "qmkp: round robin with fewer items than knapsacks",
        "src/freqassign/qmkp.py",
        "if n < k:",
        "if False:",
        "tests/test_input_checks.py::test_round_robin_with_fewer_items_than_knapsacks",
    ),
    Mutant(
        "qmkp: profits of an infeasible assignment",
        "src/freqassign/qmkp.py",
        "if not feasible(instance, assignment):",
        "if False:",
        "tests/test_qmkp.py::TestObjective::test_infeasible_rejected",
    ),
    # The "Pin or delete" ledger in CHANGES.md: sites (1), (3)-(10) and (14).
    # (2), a pair's null evaluated besides its basin, and (15), the 1e-12 m
    # floor of the basin tolerance, are deleted; (11)-(13) went earlier.
    Mutant(
        "ledger 1: null index without the 1e-9 margin",
        "src/freqassign/worstcase.py",
        "np.ceil(rate * at_max[2] / TWO_PI - 1e-9)",
        "np.ceil(rate * at_max[2] / TWO_PI)",
        "tests/test_table_pass.py::test_queries_ending_one_float_above_a_null_match_reference",
    ),
    Mutant(
        "ledger 3: null index without the floor at 1",
        "src/freqassign/worstcase.py",
        "k = np.maximum(1.0, np.ceil(rate * at_max[2] / TWO_PI - 1e-9))",
        "k = np.ceil(rate * at_max[2] / TWO_PI - 1e-9)",
        "tests/test_worstcase.py::TestWorstCaseSingle::test_phase_at_d_max_within_the_rounding_margin",
    ),
    Mutant(
        "ledger 4: basin samples not ending at the bracket end",
        "src/freqassign/worstcase.py",
        "        x[-1] = hi[block]\n",
        "",
        "tests/test_worstcase.py::TestBasinMinimum::test_samples_end_at_the_bracket_end",
    ),
    Mutant(
        "ledger 5: null distance without the clamp at zero",
        "src/freqassign/channel.py",
        "np.sqrt(np.maximum(a * b, 0.0) / (scale * scale))",
        "np.sqrt(a * b / (scale * scale))",
        "tests/test_channel.py::TestNullDistances::test_null_at_the_mast_is_zero",
    ),
    Mutant(
        "ledger 6: inverse path difference without the clamp at zero",
        "src/freqassign/channel.py",
        "np.sqrt(np.maximum(l_los * l_los - dh_sq, 0.0))",
        "np.sqrt(l_los * l_los - dh_sq)",
        "tests/test_acceptance.py::test_criterion_6_theorem_oracle_equivalence",
    ),
    Mutant(
        "ledger 7: to_decibel warns on zero power",
        "src/freqassign/channel.py",
        'with np.errstate(divide="ignore"):',
        "if True:",
        "tests/test_channel.py::TestToDecibel::test_zero_maps_to_neg_inf",
    ),
    Mutant(
        "ledger 8: pair ends taken in list order",
        "src/freqassign/profits.py",
        "np.minimum(hz[i], hz[j]), np.maximum(hz[i], hz[j])",
        "hz[i], hz[j]",
        "tests/test_profits.py::TestBuildProfitTable::test_frequency_order_only_permutes_the_table",
    ),
    Mutant(
        "ledger 9a: grid_min without the lower edge bracket",
        "src/freqassign/worstcase.py",
        "        brackets.append((0, 1))\n",
        "",
        "tests/test_worstcase.py::TestGridMin::test_minimum_between_an_endpoint_and_its_neighbour",
    ),
    Mutant(
        "ledger 9b: grid_min without the upper edge bracket",
        "src/freqassign/worstcase.py",
        "        brackets.append((grid.size - 2, grid.size - 1))\n",
        "",
        "tests/test_worstcase.py::TestGridMin::test_minimum_between_an_endpoint_and_its_neighbour",
    ),
    Mutant(
        "ledger 10: FrequencyPair.of accepts equal frequencies",
        "src/freqassign/channel.py",
        "        if f_a == f_b:\n            raise ValueError(\"pair requires two distinct frequencies\")\n",
        "",
        "tests/test_cli.py::TestWorstCase::test_equal_pair_frequencies_name_the_cause",
    ),
    Mutant(
        "ledger 14: envelope without the clamp at zero",
        "src/freqassign/channel.py",
        "np.sqrt(np.maximum(env_const + env_cross - gap, 0.0))",
        "np.sqrt(env_const + env_cross - gap)",
        "tests/test_channel.py::TestSumPowerLowerBound::test_finite_where_the_envelope_rounds_below_zero",
    ),
]

_FAILED = re.compile(r"^(FAILED|ERROR) (\S+)")

# A suite run taking longer counts as a kill: the mutant loops forever.
_SUITE_TIMEOUT_S = 600.0


def run_suite(work: Path) -> tuple[bool, str]:
    """Tier-1 in ``work`` with ``-x -q``: (passed, first failure)."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    # test_mutants.py checks this list against the unmutated files.
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--ignore=tests/test_mutants.py", "tests"]
    try:
        proc = subprocess.run(
            cmd, cwd=work, env=env, capture_output=True, text=True, timeout=_SUITE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False, f"timeout after {_SUITE_TIMEOUT_S:.0f} s"
    if proc.returncode == 0:
        return True, ""
    lines = proc.stdout.splitlines()
    for line in lines:
        match = _FAILED.match(line)
        if match:
            return False, match.group(2)
    last = next((line for line in reversed(lines) if line.strip()), "")
    return False, f"pytest exit {proc.returncode}: {last.strip()}"


def run_one(mutant: Mutant, work: Path) -> tuple[str, str]:
    """Apply ``mutant`` in ``work``, run tier-1, restore; (verdict, first failure)."""
    target = work / mutant.path
    original = target.read_text(encoding="utf-8")
    if original.count(mutant.old) != 1:
        return "stale", f"old text occurs {original.count(mutant.old)} times"
    target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        passed, first = run_suite(work)
    finally:
        target.write_text(original, encoding="utf-8")
    return ("survived" if passed else "killed"), first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-k", dest="only", help="run only mutants whose name contains this")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only is None or args.only in m.name]
    survived = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp) / "repo"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT, work, ignore=ignore)
        passed, first = run_suite(work)
        if not passed:
            print(f"the unmutated suite fails in the copy: {first}")
            return 2
        for mutant in chosen:
            start = time.perf_counter()
            verdict, first = run_one(mutant, work)
            survived += verdict != "killed"
            as_expected = verdict == "killed" and first.startswith(mutant.killer)
            note = "" if as_expected else f" (expected {mutant.killer})"
            print(
                f"{verdict:8s} {mutant.name}: {first or '-'}{note}"
                f" [{time.perf_counter() - start:.0f} s]",
                flush=True,
            )
    print(f"{len(chosen) - survived} killed, {survived} survived or stale, of {len(chosen)}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
