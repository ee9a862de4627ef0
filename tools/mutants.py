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
    # qmkp.Instance: the packed joint profits as the solvers read them.
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
        "if not np.array_equal(dense, dense.transpose(0, 2, 1)):",
        "tests/test_qmkp.py::TestSerialization::test_mirrored_zeros_of_opposite_sign_rejected",
    ),
    # This and "profits: index map not mirrored" first fail the dense
    # Instance that test_incremental_greedy_properties.py builds at import.
    Mutant(
        "qmkp: diagonal stored as +0.0",
        "src/freqassign/qmkp.py",
        "np.full(k, -0.0)",
        "np.full(k, 0.0)",
        "tests/test_incremental_greedy_properties.py",
    ),
    Mutant(
        "qmkp: index map symmetry unchecked",
        "src/freqassign/qmkp.py",
        "np.array_equal(index, index.T) and ",
        "",
        "tests/test_qmkp.py::TestJointLayout::test_table_with_a_broken_layout_rejected",
    ),
    Mutant(
        "qmkp: index map diagonal unchecked",
        "src/freqassign/qmkp.py",
        "np.all(index.diagonal() == joint.shape[1] - 1)",
        "True",
        "tests/test_qmkp.py::TestJointLayout::test_table_with_a_broken_layout_rejected",
    ),
    Mutant(
        "qmkp: -0.0 slot unchecked",
        "src/freqassign/qmkp.py",
        "if not np.all(self.joint[:, -1].view(np.int64) == np.float64(-0.0).view(np.int64)):",
        "if False:",
        "tests/test_qmkp.py::TestJointLayout::test_table_with_a_broken_layout_rejected",
    ),
    # worstcase: out= receives the powers and nothing else is formed.
    Mutant(
        "worstcase: out= written with the argmin and kind too",
        "src/freqassign/worstcase.py",
        "result = (out,) if out",
        "result = (out, out, out) if out",
        "tests/test_acceptance.py::test_criterion_8_benchmark_row_small",
    ),
    # Its two extra (users, entries) arrays fault pages every trial; it fails
    # test_packed_profits.py::test_table_peak_memory_is_the_packed_array_and_block_buffers too.
    Mutant(
        "worstcase: out= still forms argmin and kind arrays",
        "src/freqassign/worstcase.py",
        "result = (out,) if out",
        "result = (out, np.empty(shape), np.empty(shape, int)) if out",
        "tests/test_inplace_kernels.py::test_paper_trials_take_no_page_faults_without_scipy",
    ),
    Mutant(
        "profits: carrier call forms argmin and kind arrays",
        "src/freqassign/profits.py",
        "system.p_t, out=np.empty((len(users), hz.size)))",
        "system.p_t)[0]",
        "tests/test_packed_profits.py::test_table_calls_form_no_argmin_or_kind_array",
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
        "joint[:, -1] = -0.0",
        "joint[:, -1] = 0.0",
        "tests/test_acceptance.py::test_criterion_7_greedy_vs_exhaustive",
    ),
    Mutant(
        "profits: index map not mirrored",
        "src/freqassign/profits.py",
        "index[i, j] = index[j, i] = np.arange(i.size)",
        "index[i, j] = np.arange(i.size)",
        "tests/test_incremental_greedy_properties.py",
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
        "if not _positive_finite(p_t):",
        "if False:",
        "tests/test_channel.py::test_transmit_power_must_be_positive_and_finite",
    ),
    # channel: one rule for a number, _is_number, at every boundary.
    Mutant(
        "channel: bool taken as a number",
        "src/freqassign/channel.py",
        " and not isinstance(value, bool)",
        "",
        "tests/test_cli.py::TestAssign::test_boolean_user_value_rejected",
    ),
    Mutant(
        "channel: one-element array taken as a number",
        "src/freqassign/channel.py",
        "(float, int, np.floating, np.integer)",
        "(float, int, np.floating, np.integer, np.ndarray)",
        "tests/test_input_checks.py::test_constructor_refuses_a_value_that_is_not_a_number",
    ),
    Mutant(
        "channel: int beyond the float range taken as a number",
        "src/freqassign/channel.py",
        "abs(value) <= sys.float_info.max if type(value) is int else math.isfinite(value)",
        "math.isfinite(value)",
        "tests/test_cli.py::TestAssign::test_user_value_beyond_the_float_range_rejected",
    ),
    Mutant(
        "channel: NaN angular frequency taken by the identity residual",
        "src/freqassign/channel.py",
        "(0.0 < omega1) & (omega1 < math.inf)",
        "~((omega1 <= 0.0) | (omega1 == math.inf))",
        "tests/test_input_checks.py::test_envelope_identity_refuses_a_non_finite_or_non_positive_frequency",
    ),
    Mutant(
        "channel: kernel amplitude unchecked",
        "src/freqassign/channel.py",
        "v = coeffs[0]",
        "v = 1.0",
        "tests/test_cli.py::test_carrier_constant_beyond_the_float_range_exits_2",
    ),
    Mutant(
        "channel: numpy values warn before the refusal",
        "src/freqassign/channel.py",
        'with np.errstate(over="ignore"):',
        "with np.errstate():",
        "tests/test_cli.py::test_carrier_constant_beyond_the_float_range_exits_2",
    ),
    Mutant(
        "channel: kernel constant's range unchecked",
        "src/freqassign/channel.py",
        "np.all((0.0 < v) & (v < math.inf))",
        "True",
        "tests/test_cli.py::test_carrier_constant_beyond_the_float_range_exits_2",
    ),
    Mutant(
        "worstcase: oracle grid uncapped",
        "src/freqassign/worstcase.py",
        "if not span / _GRID_PHASE_STEP <= _GRID_MAX_POINTS - 1:",
        "if False:",
        "tests/test_cli.py::test_oracle_grid_beyond_its_cap_exits_2",
    ),
    Mutant(
        "channel: kernel constant of zero accepted",
        "src/freqassign/channel.py",
        "np.all((0.0 < v) & (v < math.inf))",
        "np.all(v < math.inf)",
        "tests/test_input_checks.py::test_pair_bound_constant_outside_the_float_range",
    ),
    # channel: the single-carrier kernel in its exact form.
    Mutant(
        "channel: carrier's sine term at 2*sin^2(phase/2)",
        "src/freqassign/channel.py",
        "_amplitude_bracket(amplitude, power, 4.0,",
        "_amplitude_bracket(amplitude, power, 2.0,",
        "tests/test_acceptance.py::test_criterion_2_single_frequency_worst_case",
    ),
    # Both kernels' sine, plain (scalars) and written into out= (tables).
    Mutant(
        "channel: kernels' sine at the full phase",
        "src/freqassign/channel.py",
        "        return np.sin(0.5 * rate * q)\n",
        "        return np.sin(rate * q)\n",
        "tests/test_acceptance.py::test_criterion_2_single_frequency_worst_case",
    ),
    Mutant(
        "channel: kernels' sine in out= at the full phase",
        "src/freqassign/channel.py",
        "np.multiply(0.5 * rate, q, out=out)",
        "np.multiply(rate, q, out=out)",
        "tests/test_acceptance.py::test_criterion_3_two_frequency_worst_case",
    ),
    Mutant(
        "channel: kernels' radial term not squared",
        "src/freqassign/channel.py",
        "    radial *= radial\n",
        "",
        "tests/test_acceptance.py::test_criterion_2_single_frequency_worst_case",
    ),
    # channel: the pair bound in the carrier kernel's shape, A*(radial^2 + 2*(1 - sqrt(1 - g))/(l*lr)).
    Mutant(
        "channel: pair bound's root without 1 + in its denominator",
        "src/freqassign/channel.py",
        "    root += 1.0\n",
        "",
        "tests/test_acceptance.py::test_criterion_3_two_frequency_worst_case",
    ),
    Mutant(
        "channel: pair bound's 1 - t for 1 - t^2",
        "src/freqassign/channel.py",
        "one_minus_t * (2.0 - one_minus_t),",
        "one_minus_t,",
        "tests/test_acceptance.py::test_criterion_3_two_frequency_worst_case",
    ),
    Mutant(
        "channel: pair bound's g without 1 - t^2",
        "src/freqassign/channel.py",
        "    power *= cross  # g",
        "    # g",
        "tests/test_acceptance.py::test_criterion_4_lower_bound_property",
    ),
    # channel: the pair bound's slope per unit amplitude, -(d/m^2)*F with
    # F = 2*(q^2/m)*(1 + S) + 2*G*S + (1 - t^2)*rate*q*sin(phi)/(2*sqrt(1 - g)).
    Mutant(
        "channel: pair bound's slope with its sine term's sign flipped",
        "src/freqassign/channel.py",
        "    f += cross * half * s * c / root",
        "    f -= cross * half * s * c / root",
        "tests/test_basin_search_differential.py::test_wideband_basin_rows",
    ),
    Mutant(
        "channel: pair bound's slope without 1/sqrt(1 - g)",
        "src/freqassign/channel.py",
        "half * s * c / root",
        "half * s * c",
        "tests/test_channel.py::TestLowerBoundSlope::test_matches_a_decimal_reference",
    ),
    Mutant(
        "channel: pair bound's slope without the (1 + S) of its radial term",
        "src/freqassign/channel.py",
        "    f += radial\n    f *= (l_los",
        "    f *= (l_los",
        "tests/test_basin_search_differential.py::test_wideband_basin_rows",
    ),
    # cli: floating-point trouble is an error line, not an inf or nan dB.
    Mutant(
        "cli: overflow not raised",
        "src/freqassign/cli.py",
        'with np.errstate(over="raise", invalid="raise"):',
        "with np.errstate():",
        "tests/test_cli.py::test_distance_beyond_the_kernels_float_range_exits_2",
    ),
    Mutant(
        "cli: FloatingPointError not reported",
        "src/freqassign/cli.py",
        "except FloatingPointError as exc:",
        "except ZeroDivisionError as exc:",
        "tests/test_cli.py::test_distance_beyond_the_kernels_float_range_exits_2",
    ),
    Mutant(
        "cli: a power that rounds to 0 W prints -inf dB",
        "src/freqassign/cli.py",
        "if np.any(db == -np.inf):",
        "if False:",
        "tests/test_cli.py::test_power_that_rounds_to_zero_exits_2",
    ),
    # Every phase maps to a distance through _invert_path_difference.
    Mutant(
        "worstcase: carrier null at half its path difference",
        "src/freqassign/worstcase.py",
        "TWO_PI * k * q_scale",
        "math.pi * k * q_scale",
        "tests/test_acceptance.py::test_criterion_2_single_frequency_worst_case",
    ),
    Mutant(
        "channel: null_distances at half the path difference",
        "src/freqassign/channel.py",
        "TWO_PI * k * (SPEED_OF_LIGHT / freq.omega)",
        "math.pi * k * (SPEED_OF_LIGHT / freq.omega)",
        "tests/test_acceptance.py::test_criterion_1_null_distances",
    ),
    # worstcase: which (user, entry) rows have a null.
    Mutant(
        "worstcase: k_max of the taller antenna",
        "src/freqassign/worstcase.py",
        "users = np.array([(min(g.h_tx, g.h_rx),",
        "users = np.array([(max(g.h_tx, g.h_rx),",
        # Its extra null rows fault pages; test_table_pass.py::test_edge_users_match_reference fails too.
        "tests/test_inplace_kernels.py::test_paper_trials_take_no_page_faults_without_scipy",
    ),
    Mutant(
        "worstcase: prefilter at the shortest user",
        "src/freqassign/worstcase.py",
        "_k_max(low.max(), omega)",
        "_k_max(low.min(), omega)",
        "tests/test_basin_search_differential.py::test_wideband_basin_rows",
    ),
    # worstcase: a pair's lower endpoint is skipped only where it cannot win.
    Mutant(
        "worstcase: lower endpoint skipped without the phase test",
        "src/freqassign/worstcase.py",
        "* at_min[2].max() <= 0.5 * math.pi",
        "* at_min[2].max() <= math.inf",
        "tests/test_batched_worstcase.py::TestUsersIndependence::test_each_user_row_matches_one_user_and_scalar_calls",
    ),
    Mutant(
        "worstcase: lower endpoint skipped wherever l*lr does not fall",
        "src/freqassign/worstcase.py",
        "_FALL_MARGIN = 1e-6",
        "_FALL_MARGIN = 0.0",
        "tests/test_batched_worstcase.py::test_lower_endpoint_skipped_only_where_it_cannot_win",
    ),
    Mutant(
        "worstcase: lower endpoint skipped at a subnormal or infinite upper power",
        "src/freqassign/worstcase.py",
        " & (p_hi.min(axis=0) >= _TINY) & (p_hi.max(axis=0) < math.inf)",
        "",
        "tests/test_batched_worstcase.py::test_lower_endpoint_skipped_only_where_it_cannot_win",
    ),
    Mutant(
        "worstcase: lower endpoint skipped at an infinite upper power",
        "src/freqassign/worstcase.py",
        "(p_hi.max(axis=0) < math.inf)",
        "(p_hi.max(axis=0) <= math.inf)",
        "tests/test_batched_worstcase.py::test_lower_endpoint_skipped_only_where_it_cannot_win",
    ),
    Mutant(
        "worstcase: lower endpoint skipped at a subnormal radial term",
        "src/freqassign/worstcase.py",
        " & ((at_max[2] / ll_max) ** 2 >= _TINY)",
        "",
        "tests/test_batched_worstcase.py::test_lower_endpoint_skipped_only_where_it_cannot_win",
    ),
    Mutant(
        "worstcase: carriers keep their lower endpoint",
        "src/freqassign/worstcase.py",
        "if 2 * falls.sum() > falls.size:",
        "if 2 * falls.sum() > falls.size and len(coeffs) == 3:",
        "tests/test_batched_worstcase.py::test_lower_endpoint_skipped_only_where_it_cannot_win",
    ),
    # worstcase: the basin search's slope loop.  A search that stops early
    # mostly ends on the same point, so the stopping test's killer follows
    # each row's iterates, as does the bracket clamp's: a Newton step leaves
    # the bracket in only a few rows of a trial.
    Mutant(
        "worstcase: basin search stops at twice its tolerance",
        "src/freqassign/worstcase.py",
        "stop = step <= _SQRT_EPS * x + xatol3",
        "stop = step <= 2.0 * (_SQRT_EPS * x + xatol3)",
        "tests/test_batched_worstcase.py::test_one_row_iterates_keep_the_bracket_and_stop_at_the_first_small_step",
    ),
    Mutant(
        "worstcase: basin search's Newton step unclamped",
        "src/freqassign/worstcase.py",
        " & (a <= u) & (u <= b)",
        "",
        "tests/test_batched_worstcase.py::test_one_row_iterates_keep_the_bracket_and_stop_at_the_first_small_step",
    ),
    Mutant(
        "worstcase: basin search divides by a zero secant rate",
        "src/freqassign/worstcase.py",
        "step = np.divide(-s, rate, out=np.full_like(s, math.inf), where=rate > 0.0)",
        "step = -s / rate",
        "tests/test_worstcase.py::TestBasinMinimum::test_equal_successive_slopes_bisect",
    ),
    Mutant(
        "worstcase: basin search's secant start allowed to round to b",
        "src/freqassign/worstcase.py",
        "np.minimum(a - s_a * ((b - a) / (s_b - s_a)), np.nextafter(b, a))",
        "a - s_a * ((b - a) / (s_b - s_a))",
        "tests/test_worstcase.py::TestBasinMinimum::test_secant_start_rounding_to_b",
    ),
    # worstcase: each basin row's bracket, from the phases around its null,
    # and the rule for rows whose slope does not fall at a and rise at b.
    # The differential against the 33-sample search runs first and fails
    # first; each also fails its own test: the first two
    # test_batched_worstcase.py::test_basin_brackets_sit_at_the_phases_around_the_null,
    # the third test_worstcase.py::TestBasinMinimum::test_bound_rising_at_a_takes_a.
    Mutant(
        "worstcase: basin's b at phase 2*pi*k - pi",
        "src/freqassign/worstcase.py",
        "(TWO_PI * k - 0.5 * math.pi) * q_scale",
        "(TWO_PI * k - math.pi) * q_scale",
        "tests/test_basin_search_differential.py::test_wideband_basin_rows",
    ),
    Mutant(
        "worstcase: basin bracket starts at d_lo",
        "src/freqassign/worstcase.py",
        "a = np.maximum(d_k, d_min)",
        "a = np.maximum(_invert_path_difference(heights, (TWO_PI * k + math.pi) * q_scale), d_min)",
        "tests/test_basin_search_differential.py::test_wideband_basin_rows",
    ),
    Mutant(
        "worstcase: basin: searching rows keep a and hi",
        "src/freqassign/worstcase.py",
        "        ends[:, rows] = _slope_search(",
        "        _slope_search(",
        "tests/test_basin_search_differential.py::test_wideband_basin_rows",
    ),
    Mutant(
        "worstcase: basin rows rising at a take hi",
        "src/freqassign/worstcase.py",
        "p.min(axis=0), np.where(p[1] < p[0], ends[1], ends[0])",
        "p[1], ends[1]",
        "tests/test_basin_search_differential.py::test_wideband_basin_rows",
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
        "channel: negative distance accepted",
        "src/freqassign/channel.py",
        "if np.count_nonzero(d >= 0) != d.size:",
        "if False:",
        "tests/test_channel.py::TestPathLengths::test_negative_distance_rejected",
    ),
    Mutant(
        "channel: NaN distance accepted",
        "src/freqassign/channel.py",
        "if np.count_nonzero(d >= 0) != d.size:",
        "if np.count_nonzero(d < 0):",
        "tests/test_channel.py::TestPathLengths::test_negative_distance_rejected",
    ),
    Mutant(
        "channel: singular geometry accepted",
        "src/freqassign/channel.py",
        "if np.count_nonzero(terms[0] == 0.0):",
        "if False:",
        "tests/test_channel.py::TestReceivePowerSingle::test_equal_heights_singular_at_zero",
    ),
    # channel: the scalar kernels' constants cache.
    Mutant(
        "channel: kernel cache keyed without p_t",
        "src/freqassign/channel.py",
        "return _cached_kernel(f1, f2, p_t, shares)",
        "return _cached_kernel(f1, f2, globals().setdefault('_P_T', {}).setdefault((f1, f2, shares), p_t), shares)",
        "tests/test_channel.py::TestReceivePowerSingle::test_transmit_power_scaling",
    ),
    Mutant(
        "channel: kernel cache keys equal across numeric types",
        "src/freqassign/channel.py",
        "lru_cache(maxsize=16, typed=True)",
        "lru_cache(maxsize=16)",
        "tests/test_scalar_kernel_calls.py::test_argument_types_accepted_or_refused_as_before",
    ),
    Mutant(
        "channel: kernel cache bypassed",
        "src/freqassign/channel.py",
        "return _cached_kernel(f1, f2, p_t, shares)",
        "return _kernel(f1, f2, p_t, shares)",
        "tests/test_scalar_kernel_calls.py::test_repeated_calls_build_the_kernel_once",
    ),
    Mutant(
        "channel: envelope identity accepts a nonpositive lower rate",
        "src/freqassign/channel.py",
        "(0.0 < omega1) & (omega1 < math.inf) & (0.0",
        "(0.0",
        "tests/test_channel.py::TestEnvelopeIdentity::test_rejects_nonpositive_frequencies",
    ),
    Mutant(
        "channel: envelope identity accepts a nonpositive upper rate",
        "src/freqassign/channel.py",
        " & (0.0 < omega2) & (omega2 < math.inf)",
        "",
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
        "channel: infinite power in decibels accepted",
        "src/freqassign/channel.py",
        "((p >= 0) & (p < math.inf)).all()",
        "(p >= 0).all()",
        "tests/test_channel.py::TestToDecibel::test_non_finite_power_rejected",
    ),
    Mutant(
        "channel: negative power in decibels accepted",
        "src/freqassign/channel.py",
        "((p >= 0) & (p < math.inf)).all()",
        "(p < math.inf).all()",
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
        "worstcase: negative grid rate accepted",
        "src/freqassign/worstcase.py",
        "if omega < 0:",
        "if False:",
        "tests/test_input_checks.py::test_phase_uniform_grid_with_negative_omega",
    ),
    Mutant(
        "qmkp: non-finite inputs accepted",
        "src/freqassign/qmkp.py",
        "if not np.all(np.isfinite(value)):",
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
        "if self.profits.shape != (self.n_knapsacks, self.n_items):",
        "if False:",
        "tests/test_input_checks.py::TestInstance::test_misshaped_profits",
    ),
    Mutant(
        "qmkp: joint profits shape unchecked",
        "src/freqassign/qmkp.py",
        "if dense.shape != (k, n, n):",
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
        "qmkp: exhaustive keeps the last optimum on ties",
        "src/freqassign/qmkp.py",
        "if value > best_value:",
        "if value >= best_value:",
        "tests/test_qmkp.py::TestExhaustive::test_ties_resolve_to_the_first_code",
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
        "if not feasible(instance, assignment):\n        raise",
        "if False:\n        raise",
        "tests/test_qmkp.py::TestObjective::test_infeasible_rejected",
    ),
    # The "Pin or delete" ledger in CHANGES.md: sites (3) and (6)-(10).
    # (1), the null index's 1e-9 margin, (2), a pair's null evaluated besides
    # its basin, (4), the basin samples' last one set to the bracket end,
    # (5), the clamp of the carrier's own null formula, (14), the clamp of
    # the pair bound's root, and (15), the 1e-12 m floor of the basin
    # tolerance, are deleted; (11)-(13) went earlier.
    Mutant(
        "worstcase: null index with a 1e-9 margin",
        "src/freqassign/worstcase.py",
        "_ray_terms(heights, d_max)[2] / TWO_PI))",
        "_ray_terms(heights, d_max)[2] / TWO_PI - 1e-9))",
        "tests/test_worstcase.py::TestWorstCaseSingle::test_null_just_inside_the_upper_endpoint",
    ),
    Mutant(
        "ledger 3: null index without the floor at 1",
        "src/freqassign/worstcase.py",
        "k = np.maximum(1.0, np.ceil(coeffs[-1][entries] * _ray_terms(heights, d_max)[2] / TWO_PI))",
        "k = np.ceil(coeffs[-1][entries] * _ray_terms(heights, d_max)[2] / TWO_PI)",
        "tests/test_worstcase.py::TestWorstCaseSingle::test_user_whose_phase_underflows_to_zero",
    ),
    Mutant(
        "ledger 6: inverse path difference without the clamp at zero",
        "src/freqassign/channel.py",
        "np.sqrt(np.maximum(l_los * l_los - dh_sq, 0.0))",
        "np.sqrt(l_los * l_los - dh_sq)",
        "tests/test_basin_search_differential.py::test_wideband_basin_rows",
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
    # worstcase._bounded_brent: scipy's bounded Brent search on Python floats,
    # held against scipy bit for bit.  The bracket differential kills the
    # first three; the equality case of the parabola's acceptance and the cap
    # need the synthetic brackets.
    Mutant(
        "worstcase: Brent's golden mean rounded",
        "src/freqassign/worstcase.py",
        "_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))",
        "_GOLDEN_MEAN = 0.381966",
        "tests/test_bounded_brent.py::test_every_polish_bracket_of_criterion_6_draws",
    ),
    Mutant(
        "worstcase: Brent's sqrt(2.2e-16) as sqrt(eps)",
        "src/freqassign/worstcase.py",
        "_BRENT_SQRT_EPS = math.sqrt(2.2e-16)",
        "_BRENT_SQRT_EPS = math.sqrt(np.finfo(float).eps)",
        "tests/test_bounded_brent.py::test_every_polish_bracket_of_criterion_6_draws",
    ),
    Mutant(
        "worstcase: Brent's second best kept where it is the best",
        "src/freqassign/worstcase.py",
        "if (fu <= fnfc) or (nfc == xf):",
        "if fu <= fnfc:",
        "tests/test_bounded_brent.py::test_every_polish_bracket_of_criterion_6_draws",
    ),
    Mutant(
        "worstcase: Brent's parabola accepted at half the step before last",
        "src/freqassign/worstcase.py",
        "abs(p) < abs(0.5 * q * r)",
        "abs(p) <= abs(0.5 * q * r)",
        "tests/test_bounded_brent.py::test_synthetic_brackets",
    ),
    Mutant(
        "worstcase: Brent's evaluation cap one late",
        "src/freqassign/worstcase.py",
        "if num >= _BRENT_MAXFUN:",
        "if num > _BRENT_MAXFUN:",
        "tests/test_bounded_brent.py::test_synthetic_brackets",
    ),
    Mutant(
        "ledger 10: FrequencyPair.of accepts equal frequencies",
        "src/freqassign/channel.py",
        "        if f_a == f_b:\n            raise ValueError(\"pair requires two distinct frequencies\")\n",
        "",
        "tests/test_cli.py::TestWorstCase::test_equal_pair_frequencies_name_the_cause",
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
