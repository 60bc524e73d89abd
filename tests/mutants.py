"""Mutation catalogue: each entry breaks one rule of ``src/`` on purpose,
and the tests it names must fail on the broken copy.

Run from the repository root::

    python tests/mutants.py                # every entry
    python tests/mutants.py NAME [NAME...] # some entries

First the named tests must pass on the unmutated ``src/``.  Then, for each
entry, the runner copies ``src/`` to a temporary directory, replaces the
entry's old text (which must occur exactly once in its file) with the new
text there, and runs the entry's tests with ``PYTHONPATH`` set to the
copy.  It prints one ``killed``, ``survived`` or ``not run`` line per
entry and exits 1 unless every mutant is killed.  An entry listed as
equivalent, with the reason no input tells it from the source, must
survive instead, and its line reads ``equivalent`` and the reason.  A
pytest run that takes longer than ``PYTEST_TIMEOUT_S`` is stopped and its
entry reads ``not run: timed out``.  The file name keeps pytest from
collecting it, so it is not part of the test suite.

A change that breaks a rule in a scratch copy to check its tests adds the
mutation here instead (DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# file is relative to src/slittori; tests are pytest node ids from the root,
# each of which fails on the mutant by itself.  An equivalent mutant gives
# the reason no input can tell it from the source; its tests must pass on it
Mutant = namedtuple("Mutant", "name file old new tests equivalent", defaults=(None,))

# the rules on the action's entries
TORUS_EXACT = "tests/test_torus.py::test_rules_are_exact_on_any_integer_entries"
TORUS_RULES = "tests/test_torus.py::test_action_rules_on_identity_and_h_minus_powers"
TORUS_AGREE = "tests/test_torus.py::test_homology_action_agrees_with_the_rules"
TORUS_DET = "tests/test_torus.py::test_homology_action_canonical_sign"
SCALAR_OPS = "tests/test_intervals.py::test_scalar_operands_match_point_intervals"
WINDOWS = "tests/test_irrational.py::test_window_searches_match_oracle"
DIGIT_SUM = "tests/test_irrational.py::test_budget_is_the_digit_sum"
BOUNDARY = "tests/test_irrational.py::test_budget_boundary_matches_oracle"
CERT_FAILS = "tests/test_irrational.py::test_failed_certificate_fails_closed"
CERT_HEIGHT = "tests/test_irrational.py::test_certificate_compares_the_traced_end_point[height]"
RUNNING_ACTION = "tests/test_criterion.py::test_fixes_beta_reads_the_running_action"
VERIFY_ORACLE = "tests/test_criterion.py::test_verify_matches_oracle[quarter-10]"
BLOCKS = "tests/test_rational.py::test_block_examples"
EVEN_BLOCKS = "tests/test_rational.py::test_even_case_closed_form_r_zero"
ACCEPT_BLOCKS = "tests/test_acceptance.py::test_criterion_1_block_reproduction"
SCAN = "tests/test_rational.py::test_congruences_match_scan"
NO_SOLUTION = "tests/test_rational.py::test_congruence_without_solution_fails_closed"
FORGED_KERNEL = "tests/test_torus.py::test_non_unimodular_action_is_a_failed_verdict"
CERT_ORACLE = "tests/test_rational.py::test_certificate_matches_oracle"
CERT_EXAMPLES = "tests/test_rational.py::test_certify_examples"
PARAM_TYPES = "tests/test_rational.py::test_param_fields_must_be_ints[r-args1]"
PARAM_BOOL = "tests/test_rational.py::test_param_fields_must_be_ints[r-args6]"
BUDGET_BOOL = "tests/test_irrational.py::test_stream_budget_must_be_an_int[True]"
RULE_BOOL = "tests/test_directions.py::test_digit_rule_parameters_must_be_ints[params0]"
SCALAR_BOOL = "tests/test_exact.py::test_bool_components_are_refused[args0]"
WORD_BOOL = "tests/test_words.py::test_bool_exponents_are_refused"
DIGIT_BOOL = "tests/test_words.py::test_bool_digits_are_refused"
JSON_BIG = "tests/test_exact.py::test_records_print_fractions_of_any_size"
GOLDEN_BUILD = "tests/test_golden.py::test_golden_output[build_quarter.json]"
GOLDEN_VERIFY = "tests/test_golden.py::test_golden_output[verify_sqrt2_h4.json]"
KERNEL = "tests/test_torus.py::test_kernel_matches_oracle"
SYLLABLE_ORACLE = "tests/test_torus.py::test_kernel_matches_syllable_oracle"
BAD_SYLLABLE = "tests/test_torus.py::test_trace_rational_rejects_bad_syllables[syllable2]"
ZERO_DIGIT = "tests/test_rational.py::test_zero_digit_is_refused_by_every_consumer"
FLOORS = "tests/test_exact.py::test_floor_against_mpmath"
DET_INCREMENTAL = "tests/test_words.py::test_determinant_identity_incremental_matches_full_check"
FORGED = "tests/test_forged_specs.py::test_forged_rational_specs_fail_closed"
WORD_VALIDATION = "tests/test_words.py::test_word_validation"
WORD_MATRIX = "tests/test_words.py::test_word_matrix_examples"
WORD_SEAM = "tests/test_words.py::test_word_concat_merges_seam"
CLI_ALTERNATION = "tests/test_cli.py::test_action_word_pinned[h+:2,h+:1]"
CLI_ACTION_SIGN = "tests/test_cli.py::test_action_word_pinned[h+:2,h-:3]"
FORGED_ENDPOINT = "tests/test_criterion.py::test_forged_endpoint_fails_only_its_checkpoint"
SIGMA_ODD_K = "tests/test_criterion.py::test_masur_structural_rejects_odd_k"
SIGMA_LOW_K = "tests/test_criterion.py::test_masur_structural_refuses_k_below_two"
SIGMA_NEXT_DIGIT = "tests/test_criterion.py::test_masur_structural_needs_the_next_digit"
WEDGE_RETRY = "tests/test_criterion.py::test_precision_retry_reports_last_precision_tried"
BILLIARD_CMD = "tests/test_cli.py::test_billiard_command_matches_billiard_oracle"
JSON_DIGITS = "tests/test_cli.py::test_json_past_the_int_digit_cap"
FLOW_ORACLE = "tests/test_flow.py::test_simulate_matches_oracle"
FLOW_LATTICE_ORACLE = "tests/test_flow.py::test_simulate_matches_lattice_oracle"
FLOW_SINGULAR = "tests/test_flow.py::test_simulate_singular_orbit_flagged"
FLOW_BOUNDED = "tests/test_flow.py::test_event_count_is_bounded"
FLOW_BIN_EDGES = "tests/test_flow.py::test_simulate_bins_on_bin_edges_match_oracle"
FLOW_BIN_CLOCKS = "tests/test_flow.py::test_bin_clocks_match_oracle"
FLOW_EDGE_SAMPLES = "tests/test_flow.py::test_edge_samples_by_hand"
FLOW_BILLIARD = "tests/test_flow.py::test_simulate_matches_billiard_oracle"
FLOW_DECK = "tests/test_flow.py::test_deck_anti_invariance"
ENCLOSURE = "tests/test_directions.py::test_alpha_enclosure_matches_oracle"
INTERVAL_TYPES = "tests/test_intervals.py::test_endpoints_must_be_int_or_fraction[float-hi]"
PARSE_CONFLICT = "tests/test_cli.py::test_table_parser_matches_argparse[conflict]"
PARSE_REQUIRED = "tests/test_cli.py::test_table_parser_matches_argparse[required-missing]"
PARSE_TYPE = "tests/test_cli.py::test_table_parser_matches_argparse[type-int]"
PARSE_TYPE_TEXT = (
    "tests/test_cli.py::test_table_parser_matches_argparse[type-positive-int-refused]"
)
PLAIN_NEGATIVE = "tests/test_cli_grammar.py::test_plain_reads_its_grammar[negative-after-space]"
PLAIN_EQ = "tests/test_cli_grammar.py::test_plain_reads_its_grammar[eq-long]"
PLAIN_PREFIX = "tests/test_cli_grammar.py::test_plain_declines_every_other_line[prefix]"
PLAIN_DASH = "tests/test_cli_grammar.py::test_plain_declines_every_other_line[dash-value]"
ARGPARSE_NEGATIVE = "tests/test_cli_grammar.py::test_argparse_reads_negative_values[prefix]"
SEPARATOR_TYPE = "tests/test_cli_grammar.py::test_attached_separator_reaches_the_type"
HELP_BYTES = "tests/test_cli_grammar.py::test_help_bytes_are_pinned"
FULL_DISK = "tests/test_cli_grammar.py::test_full_disk_fails_closed[flush]"
ENTRY_FREEZES = "tests/test_cli.py::test_process_entry_freezes_before_the_command"
MAIN_UNFROZEN = "tests/test_cli.py::test_main_leaves_the_heap_unfrozen"

# seconds one pytest run may take; a mutant that stops a loop from
# advancing is reported as not run instead of hanging the catalogue
PYTEST_TIMEOUT_S = 300

CATALOGUE = (
    Mutant(
        "det-check-dropped", "torus.py",
        "if det != 1 and det != -1:", "if False:",
        (TORUS_DET,),
    ),
    Mutant(
        "sign-flip-dropped", "torus.py",
        "if (a or b or c) < 0:", "if False:",
        (TORUS_RULES, TORUS_AGREE),
    ),
    Mutant(
        "fixes-beta-reads-c", "torus.py",
        "return b == 0 and a == d and a * a == 1", "return c == 0 and a == d and a * a == 1",
        (TORUS_RULES, TORUS_AGREE, TORUS_EXACT),
    ),
    Mutant(
        "identity-without-a-equals-d", "torus.py",
        "return b == 0 and c == 0 and a == d and a * a == 1",
        "return b == 0 and c == 0 and a * a == 1",
        (TORUS_RULES, TORUS_AGREE, TORUS_EXACT),
    ),
    Mutant(
        "identity-without-unit-diagonal", "torus.py",
        "c == 0 and a == d and a * a == 1", "c == 0 and a == d",
        (TORUS_EXACT,),
    ),
    Mutant(
        "fixes-beta-without-unit-diagonal", "torus.py",
        "return b == 0 and a == d and a * a == 1", "return b == 0 and a == d",
        (TORUS_EXACT,),
    ),
    Mutant(
        "trace-word-canonicalises", "torus.py",
        "return lat.point((xu, xv), (yu, yv)), (a, b, c, d)",
        "return lat.point((xu, xv), (yu, yv)), canonical_entries(a, b, c, d)",
        (FORGED_KERNEL,),
    ),
    Mutant(
        "action-prints-raw-entries", "cli.py",
        "a, b, c, d = canonical_entries(*entries)", "a, b, c, d = entries",
        (CLI_ACTION_SIGN,),
    ),
    Mutant(
        "negative-scalar-product-endpoints", "intervals.py",
        "return RatInterval(self.hi * k, self.lo * k)",
        "return RatInterval(self.lo * k, self.hi * k)",
        (SCALAR_OPS,),
    ),
    # the window searches of irrational.find_block
    Mutant(
        "a-window-open-at-a-min", "irrational.py",
        "j >= DEFAULT_A_MIN and", "j > DEFAULT_A_MIN and",
        (WINDOWS, BOUNDARY),
    ),
    Mutant(
        "b-window-closed-at-a-prime", "irrational.py",
        "m > a_prime and", "m >= a_prime and",
        (WINDOWS,),
    ),
    Mutant(
        "stream-budget-takes-bool-as-int", "irrational.py",
        "if type(budget) is not int:", "if not isinstance(budget, int):",
        (BUDGET_BOOL,),
    ),
    Mutant(
        "budget-one-step-short", "irrational.py",
        "if j > left:", "if j >= left:",
        (DIGIT_SUM,),
    ),
    Mutant(
        "a-window-closed-at-zero", "irrational.py",
        "negative(-eu, -v, D)", "not negative(eu, v, D)",
        (WINDOWS,),
    ),
    Mutant(
        "a-window-closed-at-its-width", "irrational.py",
        "negative(2 * eu - w1u, 2 * v - w1v, D)", "not negative(w1u - 2 * eu, w1v - 2 * v, D)",
        (WINDOWS,),
    ),
    Mutant(
        "b-window-closed-at-its-width", "irrational.py",
        "negative(2 * eu - w2u, -2 * v - w2v, D)", "not negative(w2u - 2 * eu, 2 * v + w2v, D)",
        (WINDOWS,),
    ),
    Mutant(
        "d-window-open-at-low-end", "irrational.py",
        "not negative(u - lu, v - lv, D) and", "negative(lu - u, lv - v, D) and",
        (WINDOWS,),
    ),
    Mutant(
        "d-window-open-at-high-end", "irrational.py",
        "and not negative(hu - u, hv - v, D)", "and negative(u - hu, v - hv, D)",
        (WINDOWS,),
    ),
    Mutant(
        "a-window-count-may-be-zero", "irrational.py",
        "m > 0 and negative(-eu, -v, D)", "m >= 0 and negative(-eu, -v, D)",
        (WINDOWS, BOUNDARY),
        equivalent="from x0 >= -1/2, j steps of size y wrap n <= eps1 + j y < j/2 times "
        "(eps1 < (1/2 - y)/2), so m = j - 2n > 0 at every a-window hit",
    ),
    *(
        Mutant(
            f"{stage}-search-left-{'plus' if k > 0 else 'minus'}-one", "irrational.py",
            f"{left}, {rest}", f"{left} {'+' if k > 0 else '-'} 1, {rest}",
            (WINDOWS, DIGIT_SUM),
        )
        for stage, left, rest in (
            ("b", "budget - a", "in_b)"),
            ("c", "budget - a - b", "in_c)"),
            ("d", "budget - a - b - c", "in_d, d_index)"),
        )
        for k in (1, -1)
    ),
    # the trace certificate of irrational.find_block
    Mutant(
        "certificate-compares-only-x", "irrational.py",
        "if not ((xu, xv) == x7 and (yu, yv) == y_out", "if not ((xu, xv) == x7",
        (CERT_HEIGHT,),
    ),
    Mutant(
        "certificate-unpacks-y-into-x", "irrational.py",
        "xu, xv, yu, yv, *action = _trace_lattice(", "xu, yu, xv, yv, *action = _trace_lattice(",
        (DIGIT_SUM,),
    ),
    Mutant(
        "certificate-drops-fixes-beta", "irrational.py",
        "\n            and entries_fix_beta(*action)):", "):",
        (CERT_FAILS,),
    ),
    # the running products of criterion.verify
    Mutant(
        "verify-reads-the-block-action", "criterion.py",
        "action, matrix = action * IntMat2(*entries),", "action, matrix = IntMat2(*entries),",
        (RUNNING_ACTION,),
    ),
    Mutant(
        "holonomy-reads-b-d", "criterion.py",
        "if (matrix.a, matrix.c) != (qk, pk):", "if (matrix.b, matrix.d) != (qk, pk):",
        (VERIFY_ORACLE,),
    ),
    # the mediant lemma of criterion.masur_structural; at k = 0 the test
    # p_{k-1} <= p_k refuses too (p_{-1} = 1 > p_0 = 0), so the k floor is
    # killed by a negative k, where the table has no index k - 1
    Mutant(
        "sigma-parity-dropped", "criterion.py",
        "if k % 2 != 0 or k < 2 or", "if k < 2 or",
        (SIGMA_ODD_K,),
    ),
    Mutant(
        "sigma-k-floor-dropped", "criterion.py",
        "if k % 2 != 0 or k < 2 or", "if k % 2 != 0 or",
        (SIGMA_LOW_K,),
    ),
    Mutant(
        "sigma-next-digit-not-required", "criterion.py",
        " or len(conv.digits) <= k:", ":",
        (SIGMA_NEXT_DIGIT,),
    ),
    # the precision doubling of criterion._wedge_at
    Mutant(
        "wedge-retry-stops-doubling", "criterion.py",
        "bits = PRECISION_BITS << attempt", "bits = PRECISION_BITS",
        (WEDGE_RETRY,),
    ),
    # the closed-form block of rational.block_for and its congruences
    Mutant(
        "odd-block-first-digit-reads-a", "rational.py",
        "return (2 * q + b, 1, 1,", "return (2 * q + a, 1, 1,",
        (BLOCKS, ACCEPT_BLOCKS),
    ),
    Mutant(
        "even-block-b-minus-1-reads-b", "rational.py",
        "return (2 * q + a2, b - 1,", "return (2 * q + a2, b,",
        (BLOCKS, EVEN_BLOCKS, ACCEPT_BLOCKS),
    ),
    Mutant(
        "no-solution-names-rhs1", "rational.py",
        "rhs = rhs1 if (a1 * s - rhs1) % mod else rhs2", "rhs = rhs1",
        (NO_SOLUTION,),
    ),
    Mutant(
        "no-solution-names-rhs2", "rational.py",
        "rhs = rhs1 if (a1 * s - rhs1) % mod else rhs2", "rhs = rhs2",
        (NO_SOLUTION,),
    ),
    Mutant(
        "least-solution-may-be-0", "rational.py",
        "a1 = rhs1 // g * inv % step or step", "a1 = rhs1 // g * inv % step",
        (SCAN,),
    ),
    Mutant(
        "negative-s-not-flipped", "rational.py",
        "    if s < 0:\n        r, s = -r, -s\n", "",
        (SCAN,),
    ),
    Mutant(
        "fixing-trace-unpacks-v-as-y", "rational.py",
        'x, _, y, _, a, b, c, d = _trace_lattice(W, 0, r, 0, s, 0, "h+"',
        'x, y, _, _, a, b, c, d = _trace_lattice(W, 0, r, 0, s, 0, "h+"',
        (CERT_ORACLE,),
    ),
    Mutant(
        "period-congruence-reads-s", "rational.py",
        "period * r % W", "period * s % W",
        (CERT_EXAMPLES,),
    ),
    Mutant(
        "param-field-type-unchecked", "rational.py",
        "if not (type(r) is int and type(s) is int and type(q) is int):",
        "if False:",
        (PARAM_TYPES, PARAM_BOOL),
    ),
    Mutant(
        "param-takes-bool-as-int", "rational.py",
        "if not (type(r) is int and type(s) is int and type(q) is int):",
        "if not (isinstance(r, int) and isinstance(s, int) and isinstance(q, int)):",
        (PARAM_BOOL,),
    ),
    Mutant(
        "parity-case-read-from-s-alone", "rational.py",
        "odd = r % 2 or s % 2", "odd = s % 2",
        (SCAN,),
    ),
    Mutant(
        "h-minus-period-q", "rational.py",
        "period = 1 if r == 0 else W", "period = 1 if r == 0 else q",
        (CERT_ORACLE, CERT_EXAMPLES),
    ),
    Mutant(
        "h-minus-period-one", "rational.py",
        "period = 1 if r == 0 else W", "period = 1 if r == 0 else 1",
        (CERT_EXAMPLES,),
    ),
    Mutant(
        "shared-inverse-mod-2q", "rational.py",
        "inv = pow(s // g, -1, step)", "inv = pow(s // g, -1, mod)",
        (SCAN,),
    ),
    # the closed-form syllable of torus._trace_lattice and its floor
    Mutant(
        "wrap-goes-the-other-way", "torus.py",
        "xu -= k * W", "xu += k * W",
        (KERNEL, SYLLABLE_ORACLE),
    ),
    Mutant(
        "running-count-reads-k-for-abs-k", "torus.py",
        "m = n - 2 * k if k > 0 else n + 2 * k\n            b, d",
        "m = n - 2 * k\n            b, d",
        (KERNEL, SYLLABLE_ORACLE),
    ),
    Mutant(
        "alternation-toggle-dropped", "torus.py",
        "        plus = not plus\n", "",
        (KERNEL, SYLLABLE_ORACLE),
    ),
    Mutant(
        "floor-of-negative-sqrt-is-ceiling", "exact.py",
        "return s if v > 0 else -s - 1", "return s if v > 0 else -s",
        (KERNEL, FLOORS),
    ),
    Mutant(
        "zero-exponent-traced", "torus.py",
        "        if n < 1:\n            raise ValueError(f\"exponent must be positive",
        "        if n < 0:\n            raise ValueError(f\"exponent must be positive",
        (BAD_SYLLABLE, ZERO_DIGIT),
    ),
    Mutant(
        "determinant-check-one-index-late", "words.py",
        "range(self._det_checked + 1,", "range(self._det_checked + 2,",
        (DET_INCREMENTAL,),
    ),
    # the (leading, digits) form of words.GenWord and the CLI's word parser
    Mutant(
        "word-leading-unchecked", "words.py",
        'if leading != "h+" and leading != "h-":', "if False:",
        (WORD_VALIDATION,),
    ),
    Mutant(
        "word-zero-exponent", "words.py",
        "if n < 1:", "if n < 0:",
        (WORD_VALIDATION,),
    ),
    Mutant(
        "word-matrix-toggle-dropped", "words.py",
        "            plus = not plus\n", "",
        (WORD_MATRIX,),
    ),
    Mutant(
        "word-seam-parity-inverted", "words.py",
        "if (len(left) % 2 == 1) == (self.leading == other.leading):",
        "if (len(left) % 2 == 1) != (self.leading == other.leading):",
        (WORD_SEAM,),
    ),
    Mutant(
        "word-alternation-unchecked", "cli.py",
        "if gens and gen == gens[-1]:", "if False:",
        (CLI_ALTERNATION,),
    ),
    # the event clocks and sampling of flow._simulate_loop
    Mutant(
        "flow-top-period-off-by-one", "flow.py",
        "_exact_div(Lq, p)", "_exact_div(Lq, p) + 1",
        (FLOW_LATTICE_ORACLE,),
    ),
    Mutant(
        "flow-slit-line-top-step-dropped", "flow.py",
        "t_line += line_dy", "pass",
        (FLOW_ORACLE,),
    ),
    Mutant(
        "flow-corner-read-as-right-edge", "flow.py",
        "right, top = t_right <= t_top, t_top <= t_right",
        "right, top = t_right <= t_top, t_top < t_right",
        (FLOW_ORACLE,),
    ),
    Mutant(
        "flow-slit-line-right-step-dropped", "flow.py",
        "t_line += line_dx", "pass",
        (FLOW_LATTICE_ORACLE,),
    ),
    Mutant(
        "flow-slit-parameter-top-step-dropped", "flow.py",
        "u += Lq", "pass",
        (FLOW_LATTICE_ORACLE,),
    ),
    Mutant(
        "flow-slit-cone-test-dropped", "flow.py",
        'if u == adet or u == nadet:\n                        raise SingularOrbitError("orbit hits'
        ' a cone point")\n                    if t_line == e:',
        'if False:\n                        raise SingularOrbitError("orbit hits'
        ' a cone point")\n                    if t_line == e:',
        (FLOW_SINGULAR,),
    ),
    Mutant(
        "flow-slit-edge-coincidence-dropped", "flow.py",
        "if t_line == e:", "if False:",
        (FLOW_ORACLE,),
    ),
    Mutant(
        "flow-piece-not-resumed-after-slit", "flow.py",
        "s, bound = bound, end", "s = bound",
        (FLOW_BOUNDED,),
    ),
    Mutant(
        "flow-deck-weight-flipped-in-loop", "flow.py",
        "deck += w[sheet]", "deck -= w[sheet]",
        (FLOW_DECK,),
    ),
    Mutant(
        "flow-slit-half-length-halved", "flow.py",
        "_scale(model.zy, Lq)", "_scale(model.zy, Lq) // 2",
        (FLOW_BILLIARD,),
    ),
    Mutant(
        "flow-sheet-unflipped-after-slit", "flow.py",
        "                sheet = 1 - sheet\n", "",
        (FLOW_BILLIARD,),
    ),
    Mutant(
        "flow-sample-at-segment-end-moved-on", "flow.py",
        "while m_clock <= bound:", "while m_clock < bound:",
        (FLOW_LATTICE_ORACLE,),
    ),
    Mutant(
        "flow-sample-step-off-by-one", "flow.py",
        "m_step = _scale(ds, L)", "m_step = _scale(ds, L) + 1",
        (FLOW_LATTICE_ORACLE,),
    ),
    # the integer bin clocks of flow._simulate_loop and the edge-event sample
    Mutant(
        "flow-bin-clock-carry-dropped", "flow.py",
        "i += di_carry", "i += di",
        (FLOW_ORACLE,),
    ),
    Mutant(
        "flow-bin-clock-step-not-reduced", "flow.py",
        "di % grid, df, den", "di, df, den",
        (FLOW_BIN_CLOCKS,),
    ),
    Mutant(
        "flow-bin-edge-sample-counted-below", "flow.py",
        "if fy >= den_y:", "if fy > den_y:",
        (FLOW_BIN_EDGES,),
    ),
    Mutant(
        "flow-edge-sample-counted-in-wrapped-cell", "flow.py",
        "if m_clock == e:", "if False:",
        (FLOW_EDGE_SAMPLES,),
    ),
    Mutant(
        "flow-edge-sample-roles-swapped", "flow.py",
        "rows[top_cell if right else i][top_cell if top else j]",
        "rows[top_cell if top else i][top_cell if right else j]",
        (FLOW_EDGE_SAMPLES,),
    ),
    # the integer stopping test of directions.DirectionSpec.alpha_enclosure
    Mutant(
        "enclosure-reads-q-k-alone", "directions.py",
        "conv.q(k - 1) * conv.q(k) >= need", "conv.q(k) >= need",
        (ENCLOSURE,),
    ),
    # criterion.verify traces from its own running point
    Mutant(
        "verify-traces-from-the-stored-endpoint", "criterion.py",
        "z_n, entries = trace_word(z_n, block)",
        "z_n, entries = trace_word(spec.checkpoint_point(n - 1) if n > 1 else spec.z0, block)",
        (FORGED_ENDPOINT,),
    ),
    # the parameter types of directions.DigitRule
    Mutant(
        "digit-rule-takes-bool-as-int", "directions.py",
        "if type(v) is not int:", "if not isinstance(v, int):",
        (RULE_BOOL,),
    ),
    # the component and digit types of exact.ExactScalar, words.GenWord and
    # words.Convergents
    Mutant(
        "scalar-takes-bool-as-int", "exact.py",
        "type(u) is int and", "isinstance(u, int) and",
        (SCALAR_BOOL,),
    ),
    Mutant(
        "word-takes-bool-as-int", "words.py",
        "if type(n) is not int:", "if not isinstance(n, int):",
        (WORD_BOOL,),
    ),
    Mutant(
        "convergents-take-bool-as-int", "words.py",
        "if type(d) is not int:", "if not isinstance(d, int):",
        (DIGIT_BOOL,),
    ),
    # the JSON rule of exact.Record and exact.to_json
    Mutant(
        "json-fraction-by-str", "exact.py",
        "return exact_str(value)", "return str(value)",
        (JSON_BIG,),
    ),
    Mutant(
        "record-json-skips-a-slot", "exact.py",
        "for name in self.__slots__}", "for name in self.__slots__[1:]}",
        (GOLDEN_BUILD,),
    ),
    Mutant(
        "record-json-reorders-slots", "exact.py",
        "for name in self.__slots__}", "for name in reversed(self.__slots__)}",
        (GOLDEN_BUILD,),
    ),
    Mutant(
        "checkpoint-json-drops-ok", "criterion.py",
        'return {**super().as_json(), "ok": self.ok}', "return super().as_json()",
        (GOLDEN_VERIFY,),
    ),
    # the endpoint types of intervals.RatInterval
    Mutant(
        "interval-endpoint-type-unchecked", "intervals.py",
        "if not (isinstance(lo, (int, Fraction)) and isinstance(hi, (int, Fraction))):",
        "if False:",
        (INTERVAL_TYPES,),
    ),
    # cli._plain, which reads a plain line from the option table
    Mutant(
        "cli-negative-value-read-as-flag", "cli.py",
        'return text[:1] != "-" or _NEGATIVE.match(text) is not None', 'return text[:1] != "-"',
        (PLAIN_NEGATIVE,),
    ),
    Mutant(
        "cli-exclusive-group-unchecked", "cli.py",
        "sum(a.group == arg.group for a in given) != 1",
        "sum(a.group == arg.group for a in given) < 1",
        (PARSE_CONFLICT,),
    ),
    Mutant(
        "cli-required-flag-unchecked", "cli.py",
        "if arg.required and arg not in given:", "if False:",
        (PARSE_REQUIRED,),
    ),
    Mutant(
        "cli-type-conversion-skipped", "cli.py",
        "given[arg] = value if arg.type is None else arg.type(value)", "given[arg] = value",
        (PARSE_TYPE,),
    ),
    Mutant(
        "cli-eq-split-dropped", "cli.py",
        'flag, eq, value = text.partition("=")', 'flag, eq, value = text, "", None',
        (PLAIN_EQ,),
    ),
    Mutant(
        "plain-accepts-a-prefix", "cli.py",
        "elif text in flags:",
        "elif (text := next((f for f in flags if f.startswith(text)), text)) in flags:",
        (PLAIN_PREFIX,),
    ),
    Mutant(
        "plain-takes-a-dash-value", "cli.py",
        "if not _is_value(value):", "if False:",
        (PLAIN_DASH,),
    ),
    # cli._argparse, which reads every other line
    Mutant(
        "argparse-reads-negative-value-as-flag", "cli.py",
        "self._negative_number_matcher = _NEGATIVE", "pass",
        (ARGPARSE_NEGATIVE,),
    ),
    Mutant(
        "separator-value-dropped", "cli.py",
        'if action.option_strings and arg_strings == ["--"]:', "if False:",
        (SEPARATOR_TYPE,),
    ),
    Mutant(
        "argparse-type-error-loses-its-flag", "cli.py",
        "raise argparse.ArgumentError(action, str(exc)) from None", "raise",
        (PARSE_TYPE_TEXT,),
    ),
    Mutant(
        "argparse-prints-its-own-help", "cli.py",
        "def print_help(self, file=None):", "def _unused_print_help(self, file=None):",
        (HELP_BYTES,),
    ),
    # the billiard command's round trip, up to the wall reflection
    Mutant(
        "billiard-wall-reflection-ignored", "cli.py",
        '"round_trip_identical": back in (b, reflected),', '"round_trip_identical": back == b,',
        (BILLIARD_CMD,),
    ),
    # cli._any_digits lifts the int/str digit cap and restores it
    Mutant(
        "json-digit-cap-kept", "cli.py",
        "sys.set_int_max_str_digits(0)", "None",
        (JSON_DIGITS,),
    ),
    Mutant(
        "json-digit-cap-not-restored", "cli.py",
        "sys.set_int_max_str_digits(limit)", "None",
        (JSON_DIGITS,),
    ),
    # the spec-file loader of cli.load_spec
    Mutant(
        "spec-file-not-compared-with-rebuild", "cli.py",
        "if key in data and _json_text(rebuilt[key]) != _json_text(data[key]):",
        "if False:",
        (FORGED,),
    ),
    # the process entry freezes the import-time heap; main never does
    Mutant(
        "entry-does-not-freeze", "cli.py",
        "    gc.freeze()\n    code = main()", "    code = main()",
        (ENTRY_FREEZES,),
    ),
    # the process entry fails closed when its output cannot be flushed
    Mutant(
        "flush-failure-not-caught", "cli.py",
        "    except OSError as exc:\n", "    except ValueError as exc:\n",
        (FULL_DISK,),
    ),
    Mutant(
        "main-freezes", "cli.py",
        "def main(argv=None) -> int:\n    try:",
        "def main(argv=None) -> int:\n    gc.freeze()\n    try:",
        (MAIN_UNFROZEN,),
    ),
)


def pytest_exit(src: Path, tests) -> int | None:
    """The exit code of pytest running ``tests`` against the package in
    ``src``, or None when the run takes longer than ``PYTEST_TIMEOUT_S``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=PYTEST_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return run.returncode


def outcome(mutant: Mutant) -> str:
    """killed, survived, or why the mutant could not be run."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "slittori" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return f"not applied: old text occurs {text.count(mutant.old)} times"
        path.write_text(text.replace(mutant.old, mutant.new))
        code = pytest_exit(src, mutant.tests)
    if code is None:
        return "not run: timed out"
    if code == 1:
        return "killed"
    return "survived" if code == 0 else f"not run: pytest exit {code}"


def main(names: list[str]) -> int:
    known = {m.name: m for m in CATALOGUE}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [known[n] for n in names] or list(CATALOGUE)
    tests = sorted({t for m in chosen for t in m.tests})
    if pytest_exit(ROOT / "src", tests) != 0:
        print("the named tests fail or time out on the unmutated source", file=sys.stderr)
        return 2
    failed = equivalent = 0
    for mutant in chosen:
        result = outcome(mutant)
        line = mutant.name
        if mutant.equivalent:
            # a kill would disprove the reason, so only survival passes
            if result == "survived":
                result, equivalent = "equivalent", equivalent + 1
            else:
                result += " although listed as equivalent"
            line += f": {mutant.equivalent}"
        failed += result not in ("killed", "equivalent")
        print(f"{result:10} {line}", flush=True)
    killed = len(chosen) - failed - equivalent
    print(f"{killed} of {len(chosen)} killed, {equivalent} equivalent")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
