"""A register of named mutations of the package, and a runner that requires
each one to be caught.

Each mutation names a file of the package or a test-side kernel, an exact
text that occurs in it once, the text that replaces it, and the tests that
must fail once it is replaced.  A tier-1 test (test_mutants.py) checks
that every text still occurs exactly once, so a refactor that moves the
code it mutates must update this register instead of silently losing a
control.

The runner applies each mutation to a temporary copy of src and tests and
runs only the named tests there; it exits non-zero if any of them passes.
Each mutant costs one pytest process, so the runner stays out of tier-1:

    python tests/mutants.py            # every mutation
    python tests/mutants.py NAME ...   # the named ones
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str           # relative to the repository root
    text: str           # occurs exactly once in file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, without parameters


ROOK_DP = (
    "tests/test_rook.py::test_type_polynomials_match_enumeration",
    "tests/test_rook.py::test_multiset_kernel_equals_the_ordered_kernel",
)

MULT = (
    "tests/test_verify.py::test_check_multiplicativity_small_sizes",
    "tests/test_verify.py::test_mult_walks_exactly_the_vertical_strips",
    "tests/test_verify.py::test_mult_strip_table_packs_every_vertical_strip",
)

WIDTH = (
    "tests/test_verify.py::"
    "test_the_width_holds_every_entry_of_the_table_it_packs",
)

MUTANTS = [
    # The rook DP, rook._type_polynomials: the spread [c]_q of a tie run,
    # the columns ranked above it, the multiset sorted again as columns
    # join it, and the tail of unmet vertices kept in vertex order.
    Mutant("rook-dp-spread-one-short", "src/rookhl/rook.py",
           "spread[j - i]", "spread[j - i - 1]",
           ROOK_DP),
    Mutant("rook-dp-above-from-run-start", "src/rookhl/rook.py",
           "width * (m - j)", "width * (m - i)",
           ROOK_DP),
    Mutant("rook-dp-prefix-not-resorted", "src/rookhl/rook.py",
           "tuple(sorted(ranks[:m]))", "ranks[:m]",
           ROOK_DP),
    # mult reads gamma's types off the extended path's walk at the end of
    # row n; read a row late, they are another path's.
    Mutant("rook-dp-readout-row-late", "src/rookhl/rook.py",
           "if d - 1 == prefix:", "if d - 2 == prefix:",
           ("tests/test_rook.py::"
            "test_kernel_reads_a_prefix_off_a_longer_walk",
            "tests/test_verify.py::test_check_multiplicativity_small_sizes",
            "tests/test_verify.py::"
            "test_mult_walks_exactly_the_vertical_strips")),
    Mutant("rook-dp-tail-sorted", "src/rookhl/rook.py",
           "tuple(sorted(ranks[:m])) + ranks[m:]",
           "tuple(sorted(ranks[:m])) + tuple(sorted(ranks[m:]))",
           ROOK_DP + (
               "tests/test_rook.py::"
               "test_multiset_kernel_keeps_the_tail_in_vertex_order",)),
    # The ordered test kernel is the DP's second oracle and the negative
    # controls' stand-in.  With its gate off by default, the oracle
    # comparison must fail; with its gate stuck on, the controls must.
    Mutant("rook-dp-gate-off", "tests/placement_oracle.py",
           "def ordered_type_polynomials(gamma, width, prefix=None, "
           "gate=True):",
           "def ordered_type_polynomials(gamma, width, prefix=None, "
           "gate=False):",
           ("tests/test_rook.py::"
            "test_multiset_kernel_equals_the_ordered_kernel",)),
    Mutant("rook-control-gate-stuck-on", "tests/placement_oracle.py",
           "    check_heights(gamma)\n    n = len(gamma)\n    if width <",
           "    gate = True\n    check_heights(gamma)\n    n = len(gamma)\n"
           "    if width <",
           ("tests/test_acceptance.py::"
            "test_criterion_9_gate_removal_is_detected",
            "tests/test_cli.py::test_verify_finds_counterexample",
            "tests/test_verify.py::"
            "test_check_main_reports_counterexample_when_rule_is_broken")),
    # The package's free cells stop at the rook of their column; scoring
    # past it is the ungated rule.
    Mutant("free-cells-gate-off", "src/rookhl/rook.py",
           "range(gamma[i - 1] + 1, col_top[i])",
           "range(gamma[i - 1] + 1, n + 1)",
           ("tests/test_rook.py::test_free_cells_match_oracle",
            "tests/test_rook.py::test_ungated_rule_differs_on_fig_path")),
    # The coloring side's keys: a recursion without its smallest-part
    # filter adds keys that are no partitions, such as (1, 2), beside the
    # right coefficients; the checks must raise on them, X's at the read of
    # the coloring DP, and llt's at its own read of the word function.
    Mutant("coloring-no-smallest-part-filter", "src/rookhl/chromatic.py",
           "if la[-1] < p:", "if la[-1] < 0:",
           ("tests/test_acceptance.py::"
            "test_criterion_2_main_identity_through_n6",
            "tests/test_acceptance.py::test_criterion_5_llt_expansions",
            "tests/test_verify.py::test_check_main_small_sizes")),
    Mutant("coloring-keys-unchecked", "src/rookhl/chromatic.py",
           "if la not in parts:", "if la not in parts and False:",
           ("tests/test_verify.py::"
            "test_main_reports_raise_on_a_coloring_key_that_is_no_partition",
            )),
    Mutant("llt-keys-unchecked", "src/rookhl/verify.py",
           "if la not in t.index:", "if la not in t.index and False:",
           ("tests/test_verify.py::"
            "test_llt_reports_raise_on_a_coloring_key_that_is_no_partition",
            )),
    # main's and principal's widths rest on X's premise, each coefficient
    # counting at most the words of its content; one past it must raise.
    Mutant("coloring-premise-unchecked", "src/rookhl/chromatic.py",
           "if count > _words(la):", "if count > _words(la) and False:",
           ("tests/test_verify.py::"
            "test_a_coefficient_one_labeling_over_its_words_raises",
            "tests/test_verify.py::test_check_principal_bounds_every_route")),
    # No count passes n!, so the read of the coloring DP must refuse a
    # width that cannot hold it; every caller's own width does.
    Mutant("coloring-width-unchecked", "src/rookhl/chromatic.py",
           "if math.factorial(n) >> bits:", "if False:",
           ("tests/test_chromatic.py::"
            "test_the_coloring_read_raises_on_a_width_short_of_n_factorial",
            )),
    # mult's packed route, verify.check_multiplicativity.
    Mutant("mult-width-one-bit-short", "src/rookhl/verify.py",
           "bits = _width(math.factorial(n + k))",
           "bits = _width(math.factorial(n + k)) - 1",
           MULT[:2]),
    Mutant("mult-packed-strips-skip-one", "src/rookhl/verify.py",
           "for nuc in symfunc._horizontal_strips(muc[:-1], k):",
           "for nuc in symfunc._horizontal_strips(muc[:-1], k)[1:]:",
           MULT),
    # Each strip factor is built as an int, its Gaussian binomials by
    # q-Pascal, and checked against the width: n! f(1) < 2^(bits-1).
    Mutant("mult-strip-pascal-shift", "src/rookhl/verify.py",
           "row[j] = row[j - 1] + (row[j] << bits * j)",
           "row[j] = row[j - 1] + (row[j] << bits * (j - 1))",
           MULT),
    Mutant("mult-strip-width-unchecked", "src/rookhl/verify.py",
           "if math.factorial(n) * at_one >> bits - 1:", "if False:",
           ("tests/test_verify.py::"
            "test_a_strip_factor_past_the_width_raises",)),
    # Each mult report is labelled with a type of the extended path, of
    # size n + k; the labels of gamma's size would report on other types.
    Mutant("mult-labels-of-gamma-size", "src/rookhl/verify.py",
           "_typed_partitions(n + k)", "_typed_partitions(n)",
           ("tests/test_verify.py::"
            "test_check_main_reports_counterexample_when_rule_is_broken",)),
    # The strips the strip factors weigh.
    Mutant("horizontal-strips-skip-one", "src/rookhl/symfunc.py",
           "    return tuple(out)\n", "    return tuple(out[1:])\n",
           MULT),
    # The monomial product reads each target partition padded with zeros
    # to every variable; unpadded, only the targets of full length count.
    Mutant("multiply-skips-padded-targets", "src/rookhl/symfunc.py",
           "target = nu + (0,) * (nvars - len(nu))", "target = nu",
           ("tests/test_symfunc.py::test_multiply",
            "tests/test_symfunc.py::"
            "test_multiply_equals_the_scan_over_every_pair")),
    # Every reader of the rook DP but mult's prefix walk goes through
    # rook._rook_types, whose premise (each type counts at most its set
    # partitions) every width rests on; a type one placement over it must
    # raise.
    Mutant("rook-premise-unchecked", "src/rookhl/rook.py",
           "if count > _set_partitions(mu):",
           "if count > _set_partitions(mu) and False:",
           ("tests/test_verify.py::"
            "test_a_type_one_placement_over_its_set_partitions_raises",
            "tests/test_verify.py::"
            "test_mult_raises_when_the_count_premise_fails")),
    # type_polynomials unpacks the premise-checked read, not the DP itself.
    Mutant("type-polynomials-skips-premise", "src/rookhl/rook.py",
           "for mu, hist in _rook_types(gamma, width).items()}",
           "for mu, hist in _type_polynomials(gamma, width).items()}",
           ("tests/test_rook.py::"
            "test_only_the_premise_checked_read_and_mult_name_the_rook_dp",
            "tests/test_verify.py::"
            "test_a_type_one_placement_over_its_set_partitions_raises")),
    # The P coefficient's product of [m]_q! over mu's multiplicities reads
    # the one q-integer kernel, qseries.q_falling_at(m, m), a product of
    # repunits [t]_q; one short at the top drops [m]_q.  (At the bottom it
    # would drop [1]_q = 1, which no test can tell.)
    Mutant("hl-factorials-repunit-one-short", "src/rookhl/qseries.py",
           "range(alpha - k + 1, alpha + 1)", "range(alpha - k + 1, alpha)",
           ("tests/test_rook.py::test_hl_coefficients_are_polynomials",
            "tests/test_rook.py::test_hl_coefficient_at_single_column_type",
            "tests/test_verify.py::test_check_main_small_sizes")),
    # The kernel holds its value at q = 1 below 2^bits, so that no slot
    # carries; every caller's own width holds it, so only a test of the
    # kernel at a narrower width tells.
    Mutant("q-falling-range-unchecked", "src/rookhl/qseries.py",
           "if math.perm(alpha, k) >> bits:", "if False:",
           ("tests/test_qseries.py::"
            "test_q_falling_at_raises_one_bit_below_its_value_at_one",)),
    # main's width must cover the table it packs, kf, whose entries the
    # n! term bounds, not only both sides.  X's premise makes the sides'
    # bound pass n! too, so only a test that narrows the premise tells.
    Mutant("main-width-drops-factorial", "src/rookhl/verify.py",
           "return max(*bounds, math.factorial(n))", "return max(bounds)",
           WIDTH),
    # main's bound must carry X's Schur bounds on through kf, by the Kostka
    # numbers; where n! holds the result anyway no report tells, so only a
    # test on the bound does.
    Mutant("main-width-stops-at-schur", "src/rookhl/verify.py",
           "bounds = _times(_solve(words, _negated_kostka(n)), t.kostka)",
           "bounds = _solve(words, _negated_kostka(n))",
           ("tests/test_verify.py::"
            "test_main_bounds_x_through_kostka_and_on_through_kf",)),
    # main's and llt's bounds run the solve they bound, against -kostka;
    # against kostka itself it subtracts where a bound must add.
    Mutant("bound-kostka-not-negated", "src/rookhl/verify.py",
           "[[-k for k in row]", "[[k for k in row]",
           ("tests/test_verify.py::"
            "test_each_bound_is_the_solve_against_negated_kostka",)),
    # llt's width must cover every rook side the premise allows; through
    # n = 8 n! does too, so only a test on the bound tells.
    Mutant("llt-width-drops-rook-bound", "src/rookhl/verify.py",
           "max(*bounds, _llt_rook_bound(n), math.factorial(n))",
           "max(*bounds, math.factorial(n))",
           ("tests/test_verify.py::"
            "test_llt_bounds_every_rook_side_the_premise_allows",)),
    # principal's width must cover every route through alpha_max^n, beyond
    # what n! holds.
    Mutant("principal-width-drops-power", "src/rookhl/verify.py",
           "return max(alpha_max ** n, math.factorial(n))",
           "return math.factorial(n)",
           ("tests/test_verify.py::test_check_principal_bounds_every_route",)),
    # llt bounds kf's entries by the Kostka numbers, which the kf build
    # makes true by rejecting a negative coefficient.
    Mutant("kf-negative-coefficient-unchecked", "src/rookhl/symfunc.py",
           " or min(poly.coeffs, default=0) < 0", "",
           ("tests/test_symfunc.py::"
            "test_transitions_raise_on_a_negative_kf_coefficient",)),
    # llt's rook side and its bound walk kf's columns through one helper;
    # a term it drops breaks the packed products.
    Mutant("kf-columns-drop-a-term", "src/rookhl/verify.py",
           "for j, c in terms if row[j]", "for j, c in terms[1:] if row[j]",
           ("tests/test_verify.py::test_check_llt_small_sizes",
            "tests/test_verify.py::"
            "test_packed_reports_equal_the_symfunc_route")),
    # Partitions and heights share one text codec, in which '-' is the
    # empty tuple.
    Mutant("parse-ints-drops-dash", "src/rookhl/partitions.py",
           'if text in ("-", ""):', 'if text == "":',
           ("tests/test_partitions.py::test_parse_and_format",
            "tests/test_dyck.py::test_parse_format_heights")),
    # One height check serves from_heights, both transfer DPs and mult:
    # it rejects a height that is no int, a float that equals one too, and
    # a height above n, at every entry point.
    Mutant("heights-int-check-takes-floats", "src/rookhl/dyck.py",
           "if not isinstance(m, int) or isinstance(m, bool):",
           "if not isinstance(m, (int, float)) or isinstance(m, bool):",
           ("tests/test_verify.py::"
            "test_every_entry_point_rejects_a_height_that_is_no_int",
            "tests/test_dyck.py::test_check_heights_agrees_with_from_heights")),
    Mutant("heights-bound-dropped", "src/rookhl/dyck.py",
           "if m > n:", "if False:",
           ("tests/test_dyck.py::test_from_heights_names_offending_column",
            "tests/test_dyck.py::test_check_heights_agrees_with_from_heights",
            "tests/test_verify.py::"
            "test_every_entry_point_rejects_a_height_above_n")),
    # mult's DP sees only the extended path, which is valid whatever gamma
    # is, so the check must run the height rule on gamma itself.
    Mutant("mult-heights-unchecked", "src/rookhl/verify.py",
           "    check_heights(gamma)\n    n = len(gamma)\n    extended",
           "    n = len(gamma)\n    extended",
           ("tests/test_verify.py::"
            "test_every_entry_point_rejects_a_height_above_n",)),
    # A kind-1 modular triple needs its row condition; from_heights checks
    # only that the moved column stays a path.
    Mutant("modular-kind1-no-row-condition", "src/rookhl/dyck.py",
           "h < len(g1) and g1[h - 1] == g1[h]", "h < len(g1)",
           ("tests/test_dyck.py::test_triples_match_literal_oracle",
            "tests/test_dyck.py::test_triple_counts")),
    # A sweep task must call the check the module holds when it runs: the
    # tracer wraps check_multiplicativity after import, and a table that
    # bound it then would lose that layer with stdout unchanged.
    Mutant("task-table-binds-mult-at-import", "src/rookhl/verify.py",
           "lambda *args: [check_multiplicativity(*args)]",
           "lambda *args, f=check_multiplicativity: [f(*args)]",
           ("tests/test_verify.py::"
            "test_sweep_tasks_look_up_their_checks_when_they_run",
            "tests/test_cli.py::"
            "test_benchmark_tracer_runs_a_sweep_with_unchanged_stdout")),
    # Each forked worker freezes the heap it inherited, so that its
    # collector never walks, and so never copies, it.
    Mutant("fanout-worker-heap-unfrozen", "src/rookhl/fanout.py",
           "                        gc.freeze()\n", "",
           ("tests/test_fanout.py::"
            "test_each_worker_freezes_its_heap_and_the_callers_is_left",)),
    # The fork pool: every batch a worker reads is run and reported, a
    # task's exception reaches the parent, and each worker is reaped.
    Mutant("fanout-drops-a-batch", "src/rookhl/fanout.py",
           "            (i,) = _INDEX.unpack(data)\n",
           "            (i,) = _INDEX.unpack(data)\n"
           "            if i == 1:\n                continue\n",
           ("tests/test_fanout.py::"
            "test_map_returns_the_results_in_task_order",)),
    Mutant("fanout-swallows-task-error", "src/rookhl/fanout.py",
           "                    if exc is not None:\n"
           "                        raise exc\n",
           "",
           ("tests/test_fanout.py::"
            "test_a_task_error_is_raised_in_the_parent",)),
    Mutant("fanout-leaves-worker-unreaped", "src/rookhl/fanout.py",
           "status = os.waitstatus_to_exitcode(\n"
           "                            os.waitpid(pid, 0)[1])",
           "status = 0",
           ("tests/test_fanout.py::"
            "test_map_returns_the_results_in_task_order",
            "tests/test_fanout.py::"
            "test_a_worker_that_dies_raises_runtime_error")),
    # The fork pool yields each batch once every earlier batch is in; one
    # that comes back early must wait for its predecessors.
    Mutant("fanout-yields-out-of-order", "src/rookhl/fanout.py",
           "                while done in batches:\n"
           "                    results, exc = batches.pop(done)\n",
           "                while batches:\n"
           "                    results, exc = batches.popitem()[1]\n",
           ("tests/test_fanout.py::"
            "test_a_batch_back_early_waits_for_every_earlier_batch",)),
    # An orbit's reflected member waits until every path before it is in;
    # yielded with its orbit, it comes out before the next orbit's first.
    Mutant("path-order-reflection-early", "src/rookhl/verify.py",
           "            bound = (len(after[1][0]), after[1][0])\n",
           "            bound = (math.inf,)\n",
           ("tests/test_verify.py::test_sweep_equals_the_per_path_checks",
            "tests/test_verify.py::"
            "test_each_path_comes_out_once_every_earlier_path_is_in")),
    # The text commands write in blocks; the rest after the last full
    # block must still be written.
    Mutant("cli-drops-last-block", "src/rookhl/cli.py",
           "    if block:\n        sys.stdout.write(", "    if False:\n"
           "        sys.stdout.write(",
           ("tests/test_cli.py::test_verify_text",
            "tests/test_cli.py::test_verify_writes_its_text_in_blocks")),
    # verify's summary line counts reports, not the lines it writes for
    # them: a counterexample writes three.
    Mutant("cli-summary-counts-lines", "src/rookhl/cli.py",
           "            tally[1] += 1\n",
           "            tally[0] += 2\n            tally[1] += 1\n",
           ("tests/test_cli.py::test_verify_writes_its_text_in_blocks",)),
    # A query that never checks an identity must not compile verify.
    Mutant("cli-imports-verify-eagerly", "src/rookhl/cli.py",
           "import argparse\n", "import argparse\nimport rookhl.verify\n",
           ("tests/test_cli.py::test_a_command_loads_only_the_modules_it_runs",)),
    # Every command imports the package root, so a module it imports is
    # loaded by every command and by `import rookhl`.
    Mutant("root-imports-a-module", "src/rookhl/__init__.py",
           "IDENTITIES = (",
           "from rookhl.symfunc import SymFunc\nIDENTITIES = (",
           ("tests/test_cli.py::test_import_rookhl_loads_none_of_its_modules",
            "tests/test_cli.py::test_a_command_loads_only_the_modules_it_runs")),
    # perfbench/tracer.py wraps principal_direct by name, the one reason it
    # stays in the package; a rename must break the traced sweep.
    Mutant("tracer-name-renamed", "src/rookhl/chromatic.py",
           "def principal_direct(", "def principal_direct_renamed(",
           ("tests/test_cli.py::"
            "test_benchmark_tracer_runs_a_sweep_with_unchanged_stdout",)),
]


def missed(mutant: Mutant) -> list[str]:
    """The named tests that pass on a copy with mutant applied."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / mutant.file
        source = target.read_text()
        if source.count(mutant.text) != 1:
            raise ValueError(f"{mutant.name}: text does not occur once")
        target.write_text(source.replace(mutant.text, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE",
             "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return [t for t in mutant.tests
            if not any(f == t or f.startswith(t + "[") for f in failed)]


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutations: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for m in chosen:
        passed = missed(m)
        bad += bool(passed)
        print(f"{m.name}: " + ("caught" if not passed else
                              "MISSED, passing: " + ", ".join(passed)),
              flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
