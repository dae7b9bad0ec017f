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
           "def ordered_type_polynomials(gamma, width, gate=True):",
           "def ordered_type_polynomials(gamma, width, gate=False):",
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
    # right coefficients; the checks must raise on them.
    Mutant("coloring-no-smallest-part-filter", "src/rookhl/chromatic.py",
           "if la[-1] < p:", "if la[-1] < 0:",
           ("tests/test_acceptance.py::"
            "test_criterion_2_main_identity_through_n6",
            "tests/test_acceptance.py::test_criterion_5_llt_expansions",
            "tests/test_verify.py::test_check_main_small_sizes")),
    Mutant("coloring-keys-unchecked", "src/rookhl/verify.py",
           "if la not in t.index:", "if la not in t.index and False:",
           ("tests/test_verify.py::"
            "test_main_reports_raise_on_a_coloring_key_that_is_no_partition",
            "tests/test_verify.py::"
            "test_llt_reports_raise_on_a_coloring_key_that_is_no_partition")),
    # mult's packed route, verify.check_multiplicativity.
    Mutant("mult-width-one-bit-short", "src/rookhl/verify.py",
           "math.factorial(n) * top))\n", "math.factorial(n) * top)) - 1\n",
           MULT + ("tests/test_verify.py::"
                   "test_mult_width_is_set_by_the_factorial_term",)),
    Mutant("mult-packed-strips-skip-one", "src/rookhl/verify.py",
           "bits))\n                 for nu in _vertical_strips(mu, k))",
           "bits))\n                 for nu in _vertical_strips(mu, k)[1:])",
           MULT),
    # Each mult report is labelled with a type of the extended path, of
    # size n + k; the labels of gamma's size would report on other types.
    Mutant("mult-labels-of-gamma-size", "src/rookhl/verify.py",
           "_typed_partitions(n + k)", "_typed_partitions(n)",
           ("tests/test_verify.py::"
            "test_check_main_reports_counterexample_when_rule_is_broken",)),
    # The strips and the q-binomials the strip factors are built from.
    Mutant("horizontal-strips-skip-one", "src/rookhl/symfunc.py",
           "    return tuple(out)\n", "    return tuple(out[1:])\n",
           MULT),
    Mutant("q-binomial-pascal-shift", "src/rookhl/qseries.py",
           "row[j] = row[j - 1] + row[j].shift(j)",
           "row[j] = row[j - 1] + row[j].shift(j - 1)",
           ("tests/test_qseries.py::"
            "test_q_binomial_times_the_factorials_is_the_factorial",
            "tests/test_verify.py::test_check_multiplicativity_small_sizes")),
    # Every packed check reads its rook side through verify._rook_types,
    # whose premise (each type counts at most its set partitions) every
    # width rests on; a type one placement over it must raise.
    Mutant("rook-premise-unchecked", "src/rookhl/verify.py",
           "if count > _set_partitions(mu):",
           "if count > _set_partitions(mu) and False:",
           ("tests/test_verify.py::"
            "test_a_type_one_placement_over_its_set_partitions_raises",
            "tests/test_verify.py::"
            "test_mult_raises_when_the_count_premise_fails")),
    # main's width must cover the table it packs, kf, whose entries the
    # n! term bounds, not only both sides.
    Mutant("main-width-drops-factorial", "src/rookhl/verify.py",
           "bits = _width(max(*bounds, math.factorial(n)))\n    lhs = _times(",
           "bits = _width(max(bounds))\n    lhs = _times(",
           WIDTH),
    # main's bound must carry X's Schur bounds on through kf, by the Kostka
    # numbers; where n! holds the result anyway no report tells, so only a
    # test on the bound does.
    Mutant("main-width-stops-at-schur", "src/rookhl/verify.py",
           "bounds = _times(_solve_bound([c.l1_norm() for c in vec], "
           "t.kostka),\n                    t.kostka)",
           "bounds = _solve_bound([c.l1_norm() for c in vec], t.kostka)",
           ("tests/test_verify.py::"
            "test_main_bounds_x_through_kostka_and_on_through_kf",)),
    # llt's width must cover every rook side the premise allows; through
    # n = 8 n! does too, so only a test on the bound tells.
    Mutant("llt-width-drops-rook-bound", "src/rookhl/verify.py",
           "max(*bounds, _llt_rook_bound(n), math.factorial(n))",
           "max(*bounds, math.factorial(n))",
           ("tests/test_verify.py::"
            "test_llt_bounds_every_rook_side_the_premise_allows",)),
    # principal's width must cover the type and product routes through
    # alpha_max^n, beyond what X's sums and n! hold.
    Mutant("principal-width-drops-power", "src/rookhl/verify.py",
           "max(*at_one, alpha_max ** n, math.factorial(n))",
           "max(*at_one, math.factorial(n))",
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
    # A sweep with jobs > 1 freezes the heap before its pool forks and must
    # unfreeze it after, or the caller's collector never sees those objects.
    Mutant("sweep-leaves-heap-frozen", "src/rookhl/verify.py",
           "        gc.unfreeze()\n", "        pass\n",
           ("tests/test_verify.py::"
            "test_sweep_leaves_the_collector_as_it_found_it",)),
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
