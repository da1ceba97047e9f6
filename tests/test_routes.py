"""The route table: every twkit route checked against frozen code has
exactly one test-side reference, in tests/dense_la.py or a
tests/frozen_*.py module, named here with the tests that compare the
two.  A reference imports from twkit only the names its rows list: data
types, or a name it shares with the route and the test that pins it.
A change that replaces a route points its tests at the route's one
reference or replaces the reference in its row; it never adds another.
"""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys
from typing import NamedTuple

import pytest

TESTS = pathlib.Path(__file__).parent
ROOT = TESTS.parent

TYPE = "data type"


class Route(NamedTuple):
    route: str
    # file::function
    reference: str
    # twkit name: TYPE, or the id of the test that pins it
    imports: dict
    tests: tuple


def ids(module, *names):
    """The test ids of names in tests/<module>.py."""
    return tuple("tests/%s.py::%s" % (module, name) for name in names)


def types(*names):
    return dict.fromkeys(names, TYPE)


# the tests that pin names more than one reference imports
ROW_REDUCE, MATMUL, DERIVED, COLUMNS, CANONICAL = ids(
    "test_exactla", "test_row_reduce_matches_dense_reference", "test_products_match_dense_reference",
    "test_derived_helpers_match_dense_reference", "test_columns_round_trip", "test_row_reduce_writes_canonical_values")
(TORSION_WIDTH,) = ids("test_decompose", "TestTables::test_torsion_width")
(MOD_A,) = ids("test_homology", "test_twobraids")

ROUTES = (
    Route("exactla: row reduction, rank, kernels, images, solves, products and subquotients",
          "tests/dense_la.py::dense_row_reduce",
          {},
          ids("test_exactla", "test_row_reduce_matches_dense_reference",
              "test_row_reduce_on_non_unit_pivots_matches_dense_reference", "test_derived_helpers_match_dense_reference",
              "test_products_match_dense_reference", "test_subquotient_matches_dense_reference")),
    Route("corpus.conjugate: g d g^-1", "tests/dense_la.py::dense_matmul",
          {},
          ids("test_graded_sparse", "test_conjugate_matches_dense_reference")),
    Route("validation of graded complexes: homogeneity and d^2 = 0",
          "tests/frozen_complexes.py::reference_validate",
          types("complexes.ComplexError"),
          ids("test_graded_sparse", "test_cubes_match_reference", "test_twobraids_match_reference",
              "test_corpus_matches_reference", "test_bad_complexes_give_the_same_errors",
              "test_hom_matrix_validate_matches_reference")),
    Route("validation of field complexes: degree or level rule and d^2 = 0",
          "tests/frozen_complexes.py::reference_field_validate",
          {**types("complexes.FilteredFieldComplex"), "exactla.matmul": MATMUL},
          ids("test_graded_sparse", "test_bad_field_complexes_give_the_reference_refusals")),
    Route("complexes.gaussian_eliminate and minimal_complex, the latter pair by pair",
          "tests/frozen_complexes.py::reference_eliminate_graded",
          {},
          ids("test_graded_sparse", "test_eliminate_graded_matches_reference",
              "test_eliminate_at_non_unit_pivots_matches_reference", "test_minimal_complex_on_the_link_ladder",
              "test_minimal_complex_on_twobraids", "test_minimal_complex_on_seeded_corpus_complexes")),
    Route("decompose: the pieces read off the persistence pairing",
          "tests/frozen_complexes.py::rational_split_pieces",
          {},
          ids("test_decompose", "test_torus_knots_split_as_the_rational_reference",
              "test_six_crossing_link_splits_as_the_rational_reference")
          + ids("test_graded_sparse", "test_cubes_match_reference", "test_twobraids_match_reference",
                "test_corpus_matches_reference")),
    Route("reduce_mod_a, homology_field and first_differential",
          "tests/frozen_homology.py::reference_first_differential",
          {
              **types("algebra.BigradedTable", "complexes.ComplexError", "complexes.FieldComplex",
                      "complexes.FieldHomologyBasis", "complexes.FilteredFieldComplex",
                      "complexes.FirstDifferential", "complexes.GradedComplex"),
              "exactla.row_reduce": ROW_REDUCE,
              # kernel_basis and solve are these two on a row_reduce
              "exactla.kernel_from_reduction": DERIVED,
              "exactla.solution_from_reduction": DERIVED,
              "exactla.columns": COLUMNS,
              "exactla.from_columns": COLUMNS,
              "exactla.matmul": MATMUL,
          },
          ids("test_frozen_homology", "test_link_ladder", "test_torus_knots", "test_twobraids", "test_corpus_complexes")
          + ids("test_homology", "test_link_ladder", "test_twobraids", "test_seeded_corpus_complexes",
                "test_hand_built_field_complexes")),
    Route("pages.generic_pages and generic_page_list", "tests/frozen_pages.py::rank_difference_pages",
          {"exactla.row_reduce": ROW_REDUCE},
          ids("test_pages", "TestGenericPagesAgainstReference::test_seeded_complexes",
              "TestGenericPagesAgainstReference::test_hand_built_complexes",
              "TestGenericPagesAgainstReference::test_order_of_queries_does_not_matter",
              "TestPairingAgainstRankDifferences::test_cube_rungs",
              "TestPairingAgainstRankDifferences::test_hand_built_complexes",
              "TestPairingAgainstRankDifferences::test_conjugated_corpus_complexes")),
    Route("pages.assembled_page_list and assembled_pages", "tests/frozen_pages.py::reference_page_by_page_list",
          types("algebra.GradedModuleDescriptor", "pages.PageTable"),
          ids("test_frozen_pages", "test_random_decompositions_match_frozen", "test_link_ladder_matches_frozen")
          + ids("test_pages", "TestAssembledPages::test_matches_frozen_merge_loop")
          + ids("test_frozen_twobraid", "test_assembled_page_list_matches_page_by_page")),
    Route("pages.piece_entries", "tests/frozen_pages.py::piece_pages",
          {},
          ids("test_pages", "TestPiecePages::test_matches_the_frozen_piece_pages")),
    Route("decompose.hn_table", "tests/frozen_pages.py::reference_hn_table",
          types("algebra.BigradedTable"),
          ids("test_frozen_pages", "test_random_decompositions_match_frozen", "test_link_ladder_matches_frozen")),
    Route("page sequences: pages documents, recover and the pages --generic count",
          "tests/frozen_pages.py::per_page_recover",
          {
              **types("decompose.Decomposition", "jsonio.SchemaError", "recover.InconsistentPages"),
              # the document checks the per-page reader went through
              "jsonio._check_header": "tests/test_jsonio.py::TestComplexDocuments::test_header_checked",
              "jsonio._array": "tests/test_jsonio.py::TestComplexDocuments::test_malformed_body",
              "jsonio._int": "tests/test_jsonio.py::TestComplexDocuments::test_malformed_body",
              # the closed-form sequence the count was read off
              "decompose.decompose": "tests/test_decompose.py::test_torus_knots_split_as_the_rational_reference",
              "decompose.torsion_width": TORSION_WIDTH,
              "pages.assembled_page_list": "tests/test_frozen_pages.py::test_random_decompositions_match_frozen",
          },
          ids("test_recover", "test_shared_tables_read_as_the_per_page_route")),
    Route("report text, JSON and table: jsonio.report_text and cli._render_report",
          "tests/frozen_report.py::reference_report",
          {
              **types("algebra.BigradedTable"),
              # the report's grids and its encoding, pinned by literal text
              **dict.fromkeys(("cli._render_decomposition", "cli.render_bigraded", "cli.render_page", "jsonio.dumps"),
                              "tests/test_report.py::test_report_without_torsion_reads_as_written"),
              "jsonio.page_to_data": "tests/test_jsonio.py::TestPageDocuments::test_hat_round_trip",
              "jsonio.page_from_json": "tests/test_jsonio.py::TestPageDocuments::test_hat_round_trip",
              "jsonio.decomposition_from_json": "tests/test_jsonio.py::TestDecompositionDocuments::test_round_trip",
          },
          ids("test_report", "test_twobraid_ladder_under_every_benchmark_coefficient",
              "test_twobraid_with_the_default_coefficient", "test_links", "test_report_without_torsion_reads_as_written",
              "test_pages_equal_or_not_to_the_last", "test_each_run_of_equal_pages_is_converted_and_rendered_once")),
    Route("couples.couple_from_decomposition and couple_tables",
          "tests/frozen_couples.py::couple_from_decomposition",
          {
              **types("couples.ExactCouple", "couples._Eliminations", "decompose.Decomposition"),
              "decompose.torsion_width": TORSION_WIDTH,
          },
          ids("test_couples", "TestModelCouple::test_one_piece_matches_the_frozen_builder",
              "TestShapeChains::test_match_the_frozen_document_chain", "TestShapeChains::test_one_memo_per_call")),
    Route("ExactCouple.derive and its exactness check", "tests/frozen_couples.py::reference_derive",
          types("couples.InsufficientWindow"),
          ids("test_couples", "TestDerivationAgainstReference::test_seeded_chains",
              "TestDerivationAgainstReference::test_chains_in_random_bases",
              "TestDerivationAgainstReference::test_chains_in_random_bases_at_corpus_sizes",
              "TestDerivationAgainstReference::test_hand_picked_decompositions",
              "TestDerivationAgainstReference::test_read_offs_survive_id_reuse_at_corpus_sizes",
              "TestExactnessErrors::test_defaults_are_exact", "TestExactnessErrors::test_each_check_raises",
              "TestExactnessErrors::test_maps_with_empty_first_rows")),
    Route("links.build_sl2_cube", "tests/frozen_cube.py::reference_sl2_cube",
          {
              **types("algebra.GradedRing", "complexes.ComplexError", "complexes.GradedComplex"),
              "exactla.canonical": CANONICAL,
          },
          ids("test_cube_builder", "test_rows_match_the_frozen_builder", "test_torus_knots_match_the_frozen_builder",
              "test_invalid_pd_message_matches")),
    Route("links.build_twobraid: the powers of x2", "tests/frozen_twobraid.py::reference_x_powers",
          {
              "exactla.canonical": CANONICAL,
              "exactla.matmul": MATMUL,
              "links._x_power_relation": "tests/test_integral_form.py::test_dp_relation_matches_hand_formulas",
          },
          ids("test_frozen_twobraid", "test_x_power_matches_repeated_products")),
    Route("links.delta_battery", "tests/frozen_twobraid.py::reference_delta_battery",
          {
              **types("complexes.ComplexError", "links.DeltaBattery", "links.TwoBraidSpec"),
              "links.build_twobraid": "tests/test_links.py::TestTwoBraid::test_homology_tables",
              "complexes.reduce_mod_a": MOD_A,
              "complexes.first_differential": MOD_A,
          },
          ids("test_frozen_twobraid", "test_battery_matches_first_differential_per_complex",
              "test_doctored_deltas_fail_their_verdicts")),
)


def frozen_modules():
    """Every module a reference may live in."""
    return sorted([TESTS / "dense_la.py"] + list(TESTS.glob("frozen_*.py")))


def twkit_names(source):
    """The twkit names a module's source imports, as 'module.name':
    from-imports by name, and for an imported twkit module every
    attribute read off it."""
    tree = ast.parse(source)
    names, modules = set(), {}
    for node in ast.walk(tree):
        assert not isinstance(node, ast.Import) or all(a.name.split(".")[0] != "twkit" for a in node.names)
        if isinstance(node, ast.ImportFrom) and node.module == "twkit":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("twkit."):
            names.update("%s.%s" % (node.module[len("twkit."):], a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add("%s.%s" % (modules[node.value.id], node.attr))
    return names


def resolve(name):
    module, attr = name.rsplit(".", 1)
    return getattr(importlib.import_module("twkit." + module), attr)


def cited_ids():
    """Every test id the table names."""
    return {i for route in ROUTES for i in route.tests + tuple(v for v in route.imports.values() if v != TYPE)}


def test_every_reference_module_has_a_row_and_every_reference_exists():
    rows = {route.reference.split("::")[0] for route in ROUTES}
    assert rows == {str(path.relative_to(ROOT)) for path in frozen_modules()}
    for route in ROUTES:
        path, function = route.reference.split("::")
        tree = ast.parse((ROOT / path).read_text())
        assert function in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}, route.reference


def test_references_import_exactly_the_listed_names():
    listed = {}
    for route in ROUTES:
        listed.setdefault(route.reference.split("::")[0], {}).update(route.imports)
    for path in frozen_modules():
        names = listed[str(path.relative_to(ROOT))]
        assert twkit_names(path.read_text()) == set(names), path.name
        for name, reason in names.items():
            if reason == TYPE:
                assert isinstance(resolve(name), type), name
            else:
                # the test that pins it, as a test id
                assert callable(resolve(name)) and re.fullmatch(r"tests/test_\w+\.py::[\w:]+", reason), name


def test_every_import_form_is_read():
    source = "from twkit.pages import PageTable as P\nfrom twkit import exactla\nexactla.matmul(exactla.rank(a), P)"
    assert twkit_names(source) == {"pages.PageTable", "exactla.matmul", "exactla.rank"}
    with pytest.raises(AssertionError):
        twkit_names("import twkit.exactla")


def test_no_test_module_holds_a_reference():
    """A reference defined in a test module would be a second one, out
    of the table's reach."""
    for path in sorted(TESTS.glob("test_*.py")):
        tree = ast.parse(path.read_text())
        defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert not {name for name in defined if name.startswith("reference_")}, path.name


def test_every_listed_test_is_collected():
    files = sorted({test_id.split("::")[0] for test_id in cited_ids()})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files]
    out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True).stdout
    collected = {line.split("[")[0] for line in out.splitlines() if "::" in line}
    assert cited_ids() <= collected, sorted(cited_ids() - collected)
