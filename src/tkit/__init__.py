"""Local analysis of a graph's Terwilliger algebra at a base vertex.

The exact side counts walks by shape and decides two rational-ratio fits;
the numeric side decomposes the vertex space into irreducible invariant
subspaces. The two must agree, and the scan tooling verifies that they do
on whole corpora.
"""
from .graphs import (Graph, GraphError, LocalMetric, DistancePartition,
                     StructureReport, make_graph, parse_edge_list,
                     parse_graph6, to_graph6, local_metric, distance_partition,
                     structure_report, connected_graphs, generate_connected_graph6)
from .exact import (LocalOperators, LinearSolution, build_operators,
                    enumerate_walks, walk_counts_from, raising_powers,
                    solve_linear, shape_string, SHAPE_FAMILIES)
from .regularity import (PdrProfile, Endpoint1Profile, LevelFit, NotApplicable,
                         fit_pdr, fit_endpoint1)
from .decompose import (Subspace, ModuleSummary, DecompositionReport,
                        AlgebraicVerdict, DecompositionError, decompose,
                        algebraic_verdict, commutant_basis, dual_block_dims,
                        PASS, FAIL, VACUOUS, NOT_APPLICABLE)
from .constructions import (example_graph, empty_graph, complete_graph,
                            path_graph, cycle_graph, star_graph,
                            petersen_graph, rook_graph_3x3, cartesian_product,
                            apex_extension, ApexResult, predicted_profile,
                            PredictedScalars, is_distance_regular_around)
from .report import (AnalysisReport, analyze, report_to_dict, report_to_json,
                     MISMATCH, AGREE_PASS, AGREE_FAIL, AGREE_VACUOUS, AGREE_NA)
from .scan import ScanSummary, scan_corpus, scan_graph

__version__ = "0.1.0"
