"""Markov loop soups on finite graphs.

Loop measures, Poisson loop soups (discrete and continuous time), bridge
measures, excursion decompositions, and a verification engine that checks
the conditional resampling laws both by exact rational enumeration and by
Monte Carlo against independent oracles.
"""

from .graph import (Domain, Edge, GraphError, GreenMatrix, Involution,
                    OrientedMultigraph, RecurrentDomainError, UnorientedGraph,
                    build_graph, complete_graph, cycle_graph, green_function,
                    grid_graph, pair_reversals, parse_graph_file, path_graph,
                    regularize_degree, write_graph_file)
from .loops import (LoopCatalog, LoopClass, canonicalize_oriented,
                    canonicalize_unoriented, enumerate_loops, rho_mass,
                    tail_bound)
from .soups import FieldSampler, sample_oriented_soup, sample_unoriented_soup
from .bridges import (Bridge, UnorderedBridgeFamily, ZBridgeFamily,
                      enumerate_bridges, sample_bridge, sample_unordered_bridge,
                      sample_z_bridge)
from .excursions import (CrossingSet, EdgeJumpRecord, ExcursionDecomposition,
                         reassemble)
from .exact import occupation_law, tv_distance
from .gff import sample_gff
from .wilson import pop_cycles, wilson_ust
from .verify import (TestReport, verify_ct_excursions, verify_lejan,
                     verify_occupation_markov, verify_prop1,
                     verify_prop1bis_3bis, verify_prop2, verify_prop5,
                     verify_random_currents, verify_wilson)
from .rng import stream

__version__ = "0.1.0"
