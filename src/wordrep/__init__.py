"""Word-representable graphs at desk scale: decisions, numbers, certificates."""

from .characterizer import (
    Caps,
    Status,
    Verdict,
    classify,
    module_comparability_test,
    nonwr_screen,
    verify,
)
from .errors import CapExceeded, DomainError
from .graphs import (
    Graph,
    complement,
    connected_components,
    induced_subgraph,
    is_connected,
    make_graph,
    neighborhood,
    set_adjacency,
)
from .modular import (
    ModularPartition,
    all_modules,
    induced_block_graphs,
    is_module,
    lex_product,
    maximal_modular_partition,
    quotient,
    reconstruct,
    substitute,
)
from .orientations import (
    Orientation,
    Poset,
    exists_semi_transitive_orientation,
    find_transitive_orientation,
    is_semi_transitive,
    is_transitive,
    make_poset,
    minimum_realizer,
    orient,
    poset_dimension,
    poset_of,
)
from .representation import (
    Representation,
    compose_product,
    exists_word,
    prn,
    product_certificates,
    rep_number,
    representing_words,
    uniformize,
)
from .words import (
    UniformityProfile,
    alternate,
    alternation_graph,
    concat_permutations,
    project,
    represents,
    uniformity,
    word_from_text,
    word_to_text,
)

__version__ = "0.1.0"
