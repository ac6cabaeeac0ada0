"""ramcat: a finite Ramsey-category toolkit.

Decorated parameter words and their substitution algebra, rigid surjections
between finite chains, finite category fragments with exhaustive law
checking, a Ramsey-arrow decision engine, pre-adjunction construction and
verification, and a Tukey-reducibility toolkit for preorders.
"""

from .errors import BudgetExceeded, RamcatError, ResourceBound, ValidationError
from .groups import (
    FiniteGroup,
    RightAction,
    action_from_dict,
    cyclic_group,
    cycle_action,
    make_action,
    trivial_action,
    trivial_group,
    validate_action,
    validate_group,
)
from .words import (
    DecoratedWord,
    WordContext,
    enumerate_words,
    format_word,
    identity_word,
    parse_word,
    plain_context,
    substitute,
    validate_word,
)
from .surjections import (
    RigidSurjection,
    compose_rigid,
    dual,
    enumerate_rsurj,
    identity_rigid,
    rsurj_to_word,
    validate_rigid,
    word_to_rsurj,
)
from .category import (
    CategoryFragment,
    Morphism,
    check_fragment_isomorphism,
    dram_fragment,
    dram_op_fragment,
    dramop_word_functor,
    explicit_fragment,
    fragment_equal,
    fragment_from_spec,
    gr_fragment,
    opposite,
    ram_fragment,
    skeleton,
    structural_checks,
    thin_from_preorder,
    validate_fragment,
    vec_fragment,
)
from .arrows import (
    ArrowVerdict,
    Coloring,
    certify_bad_coloring,
    check_arrow_exhaustive,
    exhaustive_coloring,
    find_bad_coloring,
    min_ramsey_witness,
    search_coloring,
)
from .preadjunction import (
    PA_NAMES,
    PAReport,
    PreAdjunction,
    build_nonthin_sequence,
    check_card_inequality,
    compose_pa,
    expand_witnesses,
    identity_pa,
    named_pa,
    pa_from_monotone_tukey,
    pa_gr_decorated_to_plain,
    pa_gr_plain_to_decorated,
    pa_gr_to_dramop,
    pa_omega_to_nonthin,
    pa_ram_to_dramop,
    recheck_failures,
    verify_pa,
)
from .tukey import (
    FinitePreorder,
    GeneratedPreorder,
    MonotonizationTrace,
    antichain_preorder,
    chain_preorder,
    cofinal_companion,
    is_cofinal_map,
    is_tukey_map,
    monotonize,
    omega,
    omega_squared,
    preorder_from_pairs,
    preorder_predicates,
    validate_preorder,
    verify_trace,
)

__version__ = "0.1.0"
