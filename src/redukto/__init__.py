"""Restarting-automaton workbench.

A library and CLI for two-way restarting automata with a lexical morphism:
exact cycle semantics, deciders for the input, basic and h-proper languages,
bounded verifiers for monotonicity (decided at every length for
deterministic automata without left moves that rewrite once per cycle),
cycle discipline, preservation and shrinking properties, the
grammar-to-contextual-automaton pipeline, the shrinking transform, and a
catalog of stock automata and grammars.
"""

from .model import (
    ACCEPT,
    LEFT_SENTINEL,
    MVL,
    MVR,
    REJECT,
    RESTART,
    RIGHT_SENTINEL,
    SL,
    AutomatonSpec,
    ClassFlags,
    GnfGrammar,
    GnfRule,
    Instruction,
    PreconditionError,
    ReduktoError,
    SymbolError,
    Word,
    apply_morphism,
    classify_automaton,
    classify_rewrite,
    contextual_deletions,
    project,
    word_weight,
)
from .engine import (
    DEFAULT_LIMITS,
    Configuration,
    CycleRecord,
    Decision,
    Limits,
    ResourcesExceeded,
    Trace,
    cycle_rewrites,
    decide_basic_membership,
    decide_input_membership,
    decide_members,
    replay_trace,
    right_distance,
    run_deterministic,
    successors,
    walk_branches,
)
from .languages import (
    LanguageQuery,
    compare_languages,
    compare_with_oracle,
    decide_hproper_membership,
    enumerate_basic_by_reduction,
    enumerate_language,
    words_over,
)
from .checks import (
    CheckReport,
    check_cycle_soundness,
    check_determinism,
    check_monotone,
    check_preservation,
    check_shrinking,
)
from .construct import (
    DerivationAlphabet,
    SynthesisError,
    SynthesisReport,
    build_hrrwwc,
    derivation_check,
    derivation_encode,
    dga,
    enumerate_grammar_words,
    synthesize_reduction_system,
    to_shrinking,
)
from .catalog import CatalogEntry, CatalogError, catalog_get, catalog_list
from .fileformat import (
    ParseError,
    parse_automaton,
    parse_grammar,
    render_automaton,
    render_grammar,
)

__version__ = "0.1.0"
