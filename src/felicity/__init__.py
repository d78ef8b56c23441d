"""felicity: a finite-model pragmatics engine.

Evaluates quantified logical forms over bounded finite models, derives
scalar alternatives and implicatures, and predicts felicity or oddness of
sentences in context under five competing theories.
"""

from .logic import (
    ALL,
    AndConc,
    AndLF,
    AndSeq,
    Atom,
    DeclarationError,
    DEFAULT_BOUND,
    EpistemicContextRequired,
    FelicityError,
    Know,
    LogicalForm,
    Model,
    MOST,
    NO,
    NotLF,
    NotP,
    Only,
    OrLF,
    Poss,
    PredExpr,
    PredicateSym,
    QI,
    Quant,
    Quantifier,
    ResourceBudgetError,
    ScaleError,
    SOME,
    TRUE,
    TruePred,
    WellFormednessError,
    consistent,
    entails,
    enumerate_models,
    eval_pexpr,
    evaluate,
    expand_qi,
    is_intersective_conjunction,
)
from .scales import Scale, ScaleRegistry, default_registry
from .context import (
    ContextState,
    InconsistentContextError,
    UnsupportedNestingError,
    UpdateContradictionError,
    Verdict,
    WorldSet,
    contextually_entails,
    continuation_felicity,
    k_holds,
    p_holds,
    settled_by_discourse,
    update_discourse,
    worlds,
)
from .alternatives import (
    Alternative,
    AlternativeSet,
    Presup,
    PresupVariant,
    PresuppositionUndefinedError,
    Tag,
    disjunction_ignorance,
    exh,
    presup_strictly_stronger,
    presupposition,
    prune_settled,
    substitution_alternatives,
)
from .judge import (
    Judgment,
    Mechanism,
    Reading,
    TheoryVerdict,
    TraceStep,
    analyze_reading,
    judge,
    predict_del_pinal,
    predict_indirect_contradiction,
    predict_logical_integrity,
    predict_magri_blind,
    predict_presupposed_ignorance,
    replay_step,
)
from .dsl import (
    Scenario,
    ScenarioError,
    THEORY_NAMES,
    parse_lf,
    parse_pexpr,
    parse_scenario,
    render_lf,
    render_pexpr,
)
from .sexpr import ParseError
from .report import (
    Report,
    build_report,
    render_report,
    render_traces,
    report_from_dict,
    report_to_dict,
)

__version__ = "0.1.0"
