"""felicity: a finite-model pragmatics engine.

Evaluates quantified logical forms over bounded finite models, derives
scalar alternatives and implicatures, and predicts felicity or oddness of
sentences in context under five competing theories.
"""

from .logic import DEFAULT_BOUND, Model, consistent, entails, enumerate_models, evaluate
from .syntax import (
    ALL,
    AndConc,
    AndLF,
    AndSeq,
    Atom,
    DeclarationError,
    FelicityError,
    LogicalForm,
    MOST,
    NO,
    NotLF,
    NotP,
    Only,
    OrLF,
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
    expand_qi,
)
from .scales import Scale, ScaleRegistry, default_registry
from .context import (
    ContextState,
    InconsistentContextError,
    UpdateContradictionError,
    Verdict,
    contextually_entails,
    continuation_felicity,
    k_holds,
    p_holds,
    settled_by_discourse,
    update_discourse,
)
from .alternatives import (
    Alternative,
    AlternativeSet,
    PresupVariant,
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
    bound_complete,
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
