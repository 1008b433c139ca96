"""fdek: a workbench for four-valued (Belnapian) modal logic.

Formulas over negation, conjunction, disjunction, and two modalities (the
same-value-everywhere operator ``#`` and necessity ``[]``) are evaluated on
Kripke models carrying independent support-of-truth and support-of-falsity
valuations.  The package provides a labelled analytic-cut prover for the
``#``-fragment with countermodel extraction, plus exhaustive bounded
oracles for small-model search, frame-class definability, and expressivity
experiments.
"""

from .syntax import (
    Atom, And, Box, Formula, Not, Or, ParseError, Sequent, Tri,
    parse_formula, parse_sequent, render, render_sequent, subformulas,
    variables, LANG_BOX, LANG_TRI,
)
from .semantics import (
    BoundExceededError, Evaluator, FourValue, Frame, Model, ModelError,
    PointedModel, UnknownWorldError, dual_model, eval_formula,
    frame_from_dict, frame_property, frame_to_dict, model_from_dict,
    model_to_dict, sequent_holds,
)
from .tableau import (
    Branch, Labelled, LanguageError, Proved, RealisationError, Refuted,
    RelAtom, TableauResult, Val, bar, check_realisation, extract_countermodel,
    neg, prove, saturation_step,
)
from .analysis import (
    PAPER_FRAME_CLASSES, check_definability, check_indistinguishability,
    enumerate_formulas, find_countermodel, formula_valid_on_frame,
    model_from_indices, sequent_valid_on_frame,
)

__version__ = "0.1.0"
