"""Decision procedure for Goedel-Loeb provability logic (GL).

Given a modal formula, either produce a machine-checkable derivation in the
labelled sequent calculus G3KGL, or a finite irreflexive-transitive Kripke
countermodel validated by an independent semantic evaluator.  The axiomatic
calculus ships as checkable proof objects, and the standard-model
construction from maximal consistent lists, which decides consistency by
eliminating Hintikka types with no proof search, provides a second,
independent countermodel route.
"""

from .bisimulation import is_bisimulation, largest_bisimulation
from .errors import BudgetExceededError, InternalCheckError
from .henkin import (
    StandardModel, build_standard_model, consistent, extend_maximal_consistent,
    gl_standard_rel, is_maximal_consistent, truth_lemma_check,
)
from .hilbert import (
    AXIOM_SCHEMAS, AxiomStep, HilbertProof, MPStep, NecStep,
    axiom_instance_proof, check_proof, check_proof_detailed, conjlist,
    imp_refl_proof, instantiate, match_axiom, matches_schema,
    proof_from_json, proof_to_json, verum_proof,
)
from .semantics import (
    Falsified, Frame, Model, UnknownWorldError, ValidUpTo, Verdict,
    enumerate_frames, enumerate_itf_frames, frame_valid, holds,
    is_itf, is_transnt_finite, make_model, model_from_json, model_to_dot,
    model_to_json, oracle_valid, truth_sets,
)
from .derivation import (
    Derivation, SequentState, check_derivation, derivation_error,
    derivation_from_json, derivation_to_dot, derivation_to_json, derivation_to_text,
)
from .sequent import Proved, Refuted, SearchResult, extract_countermodel, search
from .syntax import (
    And, Atom, Box, Diam, FALSE, Falsum, Formula, Iff, Imp, Not, Or,
    ParseError, TRUE, Verum, atoms, modal_depth, parse, pretty, sort_key,
    subformulas, subsentences,
)

__version__ = "0.1.0"
