"""Equivalence certification for compiled classifiers.

``repro.analysis.equiv`` statically certifies that a
:class:`~repro.engine.classifier.CompiledClassifier` (flow cache v2) is
equivalent to the scalar pipeline walk over the *installed* tables at
the same tenant epoch (``pipeline.epoch_of(vid)``) — exact keys and
first-match order re-derived from the entries, symbolic action
equivalence, and counterexample synthesis — with zero traffic. See :mod:`.certify` for
the obligation catalog, :mod:`.symbolic` for the abstract replay, and
:mod:`.mutate` for the seeded corruption harness that keeps the
certifier honest.

Layering note: unlike the rest of :mod:`repro.analysis`, this
subpackage deliberately imports :mod:`repro.engine` — its whole subject
is the engine's compiled artifact. The dependency is one-way; the
engine only reaches back lazily (``BatchEngine(check_compiled=...)``)
so that importing the engine never drags the analysis layer in.
"""

from .certify import (
    CERTIFICATE_SCHEMA_VERSION,
    OBLIGATIONS,
    Certificate,
    Counterexample,
    Obligation,
    certify_classifier,
)
from .mutate import MUTATIONS, apply_mutation, clone_classifier
from .symbolic import (
    Effect,
    compiled_effect,
    reference_effect,
    reference_fallback_reason,
)

__all__ = [
    "CERTIFICATE_SCHEMA_VERSION",
    "Certificate",
    "Counterexample",
    "Effect",
    "MUTATIONS",
    "OBLIGATIONS",
    "Obligation",
    "apply_mutation",
    "certify_classifier",
    "clone_classifier",
    "compiled_effect",
    "reference_effect",
    "reference_fallback_reason",
]
