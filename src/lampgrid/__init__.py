"""Exact computations in a lamplighter-style group on a rhombic grid.

The package models the group generated by a button press ``a`` and two
commuting translations ``s``, ``t``, where pressing off the lampstand
splits into the toggles forced by ``a^s = a a^t``.  On top of the state
model it provides geodesic witness words, a half-plane formula for word
length, ball enumeration, and dead-end depth certificates.
"""

from .core import (
    Element,
    element_from_json,
    element_to_json,
    identity,
    inverse,
    is_lampstand,
    multiply,
    press_effect,
)
from .metric import (
    DepthCertificate,
    MemoryCapExceeded,
    RadiusExceeded,
    ball_with_depths,
    certify_depth,
    exact_distance,
    halfplane_bound,
    hex_param,
    in_hex,
    make_gn,
    search_distance,
    sphere_sizes,
    tour_lower_bound,
    witness_word,
)
from .words import (
    METRIC,
    PRESENTATION,
    Letter,
    Word,
    WordError,
    a_length,
    concat,
    evaluate,
    format_word,
    inverse_word,
    move_elements,
    parse,
    random_element,
)

__all__ = [
    "DepthCertificate",
    "Element",
    "Letter",
    "MemoryCapExceeded",
    "METRIC",
    "PRESENTATION",
    "RadiusExceeded",
    "Word",
    "WordError",
    "a_length",
    "ball_with_depths",
    "certify_depth",
    "concat",
    "element_from_json",
    "element_to_json",
    "evaluate",
    "exact_distance",
    "format_word",
    "halfplane_bound",
    "hex_param",
    "identity",
    "in_hex",
    "inverse",
    "inverse_word",
    "is_lampstand",
    "make_gn",
    "move_elements",
    "multiply",
    "parse",
    "press_effect",
    "random_element",
    "search_distance",
    "sphere_sizes",
    "tour_lower_bound",
    "witness_word",
]
