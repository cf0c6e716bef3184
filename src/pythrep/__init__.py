"""Tree diagrams for Thompson's group F and their Pythagorean
unitary representations on a limit Hilbert space."""

from .words import (
    CantorPoint,
    InputSyntaxError,
    IntervalUnion,
    concat,
    disjoint,
    is_prefix,
    is_sdp,
    kraft_sum,
    word_to_interval,
)
from .forests import (
    Forest,
    Tree,
    common_refinement,
    compose,
    random_tree,
    tensor,
)
from .thompson import (
    ElementSyntaxError,
    ThompsonElement,
    generator,
    parse_element,
    random_element,
    vine_element,
    vine_on_cells,
)
from .pythagorean import (
    DiffuseVerdict,
    PythagoreanPair,
    diffuse_certificate,
    leaf_decorations,
    pair_from_json,
    pair_to_json,
    phi,
    random_pair,
    scalar_pair,
    spectral_radius,
    word_operator,
)
from .limitspace import (
    LimitVector,
    parse_limit_vector,
    rho,
    rho_union,
    tau,
    tau_star,
)
from .rep import (
    CHARACTER_SIGN,
    CoefficientTable,
    act,
    act_via_isometries,
    act_via_stabilizers,
    character_check,
    coefficient,
    coefficient_cyclic,
    covariance_check,
    ergodic_average,
    ergodic_defect,
    fit_koopman_twist,
    fixed_vector_test,
    gram_average_norm,
    koopman_coefficient,
    mixing_scan,
)

__version__ = "0.1.0"
