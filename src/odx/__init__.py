"""odx: hedge/consumption decompositions on finite event trees.

Builds market models on event trees, constructs strictly positive
martingale deflators (numeraire and product form), tests the
universal-supermartingale property, extracts the hedge process H and
consumption process C of V = V(0) + sum <H, dX> - C, and prices
superhedges of claims.  A Monte Carlo backend covers Euler-discretized
diffusions.
"""
from .tree import (AdaptedProcess, ArbitrageError, EventTree, ModelError,
                   PredictableProcess, SolverError, build_tree)
from .structure import (Characteristics, StructureReport,
                        extract_characteristics, solve_structure)
from .deflators import (DeflatorFamily, build_deflator_family,
                        numeraire_portfolio, orthogonal_jump_martingale,
                        stochastic_exponential)
from .decompose import (Decomposition, MarketLP, SupermartingaleCertificate,
                        check_uniqueness, decompose_kw, decompose_lp,
                        is_supermartingale_under_all, reconstruct)
from .superhedge import (Claim, PortfolioView, SuperhedgeResult,
                         snell_envelope, superhedge, vanilla_claim)

__all__ = [
    "AdaptedProcess", "ArbitrageError", "EventTree", "ModelError",
    "PredictableProcess", "SolverError", "build_tree",
    "Characteristics", "StructureReport", "extract_characteristics",
    "solve_structure",
    "DeflatorFamily", "build_deflator_family", "numeraire_portfolio",
    "orthogonal_jump_martingale", "stochastic_exponential",
    "Decomposition", "MarketLP", "SupermartingaleCertificate",
    "check_uniqueness", "decompose_kw", "decompose_lp",
    "is_supermartingale_under_all", "reconstruct",
    "Claim", "PortfolioView", "SuperhedgeResult", "snell_envelope",
    "superhedge", "vanilla_claim",
]

__version__ = "0.1.0"
