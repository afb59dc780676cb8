"""pairpath: path-pairable graphs as engineering artifacts.

Construct blown even cycles whose diameter grows like the square root of
their order yet still admit edge-disjoint joining paths for every pairing of
their vertices; route such pairings with a deterministic two-phase algorithm;
verify the plans independently; decide path-pairability of small graphs
exhaustively; and screen arbitrary graphs against necessary conditions.
"""
from . import formats
from .blowup import BlownCycle, BlowupError, build
from .graph import Graph, GraphError, diameter, generate, make_graph
from .pairability import (ScreenReport, ScreenViolation, Verdict,
                          is_path_pairable, screen)
from .routing import (Pairing, PairingError, RoutePlan, RoutingError,
                      make_pairing, random_perfect_pairing, route)
from .verify import VerificationReport, Violation, verify_plan

__version__ = "0.1.0"

__all__ = [
    "BlownCycle", "BlowupError", "build",
    "Graph", "GraphError", "diameter", "generate", "make_graph",
    "Pairing", "PairingError", "RoutePlan", "RoutingError", "make_pairing",
    "random_perfect_pairing", "route",
    "VerificationReport", "Violation", "verify_plan",
    "Verdict", "is_path_pairable",
    "ScreenReport", "ScreenViolation", "screen",
    "formats",
    "__version__",
]
