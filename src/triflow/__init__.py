"""Single-link-failure protection for unicast connections.

Split user data into halves A and B, route A, B and A xor B on three pairwise
arc-disjoint subflow DAGs, and any single edge failure still delivers two of
the three streams: the destination decodes instantly, with coding only at the
endpoints plus duplicate/select relays inside the network.
"""

from .conditioning import (CodingNetwork, ConditionedNetwork, Feasibility,
                           FeasibilityKind, Network, classify_feasibility,
                           condition_network, derive_coding_capacities)
from .cutchain import CutChain, CutKind, build_cut_chain
from .decompose import SegmentType, assign_roles, build_auxiliary, decompose
from .graph import Digraph, FlowResult, cancel_cycles, max_flow
from .netgen import GenParams, Structure, generate
from .plan import LABELS, Arc, NodeRole, RecoveryPlan, Role, VerificationReport
from .simulate import (DeliveryOutcome, Generation, decode, encode,
                       failure_sweep, simulate_transmission)
from .verify import survivability_by_removal, verify_plan
from . import errors

__all__ = [
    "Arc", "CodingNetwork", "ConditionedNetwork", "CutChain", "CutKind",
    "DeliveryOutcome", "Digraph", "Feasibility", "FeasibilityKind", "FlowResult",
    "GenParams", "Generation", "LABELS", "Network", "NodeRole", "RecoveryPlan",
    "Role", "SegmentType", "Structure", "VerificationReport", "assign_roles",
    "build_auxiliary", "build_cut_chain", "cancel_cycles", "classify_feasibility",
    "condition_network", "decode", "decompose", "derive_coding_capacities",
    "encode", "errors", "failure_sweep", "generate", "max_flow",
    "simulate_transmission", "survivability_by_removal", "verify_plan",
]
