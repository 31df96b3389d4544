"""Exception types shared across the package."""


class TriflowError(Exception):
    """Base class for all domain errors."""


class UnknownNode(TriflowError):
    def __init__(self, node):
        super().__init__(f"unknown node: {node!r}")
        self.node = node


class NotMaximum(TriflowError):
    """The supplied flow still admits a residual source-target path."""


class InsufficientPaths(TriflowError):
    """Fewer arc-disjoint paths exist than requested."""

    def __init__(self, found, wanted):
        super().__init__(f"only {found} arc-disjoint paths exist, wanted {wanted}")
        self.found = found
        self.wanted = wanted


class NotNetworkCodingClass(TriflowError):
    """Operation requires a network whose reduced max flow is exactly 3."""


class MalformedCut(TriflowError):
    """A minimum cut is neither a 2-edge-cut nor a 3-arc-cut."""


class BrokenChain(TriflowError):
    """Internal consistency failure while building the minimum-cut chain."""


class SegmentInfeasible(TriflowError):
    """A segment does not admit its local construction (upstream bug)."""


class GlueMismatch(TriflowError):
    """Boundary arc usage of adjacent segment solutions cannot be matched."""


class Unprotectable(TriflowError):
    """The network admits no single-failure protection of two data parts."""

    def __init__(self, feasibility):
        super().__init__(f"network is not protectable: {feasibility.kind.name}")
        self.feasibility = feasibility


class VerificationFailed(TriflowError):
    """A freshly built plan failed the internal verification gate."""

    def __init__(self, report):
        super().__init__("internal verification gate rejected the plan")
        self.report = report


class LengthMismatch(TriflowError):
    """Payload halves must have equal length."""


class InsufficientLabels(TriflowError):
    """Decoding needs at least two distinct subflow labels."""


class PlanReferenceError(TriflowError):
    """A plan references edges or copies absent from the network."""


class GenerationFailed(TriflowError):
    """The generator could not hit the requested feasibility class."""
