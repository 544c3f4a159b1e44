"""Exception hierarchy shared by all posetzeta modules.

ResourceCapExceeded subclasses map to CLI exit code 4, InvalidConfig to 2,
everything else under PosetZetaError to 3.
"""


class PosetZetaError(Exception):
    pass


class InvalidConfig(PosetZetaError):
    pass


class ResourceCapExceeded(PosetZetaError):
    pass


class DuplicateLabel(InvalidConfig):
    pass


class UnknownLabel(InvalidConfig):
    pass


class CycleDetected(InvalidConfig):
    pass


class EmptyPoset(InvalidConfig):
    pass


class SubdivisionTooLarge(ResourceCapExceeded):
    pass


class PoleAtOrigin(PosetZetaError):
    pass


class DivergentAtInfinity(PosetZetaError):
    pass


class IndexOutOfRange(PosetZetaError):
    pass


class BruteForceTooLarge(ResourceCapExceeded):
    pass


class DimensionZero(PosetZetaError):
    pass


class DegreeZero(PosetZetaError):
    pass


class NoConvergence(PosetZetaError):
    pass


class ZeroEulerCharacteristic(PosetZetaError):
    pass


# chi = 0, under the name the P_n growth records raise it by.
ChiZero = ZeroEulerCharacteristic


class RangeTooLarge(ResourceCapExceeded):
    pass
