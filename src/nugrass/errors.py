"""Exception hierarchy for the kernel."""


class NuGrassError(Exception):
    """Base class for all kernel errors."""


class ContextMismatch(NuGrassError):
    """Operands live over different generator contexts."""


class UnknownVariable(NuGrassError):
    """A derivative or substitution names an undeclared generator."""


class NameClash(NuGrassError):
    """A new generator name collides with an existing one."""


class ZeroBody(NuGrassError):
    """Inversion of an element whose body vanishes."""


class NoOddGenerators(NuGrassError):
    """The odd involution needs at least one odd generator."""


class DoubleNu(NuGrassError):
    """A product term pairs two formal odd-unit symbols."""


class NuEntriesPresent(NuGrassError):
    """Matrix inversion requires all entries to be plain elements."""


class NotInvertible(NuGrassError):
    """The body of a square matrix has zero determinant."""


class ResidualNuSymbol(NuGrassError):
    """A formal odd unit survives in a column the divider move did not touch."""


class UncoveredCase(NuGrassError):
    """No symbolic pasting formula covers this chart pair."""


class GenericallySingular(NuGrassError):
    """The pasting minor has identically zero body determinant."""


class MinorNotInvertible(NuGrassError):
    """The evaluated minor is singular at this point (outside the overlap)."""


class OverlapNotSampled(NuGrassError):
    """Every draw of a sampling loop fell outside the set being sampled."""


class NoChartFound(NuGrassError):
    """No chart admits the acted point (should not occur for valid inputs)."""


class RankDeficient(NuGrassError):
    """A base-point block is not of full row rank."""


class InhomogeneousInput(NuGrassError):
    """An operation demanded a parity-homogeneous element."""
