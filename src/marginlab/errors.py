"""Exception types shared across the library.

Every error raised by the public API derives from MarginlabError so callers
can catch library failures as one family while still matching the precise
condition by class.
"""

from __future__ import annotations


class MarginlabError(Exception):
    """Base class for all marginlab errors."""


# --- expressions ---------------------------------------------------------


class ExpressionError(MarginlabError):
    """Base class for expression parsing/evaluation failures."""


class ExprSyntaxError(ExpressionError):
    """Malformed expression text; carries the offending column (0-based)."""

    def __init__(self, message: str, col: int):
        super().__init__(f"{message} (column {col})")
        self.col = col


class UnknownVariable(ExpressionError):
    """Expression references a variable the grid does not provide."""


class NonFiniteExpression(ExpressionError):
    """Expression produced NaN or an infinity at a grid node."""


# --- grids and functions --------------------------------------------------


class GridMismatch(MarginlabError):
    """Two objects that must share grid geometry do not."""


class InvalidArgument(MarginlabError, ValueError):
    """A malformed library argument: point rows with over two axes, entries
    that are no numbers or not finite, a bad eps, axis, grid or refinement
    factor, or lengths that disagree (a wrong row width is a DimensionMismatch).
    It is also a ValueError, so callers that catch ValueError still catch it."""


class DimensionMismatch(MarginlabError):
    """Dimension counts disagree (constraints vs. axes, duals vs. primal)."""


class UnsupportedShape(MarginlabError):
    """Fast path asked for an input shape it cannot handle."""


class UnsupportedDimension(MarginlabError):
    """Operation limited to low dimension was asked for a higher one."""


class NotANode(MarginlabError):
    """A point expected to coincide with a grid node does not."""


class NotFiniteAtPoint(MarginlabError):
    """Function value at the requested node is not finite."""


class PointNotInSet(MarginlabError):
    """Base point of a normal cone is not a member of the point set."""


class HypothesisNotMet(MarginlabError):
    """A theorem hypothesis fails, so the check is skipped rather than failed."""


class NotNodePreserving(MarginlabError):
    """Linear map does not send grid nodes onto grid nodes."""


class ZeroNotOnGrid(MarginlabError):
    """The primal origin x = 0 is required to be a grid node but is not."""


class GridNotAdapted(MarginlabError):
    """The x-grid cannot be adapted to the constraint values g(y-node)."""


# --- problem spec files ----------------------------------------------------


class SpecError(MarginlabError):
    """Base class for problem-spec file errors."""


class SpecSyntaxError(SpecError):
    """Syntax error in a problem spec; carries line and column (1-based)."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class UnknownKey(SpecError):
    """Unrecognized key in a problem spec or task option block."""


class MissingSection(SpecError):
    """Required spec section missing, duplicated, or in conflict."""


class RasterError(MarginlabError, ValueError):
    """Malformed raster text; carries the offending line (1-based)."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
