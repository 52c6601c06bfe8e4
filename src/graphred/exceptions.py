"""Exception types shared across the toolkit."""


class GraphRedError(Exception):
    """Base class for all toolkit errors."""


class InvalidGraphError(GraphRedError):
    """Adjacency matrix violates the graph contract (asymmetry, negative weights, ...)."""


class DegenerateDistanceError(InvalidGraphError):
    """Two points selected as neighbors are numerically coincident, so an
    inverse-distance weight would overflow."""


class NoEdgesError(InvalidGraphError):
    """Operation requires a graph with at least one edge."""


class GraphTooLargeError(GraphRedError):
    """A dense N x N step was asked of a graph above its node limit."""


class NumericalError(GraphRedError):
    """A numerical routine failed (eigensolver, linear solve, ...)."""


class ConvergenceError(NumericalError):
    """Iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class DivergenceError(NumericalError):
    """Iteration produced non-finite or exploding values."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class StagnationError(NumericalError):
    """Line search denominator vanished while the gradient is nonzero."""


class TrainingError(GraphRedError):
    """Training loop produced a non-finite loss."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class ParseError(GraphRedError):
    """Malformed input file; the message starts with ``path:line:`` (``path:`` when ``line`` is 0)."""

    def __init__(self, message, path=None, line=None):
        super().__init__(message if path is None else f"{path}:{line}: {message}" if line else f"{path}: {message}")
        self.path = path
        self.line = line


class ConfigError(GraphRedError):
    """Invalid run configuration."""
