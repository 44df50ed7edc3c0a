"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, BlowupError -> 3,
ResourceLimitError -> 4, RepresentationError -> 5. Everything else is an
ordinary bug.
"""

__all__ = [
    "RepresentationError",
    "ConfigError",
    "ResolutionError",
    "BlowupError",
    "ResourceLimitError",
    "FitError",
]


class RepresentationError(ValueError):
    """A field was passed in the wrong representation (physical vs frequency)."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (bad keys, bad values, failed preconditions)."""


class ResolutionError(ConfigError):
    """Requested frequency structure is finer than the grid can resolve."""


class BlowupError(RuntimeError):
    """The solution amplitude crossed the blowup guard threshold."""

    def __init__(self, t: float, amplitude: float, threshold: float):
        self.t = t
        self.amplitude = amplitude
        self.threshold = threshold
        super().__init__(
            f"max |u| = {amplitude:.3e} exceeded guard {threshold:.3e} at t = {t:.6g}"
        )


class ResourceLimitError(RuntimeError):
    """Refusing to start a run whose estimated footprint exceeds the configured limit."""


class FitError(ValueError):
    """A regression/fit had degenerate input (too few points, zero variance)."""
