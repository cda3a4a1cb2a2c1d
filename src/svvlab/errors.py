"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class NumericalError(RuntimeError):
    """A quadrature or solve failed to converge.

    Also raised when a time step breaks its stability bound; t is then the
    time of the step and sample the id of the failing sample."""

    sample = None

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class ConfigError(ValueError):
    """Invalid or inconsistent configuration. CLI maps this to exit code 2."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations is not None else [message]


class PositivityLoss(RuntimeError):
    """Density dropped below the configured floor during time stepping;
    sample is the id of the failing sample."""

    sample = None

    def __init__(self, t, x, rho_min):
        super().__init__(
            f"density floor violated at t={t:.6g}, x={x:.6g} (min rho={rho_min:.6g})"
        )
        self.t = t
        self.x = x
        self.rho_min = rho_min


class DivergenceError(RuntimeError):
    """Non-finite values appeared during time stepping; sample is the id of
    the failing sample."""

    sample = None

    def __init__(self, t):
        super().__init__(f"solution diverged (NaN/Inf) at t={t:.6g}")
        self.t = t
