"""Exception hierarchy shared across the library."""


class AddselError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(AddselError):
    """Malformed or inconsistent configuration input."""


class BudgetError(AddselError):
    """A combinatorial enumeration would exceed its budget."""

    def __init__(self, message, count=None, budget=None):
        super().__init__(message)
        self.count = count
        self.budget = budget


class AssumptionError(AddselError):
    """A theoretical precondition is violated (e.g. rho >= 1, kappa <= 0)."""


class SingularBlockError(AddselError):
    """A Gram block is numerically singular; whitening refused."""

    def __init__(self, message, block=None, min_eigenvalue=None):
        super().__init__(message)
        self.block = block
        self.min_eigenvalue = min_eigenvalue
