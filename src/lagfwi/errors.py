"""Exception types shared across the package."""


class LagfwiError(Exception):
    """Base class for all package specific failures."""


class ConfigurationError(LagfwiError):
    """Invalid grid, model, geometry, or run configuration."""


class DivergenceError(LagfwiError):
    """A solve or update produced non-finite or non-physical values."""


class SolverNotConvergedError(LagfwiError):
    """An iterative solve stopped before reaching its tolerance."""


class FileFormatError(LagfwiError):
    """A data file is malformed or disagrees with the expected grid."""


class OracleSizeError(LagfwiError):
    """A dense reference computation was requested above the size guard."""


class SingularSystemError(LagfwiError):
    """A dense factorization failed because the system is numerically singular."""
