"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class DataFormatError(ValueError):
    """Malformed dataset or model file (bad magic, truncation, checksum)."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


class PerturbationInfeasibleError(RuntimeError):
    """A perturbation spec could not reach the required compliance level."""


class MetaEvaluationError(RuntimeError):
    """A consistency run had to abort (degenerate columns, excessive drops)."""
