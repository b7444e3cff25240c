"""Exception types shared across the package, with CLI exit-code mapping."""


class MosslError(Exception):
    """Base class; ``exit_code`` drives the CLI process status."""

    exit_code = 1


class ConfigError(MosslError):
    """Invalid configuration or usage (exit 1)."""

    exit_code = 1


class ShapeError(ConfigError):
    """Tensor operands with incompatible shapes."""


class DataError(MosslError):
    """Malformed or insufficient input data (exit 2)."""

    exit_code = 2


class NumericalError(MosslError):
    """Non-finite values or a failed gradient check (exit 3)."""

    exit_code = 3


class DomainError(NumericalError):
    """Operation applied outside its mathematical domain."""


class CheckpointError(MosslError):
    """Checkpoint file does not match the expected format or shapes."""

    exit_code = 1


def require_at_least_one(obj, *names: str) -> None:
    """Reject the first named integer field of ``obj`` that is below 1."""
    for name in names:
        value = getattr(obj, name)
        if value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value}")
