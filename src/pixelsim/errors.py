"""Exception types shared across the simulator."""


class SimulatorError(Exception):
    """Base class for all simulator errors."""


class MalformedCookie(SimulatorError):
    def __init__(self, reason: str, raw: str = ""):
        super().__init__(f"malformed cookie ({reason}): {raw!r}")


class MalformedReport(SimulatorError):
    pass


class InvalidExpiry(SimulatorError):
    pass


class UnknownSite(SimulatorError):
    pass


class UnknownBrowser(SimulatorError):
    pass


class UnknownAccount(SimulatorError):
    pass


class DuplicateAccount(SimulatorError):
    pass


class ValidationError(SimulatorError):
    def __init__(self, message: str, step_index: int | None = None):
        self.step_index = step_index
        if step_index is not None:
            message = f"step {step_index}: {message}"
        super().__init__(message)
