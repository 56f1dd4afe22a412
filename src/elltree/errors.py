"""Shared exception types."""


class TooLargeError(RuntimeError):
    """An input exceeds a configured size ceiling.

    Carries enough context to report what was refused, so callers can
    distinguish a resource refusal from a wrong answer.
    """

    def __init__(self, what, size, ceiling):
        self.what = what
        self.size = size
        self.ceiling = ceiling
        super().__init__(f"{what}: size {size} exceeds ceiling {ceiling}")

    def at(self, where):
        """The same refusal with where it happened appended in brackets."""
        return TooLargeError(f"{self.what} [{where}]", self.size, self.ceiling)
