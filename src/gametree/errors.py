"""Exception hierarchy shared across the package."""


class GameParseError(ValueError):
    """A game document is malformed or semantically unusable.

    Covers both JSON/schema problems and parse-time semantic errors such as
    a payoff vector of the wrong length or a player index out of range.
    ``where`` carries a path into the document for context.
    """

    def __init__(self, message, where=None):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


class ProfileParseError(ValueError):
    """A profile document, or a ``gt solve --objective`` document, is
    malformed (bad JSON or wrong schema shape)."""

    def __init__(self, message, where=None):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


class ProfileError(ValueError):
    """A structurally well-formed profile is illegal for the given game."""


class InvalidGameError(ValueError):
    """An operation required a validated game but validation fails."""


class ResourceGuardError(RuntimeError):
    """A computation refused to run because a configured cap was exceeded.

    Deliberate refusal, never silent truncation; the message says which cap
    and how to raise it.
    """


class InternalCheckError(AssertionError):
    """A mandatory self-verification failed (solver certificate, gap re-check).

    Indicates a bug in this package, not bad user input.
    """
