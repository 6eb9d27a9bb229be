"""Exception hierarchy shared across the package."""


class SemsimError(Exception):
    """Base class for every error raised by this package."""


def describe(exc: BaseException) -> str:
    """An error as one line: this package's errors by their message, anything
    else (a bug, not a bad model) by its type and message."""
    return str(exc) if isinstance(exc, SemsimError) else f"{type(exc).__name__}: {exc}"


class ModelError(SemsimError):
    """A model definition is malformed (duplicate names, bad references, ...)."""


def need(registry, name, what: str):
    """registry[name], or an UnknownEntityError naming what is missing."""
    try:
        return registry[name]
    except KeyError:
        raise UnknownEntityError(f"no {what} {name!r}") from None


class DuplicateNameError(ModelError):
    pass


class UnknownEntityError(ModelError):
    pass


class CyclicInheritanceError(ModelError):
    pass


class StateError(SemsimError):
    """Undeclared state variable, or a label outside its state space."""


class DeadSubjectError(SemsimError):
    """An operation addressed an entity that is no longer alive."""


class TransitionalError(SemsimError):
    """A transitional is structurally invalid (split with one result, ...)."""


class MissingContextError(SemsimError):
    """A function assertion lacks a mechanism/system/scenario context."""


class PushWithoutConnection(SemsimError):
    """A move was asked for over a connection that does not exist.

    Signals a model wiring bug rather than a runtime condition.
    """


class PortionNotPresent(SemsimError):
    pass


class DuplicateMover(SemsimError):
    pass


class CapacityExceeded(SemsimError):
    pass


class NoNervePath(SemsimError):
    pass


class MissingCoreElement(SemsimError):
    """A frame binding left a core element unbound."""

    def __init__(self, element: str):
        self.element = element
        super().__init__(f"core element {element!r} is not bound")


class TraceVocabularyError(SemsimError):
    """A trace line fell outside the model's declared vocabulary."""


class SchemaError(ModelError):
    """A model or scenario file failed to parse; carries a location string."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class ScenarioError(ModelError):
    pass
