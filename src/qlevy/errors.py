"""Exception hierarchy shared by all qlevy modules."""


class QLevyError(Exception):
    """Base class for all library errors."""


class RewriteBudgetExceeded(QLevyError):
    """Rewriting did not terminate within the rule-application budget."""


class ParseError(QLevyError):
    def __init__(self, message, position):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class UnknownGenerator(QLevyError):
    pass


class TermBudgetExceeded(QLevyError):
    """A Sweedler expansion grew past the term budget."""


class DimCapExceeded(QLevyError):
    """Subcoalgebra closure exceeded the dimension cap."""


class NonConvergence(QLevyError):
    pass


class MeshTooCoarse(QLevyError):
    pass


class DegreeCapExceeded(QLevyError):
    pass


class PositivityViolation(QLevyError):
    pass


class RankDeficiencyWarning(UserWarning):
    pass


class InvalidParameter(QLevyError):
    pass


class DimensionMismatch(QLevyError):
    pass


class TailBoundExceeded(QLevyError):
    pass


class SchemaError(QLevyError):
    pass
