"""Exception types shared across the library."""


class MonoidError(Exception):
    """Base class for all library errors."""


class NotAssociative(MonoidError):
    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"associativity fails at triple {triple}")


class NoIdentity(MonoidError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"claimed identity fails on element {witness}")


class NotCommutative(MonoidError):
    pass


class NotRegular(MonoidError):
    def __init__(self, witness=None):
        self.witness = witness
        msg = "element is not regular" if witness is None else f"element {witness} is not regular"
        super().__init__(msg)


class TargetNotRegularCommutative(MonoidError):
    pass


class ParseError(MonoidError):
    """An input error at line line_no, or at the end of the input when
    line_no is None."""

    def __init__(self, line_no, msg):
        self.line_no = line_no
        where = "at end of input" if line_no is None else f"line {line_no}"
        super().__init__(f"{where}: {msg}")


class ValidationError(MonoidError):
    pass


class ArityMismatch(MonoidError):
    pass


class DimensionMismatch(MonoidError):
    pass


class BudgetExceeded(MonoidError):
    pass


class NotACoset(MonoidError):
    pass


class PromiseViolation(MonoidError):
    pass


class NonCommutingImages(MonoidError):
    pass


class TooLarge(MonoidError):
    pass
