"""Exception types shared across the toolkit."""


class PhishguardError(Exception):
    """Base class for all toolkit errors."""


class MalformedUrl(PhishguardError):
    """Raised when no host can be identified in a URL string."""


class ResolverFailure(PhishguardError):
    """A feature resolver returned an out-of-domain value or failed outright."""

    def __init__(self, feature: str, message: str):
        super().__init__(f"{feature}: {message}")
        self.feature = feature


class MissingFeature(PhishguardError):
    """A feature vector lacks one or more canonical features."""

    def __init__(self, names):
        self.names = sorted(names)
        super().__init__("missing features: " + ", ".join(self.names))


class MissingLabelColumn(PhishguardError):
    pass


class NonNumericCell(PhishguardError):
    def __init__(self, row: int, column: str, value: str):
        super().__init__(f"non-numeric value {value!r} at row {row}, column {column!r}")
        self.row = row
        self.column = column


class RaggedRow(PhishguardError):
    """A CSV data row whose cell count differs from the header's."""

    def __init__(self, row: int, cells: int, header_cells: int):
        super().__init__(f"row {row} has {cells} cells but the header has {header_cells}")
        self.row = row


class NonFiniteReference(PhishguardError):
    """A provenance reference set holds NaN or infinity. `row` counts the
    loaded rows, after duplicate removal."""

    def __init__(self, row: int, column: str, value: float):
        super().__init__(f"non-finite value {value} at reference row {row} "
                         f"(after duplicate removal), column {column!r}")
        self.row = row
        self.column = column


class EmptyDataset(PhishguardError):
    pass


class InfiniteCell(PhishguardError):
    """A tree's training matrix holds +inf or -inf, which no split
    threshold (a midpoint of two levels) can separate."""

    def __init__(self, row: int, column: int, value: float,
                 matrix: str = "the training matrix"):
        super().__init__(f"infinite value {value} at row {row} of {matrix}, "
                         f"column {column}: trees cannot split on it")
        self.row = row
        self.column = column
        self.value = value


class UnmappableFeature(PhishguardError):
    def __init__(self, dataset: str, feature: str):
        super().__init__(f"feature {feature!r} not found in dataset {dataset!r}")
        self.dataset = dataset
        self.feature = feature


class ExhaustedRuleSpace(PhishguardError):
    """Could not produce the requested number of unique variants in budget."""


class DimensionMismatch(PhishguardError):
    pass


class SingleClassDataset(PhishguardError):
    pass


class NonFiniteLoss(PhishguardError):
    """Training diverged; usually the learning rate is too high."""


class InvalidM(PhishguardError):
    pass


class LengthMismatch(PhishguardError):
    pass


class EmptyInput(PhishguardError):
    pass


class SingleClassInput(PhishguardError):
    pass


class UnknownFeature(PhishguardError):
    pass


class TooManyFeatures(PhishguardError):
    pass


class DegeneratePerturbations(PhishguardError):
    pass


class EmptyFeatureSets(PhishguardError):
    pass


class EmptyReferenceSet(PhishguardError):
    pass


class IdMismatch(PhishguardError):
    pass


class ZeroBaseline(PhishguardError):
    pass
