"""Exception types shared across the package."""


class RankError(RuntimeError):
    """Requested truncation level exceeds the usable rank of the sample covariance."""

    def __init__(self, requested: int, usable_rank: int):
        self.requested = requested
        self.usable_rank = usable_rank
        advice = f"lower J to at most {usable_rank}"
        if usable_rank == 0:  # J is at least 1
            advice = "the sample has no usable variation"
        super().__init__(
            f"truncation level {requested} exceeds usable rank {usable_rank}; {advice}"
        )


class EmptyPoolError(RuntimeError):
    """No pool direction satisfies the RKHS-norm constraint at the given lambda."""

    def __init__(self, lam: float, min_norm: float):
        self.lam = lam
        self.min_norm = min_norm
        super().__init__(
            f"no accepted directions: lambda={lam!r} is below the smallest "
            f"pool RKHS norm {min_norm!r}"
        )
