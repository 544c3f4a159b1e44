"""Dense exact matrices over the rationals, entries stored as given.

The f/H/T matrix families are naturally indexed from -1, so ``get``
addresses rows and columns from -1: ``get(-1, -1)`` is the first entry.
"""


class ExactMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged matrix")

    def get(self, i, j):
        """Entry at natural indices (i, j), each counted from -1."""
        return self.entries[i + 1][j + 1]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            out = [
                [
                    sum(
                        self.entries[i][k] * other.entries[k][j]
                        for k in range(self.cols)
                    )
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ]
            return ExactMatrix(out)
        # Column vector given as a plain sequence.
        if self.cols != len(other):
            raise ValueError("shape mismatch")
        return [
            sum(self.entries[i][k] * other[k] for k in range(self.cols))
            for i in range(self.rows)
        ]

    @staticmethod
    def identity(n):
        return ExactMatrix(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(str(c) for c in row) for row in self.entries
        )
        return f"ExactMatrix[{self.rows}x{self.cols}]({body})"
