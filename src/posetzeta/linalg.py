"""Dense exact matrices over the rationals, entries stored as given.

ExactMatrix carries an index_offset so matrices that are naturally indexed
from -1 (the f/H/T families) can be addressed with their natural indices.
"""


class ExactMatrix:
    __slots__ = ("rows", "cols", "entries", "index_offset")

    def __init__(self, entries, index_offset=0):
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged matrix")
        self.index_offset = index_offset

    def get(self, i, j):
        """Entry at natural indices (i, j), shifted by index_offset."""
        return self.entries[i + self.index_offset][j + self.index_offset]

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
            return ExactMatrix(out, self.index_offset)
        # Column vector given as a plain sequence.
        if self.cols != len(other):
            raise ValueError("shape mismatch")
        return [
            sum(self.entries[i][k] * other[k] for k in range(self.cols))
            for i in range(self.rows)
        ]

    @staticmethod
    def identity(n, index_offset=0):
        return ExactMatrix(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)],
            index_offset,
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(str(c) for c in row) for row in self.entries
        )
        return f"ExactMatrix[{self.rows}x{self.cols}]({body})"
