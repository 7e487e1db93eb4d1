"""The subalgebra/dimension table of the classification, read from label
strings: ``nk6 table`` runs none of the algebra code."""

ALLOWED_ISOTROPY = ["0", "u(1)", "2u(1)", "su(2)", "u(2)", "su(3)"]

TABLE_ROWS = [
    ("0", "su(2)+su(2)", "S3xS3"),
    ("u(1)", "u(1)+su(2)+su(2)", "S3xS3"),
    ("2u(1)", "2u(1)+su(2)+su(2)", "S3xS3"),
    ("2u(1)", "su(3)", "F3"),
    ("su(2)", "su(2)+su(2)+su(2)", "S3xS3"),
    ("u(2)", "u(1)+su(2)+su(2)+su(2)", "S3xS3"),
    ("u(2)", "sp(2)", "CP3"),
    ("su(3)", "g2", "S6"),
]

_DIMS = {"0": 0, "u(1)": 1, "su(2)": 3, "su(3)": 8, "sp(2)": 10, "g2": 14,
         "u(2)": 4}


def algebra_dimension(label):
    """Dimension of a direct sum like '2u(1)+su(2)+su(2)'."""
    total = 0
    for part in label.split("+"):
        part = part.strip()
        if part[0].isdigit() and part not in _DIMS:
            count, rest = int(part[0]), part[1:]
            total += count * _DIMS[rest]
        else:
            total += _DIMS[part]
    return total


class TableReport:
    def __init__(self, rows):
        self.rows = rows

    @property
    def ok(self):
        return all(r["codimension"] == 6 and r["isotropy_allowed"]
                   for r in self.rows)


def table_check():
    """Each table row: dim g - dim h = 6 and h in the allowed isotropy list."""
    rows = []
    for h, g, target in TABLE_ROWS:
        dim_h, dim_g = algebra_dimension(h), algebra_dimension(g)
        rows.append({"h": h, "g": g, "target": target, "dim_h": dim_h,
                     "dim_g": dim_g, "codimension": dim_g - dim_h,
                     "isotropy_allowed": h in ALLOWED_ISOTROPY})
    return TableReport(rows=rows)
