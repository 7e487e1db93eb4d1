"""The subalgebra/dimension table of the classification, read from label
strings: ``nk6 table`` runs none of the algebra code."""

from .report import Report

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


def table_check():
    """Each table row: dim g - dim h = 6 and h in the allowed isotropy list,
    one verdict a row; the rows are kept as ``rows``."""
    rep = Report(rows=[])
    for h, g, target in TABLE_ROWS:
        dim_h, dim_g = algebra_dimension(h), algebra_dimension(g)
        codim, allowed = dim_g - dim_h, h in ALLOWED_ISOTROPY
        rep.rows.append({"h": h, "g": g, "target": target, "dim_h": dim_h,
                         "dim_g": dim_g, "codimension": codim,
                         "isotropy_allowed": allowed})
        rep.check(f"{h} in {g} -> {target}", codim == 6 and allowed,
                  label="table", detail=f"{dim_g} - {dim_h} = {codim}")
    return rep
