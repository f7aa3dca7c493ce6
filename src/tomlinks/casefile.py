"""Case-file ingestion: the line-oriented `key = value` format.

See FORMAT.md at the repository root for the grammar.  A case file carries
the ambient weights, the Tom centre, the matrix weight data and either ten
explicit polynomial entries or the token GENERAL with a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .algebra import ParseError, parse
from .birational import Basket, FanoCase
from .pfaffian import PAIRS, SkewMatrix5, TomFormat, WeightMatrix5, check_tom


class CaseFileError(Exception):
    def __init__(self, msg: str, line: int | None = None):
        super().__init__(f"line {line}: {msg}" if line else msg)
        self.line = line


ENTRY_KEYS = tuple(f"m{i}{j}" for (i, j) in PAIRS)


@dataclass
class CaseFile:
    id: str
    ambient: tuple[int, ...]            # a b c d1 d2 d3 d4 r
    centre: tuple[int, tuple[int, int, int]]
    tom_index: int
    basket: Basket
    declared_nodes: int | None
    matrix_weights: WeightMatrix5
    matrix_entries: dict[tuple[int, int], str] | None   # None for GENERAL
    general_seed: int | None

    def to_fano_case(self) -> FanoCase:
        a, b, c, d1, d2, d3, d4, r = self.ambient
        case = FanoCase(
            id=self.id, abc=(a, b, c), d=(d1, d2, d3, d4), r=r,
            tom_k=self.tom_index, matrix_weights=self.matrix_weights,
            matrix=None, basket=self.basket, declared_nodes=self.declared_nodes,
            matrix_seed=self.general_seed,
        )
        if self.matrix_entries is not None:
            ring = case.ambient6
            entries = {}
            for (i, j) in PAIRS:
                try:
                    entries[(i, j)] = parse(self.matrix_entries[(i, j)], ring)
                except ParseError as e:
                    raise CaseFileError(f"entry m{i}{j}: {e}")
            matrix = SkewMatrix5(entries, self.matrix_weights, ring)
            if not check_tom(matrix, TomFormat(self.tom_index)):
                raise CaseFileError(
                    f"matrix is not in Tom_{self.tom_index} format"
                )
            case.matrix = matrix
        return case


def _parse_quotient(tok: str, line: int) -> tuple[int, tuple[int, int, int]]:
    # 1/r(a,b,c)
    tok = tok.strip()
    if not tok.startswith("1/"):
        raise CaseFileError(f"bad quotient singularity {tok!r}", line)
    try:
        r_part, rest = tok[2:].split("(", 1)
        r = int(r_part)
        weights = tuple(int(w) for w in rest.rstrip(")").split(","))
    except ValueError:
        raise CaseFileError(f"bad quotient singularity {tok!r}", line)
    if len(weights) != 3:
        raise CaseFileError(f"quotient needs three weights: {tok!r}", line)
    return (r, weights)


def parse_case_text(text: str) -> CaseFile:
    fields: dict[str, tuple[str, int]] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CaseFileError(f"expected key = value, got {rawline!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in fields:
            raise CaseFileError(f"duplicate key {key!r}", lineno)
        fields[key] = (value, lineno)

    def need(key: str) -> tuple[str, int]:
        if key not in fields:
            raise CaseFileError(f"missing required key {key!r}")
        return fields[key]

    def ints(key: str, count: int) -> tuple[int, ...]:
        value, lineno = need(key)
        try:
            vals = tuple(int(v) for v in value.split())
        except ValueError:
            raise CaseFileError(f"{key}: expected integers", lineno)
        if len(vals) != count:
            raise CaseFileError(f"{key}: expected {count} integers, got {len(vals)}", lineno)
        return vals

    case_id, _ = need("id")
    ambient = ints("ambient", 8)
    a, b, c, d1, d2, d3, d4, r = ambient
    if not (d1 >= d2 >= d3 >= d4):
        raise CaseFileError("ideal weights not sorted", fields["ambient"][1])
    if min(a, b, c) != 1:
        raise CaseFileError("no orbinate of weight 1 (Fano index 1 needs one)",
                            fields["ambient"][1])

    centre_text, centre_line = need("centre")
    centre = _parse_quotient(centre_text, centre_line)
    if centre[0] != r:
        raise CaseFileError(f"centre index {centre[0]} != ambient r = {r}", centre_line)
    if tuple(sorted(centre[1])) != tuple(sorted((a, b, c))):
        raise CaseFileError("centre weights differ from the orbinate weights", centre_line)

    tom_value, tom_line = need("tom_index")
    try:
        tom_index = int(tom_value)
    except ValueError:
        raise CaseFileError("tom_index must be an integer 1..5", tom_line)
    if not 1 <= tom_index <= 5:
        raise CaseFileError("tom_index out of range 1..5", tom_line)

    basket = Basket([])
    if "basket" in fields:
        value, lineno = fields["basket"]
        if value.strip() not in ("", "none"):
            for tok in value.split():
                basket.add(*_parse_quotient(tok, lineno))

    declared = None
    if "nodes" in fields:
        value, lineno = fields["nodes"]
        try:
            declared = int(value)
        except ValueError:
            raise CaseFileError("nodes must be an integer", lineno)

    weights = WeightMatrix5.from_list(ints("matrix_weights", 10))

    entries: dict[tuple[int, int], str] | None
    seed = None
    if "matrix" in fields:
        value, lineno = fields["matrix"]
        parts = value.split()
        if not parts or parts[0] != "GENERAL":
            raise CaseFileError("matrix key only takes the form: GENERAL <seed>", lineno)
        if len(parts) != 2 or not parts[1].lstrip("-").isdigit():
            raise CaseFileError("GENERAL requires an integer seed", lineno)
        seed = int(parts[1])
        entries = None
        for key in ENTRY_KEYS:
            if key in fields:
                raise CaseFileError(f"{key} given alongside GENERAL matrix", fields[key][1])
    else:
        entries = {}
        for (i, j) in PAIRS:
            key = f"m{i}{j}"
            value, lineno = need(key)
            entries[(i, j)] = value

    return CaseFile(
        id=case_id, ambient=ambient, centre=centre, tom_index=tom_index,
        basket=basket, declared_nodes=declared, matrix_weights=weights,
        matrix_entries=entries, general_seed=seed,
    )


def parse_case(path: str | Path) -> CaseFile:
    path = Path(path)
    if not path.exists():
        raise CaseFileError(f"case file not found: {path}")
    return parse_case_text(path.read_text(encoding="utf-8"))


def bundled_case_names() -> list[str]:
    files = resources.files("tomlinks").joinpath("cases")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".case"))


def load_bundled(name: str) -> CaseFile:
    files = resources.files("tomlinks").joinpath("cases")
    target = files.joinpath(f"{name}.case")
    if not target.is_file():
        raise CaseFileError(f"no bundled case named {name!r}")
    return parse_case_text(target.read_text(encoding="utf-8"))


def bundled_path(name: str) -> Path:
    files = resources.files("tomlinks").joinpath("cases")
    return Path(str(files.joinpath(f"{name}.case")))
