"""Case-file ingestion: the line-oriented `key = value` format.

See FORMAT.md at the repository root for the grammar.  A case file carries
the ambient weights, the Tom centre, the matrix weight data and either ten
explicit polynomial entries or the token GENERAL with a seed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from math import gcd
from pathlib import Path

from .algebra import AlgebraError, bidegree, parse
from .birational import Basket, FanoCase
from .pfaffian import PAIRS, PfaffianError, SkewMatrix5, TomFormat, WeightMatrix5
from .unprojection import UnprojectionError, decompose_entries


class CaseFileError(Exception):
    def __init__(self, msg: str, line: int | None = None):
        super().__init__(f"line {line}: {msg}" if line else msg)
        self.line = line


ENTRY_KEYS = tuple(f"m{i}{j}" for (i, j) in PAIRS)
KEYS = ("id", "ambient", "centre", "tom_index", "basket", "nodes", "matrix_weights",
        "matrix") + ENTRY_KEYS


@dataclass
class CaseFile:
    id: str
    ambient: tuple[int, ...]            # a b c d1 d2 d3 d4 r
    tom_index: int
    basket: Basket
    declared_nodes: int | None
    matrix_weights: WeightMatrix5
    # (text, line) of each entry; None for GENERAL
    matrix_entries: dict[tuple[int, int], tuple[str, int]] | None
    general_seed: int | None
    tom_line: int

    def to_fano_case(self) -> FanoCase:
        a, b, c, d1, d2, d3, d4, r = self.ambient
        case = FanoCase(
            id=self.id, abc=(a, b, c), d=(d1, d2, d3, d4), r=r,
            tom_k=self.tom_index, matrix_weights=self.matrix_weights,
            matrix=None, basket=self.basket, declared_nodes=self.declared_nodes,
            matrix_seed=self.general_seed,
        )
        if self.matrix_entries is None:
            # a = 1, so x1 fills any degree: an entry off row and column k
            # has a form in (y1..y4) iff weight >= d4, any other iff >= 0
            k = self.tom_index
            for (i, j) in PAIRS:
                w = self.matrix_weights[(i, j)]
                if k not in (i, j) and w < d4:
                    raise CaseFileError(f"Tom_{k} puts m{i}{j} in (y1..y4), but its "
                                        f"weight {w} is below d4 = {d4}", self.tom_line)
                if w < 0:
                    raise CaseFileError(f"GENERAL entry m{i}{j} has negative weight {w}",
                                        self.tom_line)
        else:
            ring = case.ambient6
            entries = {}
            for (i, j), (text, line) in self.matrix_entries.items():
                weight = self.matrix_weights[(i, j)]
                try:
                    p = parse(text, ring)
                    degree = bidegree(p).top if p else weight
                except AlgebraError as e:  # a parse error or an inhomogeneous entry
                    raise CaseFileError(f"entry m{i}{j}: {e}", line)
                if degree != weight:
                    raise CaseFileError(
                        f"entry m{i}{j} has degree {degree}, declared {weight}", line)
                entries[(i, j)] = p
            matrix = SkewMatrix5(entries, self.matrix_weights, ring)
            try:
                decompose_entries(matrix, TomFormat(self.tom_index))
            except UnprojectionError:
                raise CaseFileError(f"matrix is not in Tom_{self.tom_index} format",
                                    self.tom_line)
            case.matrix = matrix
        return case


_QUOTIENT = re.compile(r"1/([^()]*)\(([^()]*)\)")


def _parse_quotient(tok: str, line: int) -> tuple[int, tuple[int, int, int]]:
    tok = tok.strip()
    match = _QUOTIENT.fullmatch(tok)
    try:
        r = int(match[1])
        weights = tuple(int(w) for w in match[2].split(","))
    except (TypeError, ValueError):  # no match, or a part that int() rejects
        raise CaseFileError(f"bad quotient singularity {tok!r}", line)
    if len(weights) != 3:
        raise CaseFileError(f"quotient needs three weights: {tok!r}", line)
    if r < 2:
        raise CaseFileError(f"quotient index {r} is below 2: {tok!r}", line)
    return (r, weights)


def _type_i_centre(r: int, abc: tuple[int, int, int]) -> bool:
    """Whether 1/r(1, b, c), with b <= c, is a Type I Tom centre 1/r(1, b, r - b)."""
    _, b, c = abc
    return b + c == r and gcd(b, r) == 1


def parse_case_text(text: str) -> CaseFile:
    fields: dict[str, tuple[str, int]] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CaseFileError(f"expected key = value, got {rawline!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise CaseFileError(f"unknown key {key!r}", lineno)
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
    ambient_line = fields["ambient"][1]
    if not (d1 >= d2 >= d3 >= d4 >= 1):
        raise CaseFileError("ideal weights not sorted d1 >= d2 >= d3 >= d4 >= 1", ambient_line)
    if not 1 == a <= b <= c:
        raise CaseFileError("orbinate weights not ascending 1 = a <= b <= c", ambient_line)

    centre_text, centre_line = need("centre")
    centre = _parse_quotient(centre_text, centre_line)
    if centre[0] != r:
        raise CaseFileError(f"centre index {centre[0]} != ambient r = {r}", centre_line)
    if tuple(sorted(centre[1])) != tuple(sorted((a, b, c))):
        raise CaseFileError("centre weights differ from the orbinate weights", centre_line)
    if not _type_i_centre(r, (a, b, c)):
        raise CaseFileError(f"{centre_text.strip()} is not a Type I centre 1/r(1,b,r-b) "
                            "with gcd(b,r) = 1", centre_line)

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
            declared = None
        if declared is None or declared < 0:
            raise CaseFileError("nodes must be an integer >= 0", lineno)

    try:
        weights = WeightMatrix5.from_list(ints("matrix_weights", 10))
    except PfaffianError as e:
        raise CaseFileError(f"matrix_weights: {e}", fields["matrix_weights"][1])

    entries: dict[tuple[int, int], tuple[str, int]] | None
    seed = None
    if "matrix" in fields:
        value, lineno = fields["matrix"]
        parts = value.split()
        if not parts or parts[0] != "GENERAL":
            raise CaseFileError("matrix key only takes the form: GENERAL <seed>", lineno)
        try:
            (seed_text,) = parts[1:]
            seed = int(seed_text)
        except ValueError:
            raise CaseFileError("GENERAL requires an integer seed", lineno)
        entries = None
        for key in ENTRY_KEYS:
            if key in fields:
                raise CaseFileError(f"{key} given alongside GENERAL matrix", fields[key][1])
    else:
        entries = {}
        for (i, j) in PAIRS:
            entries[(i, j)] = need(f"m{i}{j}")

    return CaseFile(
        id=case_id, ambient=ambient, tom_index=tom_index,
        basket=basket, declared_nodes=declared, matrix_weights=weights,
        matrix_entries=entries, general_seed=seed, tom_line=tom_line,
    )


def parse_case(path: str | Path) -> CaseFile:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        reason = e.strerror if isinstance(e, OSError) else e
        raise CaseFileError(f"cannot read case file {path}: {reason}") from None
    return parse_case_text(text)


_CASES = resources.files("tomlinks").joinpath("cases")


def bundled_case_names() -> list[str]:
    return sorted(p.name[:-5] for p in _CASES.iterdir() if p.name.endswith(".case"))


def load_bundled(name: str) -> CaseFile:
    target = _CASES.joinpath(f"{name}.case")
    if not target.is_file():
        raise CaseFileError(f"no bundled case named {name!r}")
    return parse_case_text(target.read_text(encoding="utf-8"))


def bundled_path(name: str) -> Path:
    return Path(str(_CASES.joinpath(f"{name}.case")))
