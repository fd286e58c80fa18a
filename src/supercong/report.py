"""Report rows and serialization for verification runs.

JSON schema (to_json/from_json round-trip exactly):
  {
    "p_lo": int, "p_hi": int, "seed": int, "guard": 4,
    "version": str, "elapsed": float,
    "rows": [
      {"p": int, "id": str, "outcome": "Holds|Fails|NotApplicable|Skipped",
       "lhs": int|null, "rhs": int|null, "modulus": int|null, "detail": str}
    ],
    "summary": {status: {outcome: count}},   # derived, ignored on parse
    "counts": {outcome: count}               # derived, ignored on parse
  }

"guard" is a fixed legacy key (see ``LEGACY_GUARD``), ignored on parse.

CSV columns are fixed: p,id,outcome,lhs,rhs,modulus,detail.  None fields
serialize as empty strings, and the detail column is omitted entirely on
rows where it is empty.  Text output contains no timing information, so
it is byte-identical across reruns at a fixed seed.
"""

from __future__ import annotations

from typing import NamedTuple

from .registry import REGISTRY

#: The value of the "guard" key in JSON and text reports.  No computation
#: reads it; the key is kept, at this fixed value, so that reports keep
#: their format and their pinned digests.
LEGACY_GUARD = 4


#: One row of the JSON report, at the indent json.dumps(..., indent=2) gives it.
_ROW_JSON = (
    '    {{\n      "p": {},\n      "id": {},\n      "outcome": {},\n      "lhs": {},\n'
    '      "rhs": {},\n      "modulus": {},\n      "detail": {}\n    }}'
)


def _json_int(n: int | None) -> str:
    return "null" if n is None else str(n)


class ReportRow(NamedTuple):
    """One (prime, statement) verification cell."""

    p: int
    sid: str
    outcome: str
    lhs: int | None = None
    rhs: int | None = None
    modulus: int | None = None
    detail: str = ""


def _row_status(row: ReportRow) -> str:
    stmt = REGISTRY.get(row.sid)
    return stmt.status if stmt is not None else "unknown"


def gates(row: ReportRow, strict_conjectures: bool = False) -> bool:
    """Whether a row fails the run: a Fails row gates unless its statement
    is a conjecture and strict_conjectures is off; an unknown id gates."""
    return row.outcome == "Fails" and (strict_conjectures or _row_status(row) != "conjecture")


class VerificationReport:
    """Results of a prime-range run plus its metadata; equal when every
    field is."""

    __slots__ = ("p_lo", "p_hi", "seed", "version", "elapsed", "rows")

    def __init__(
        self, p_lo: int, p_hi: int, seed: int, version: str, elapsed: float,
        rows: list[ReportRow] | None = None,
    ) -> None:
        self.p_lo = p_lo
        self.p_hi = p_hi
        self.seed = seed
        self.version = version
        self.elapsed = elapsed
        self.rows = [] if rows is None else rows

    def __eq__(self, other: object) -> bool:
        if type(other) is not VerificationReport:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"VerificationReport({fields})"

    def counts(self) -> dict[str, int]:
        """Row tallies per outcome."""
        out: dict[str, int] = {}
        for row in self.rows:
            out[row.outcome] = out.get(row.outcome, 0) + 1
        return out

    def summary(self) -> dict[str, dict[str, int]]:
        """Row tallies per statement status per outcome."""
        out: dict[str, dict[str, int]] = {}
        for row in self.rows:
            per = out.setdefault(_row_status(row), {})
            per[row.outcome] = per.get(row.outcome, 0) + 1
        return out

    def failures(self, *, strict_conjectures: bool = False) -> list[ReportRow]:
        """Fails rows that gate the exit code.

        Conjecture failures are reported but excluded unless
        strict_conjectures is set.
        """
        return [row for row in self.rows if gates(row, strict_conjectures)]

    def to_json(self) -> str:
        """The document as ``json.dumps(doc, indent=2)`` writes it.

        The rows are formatted from a fixed template and spliced into the
        dump of the rest of the document: the pure-Python encoder that
        ``indent`` selects takes most of the time on long reports.
        """
        # imported here: only JSON output needs json
        import json
        from json.encoder import encode_basestring_ascii

        def string(s: str | None) -> str:
            return "null" if s is None else encode_basestring_ascii(s)

        doc = {
            "p_lo": self.p_lo,
            "p_hi": self.p_hi,
            "seed": self.seed,
            "guard": LEGACY_GUARD,
            "version": self.version,
            "elapsed": self.elapsed,
            "rows": [],
            "summary": self.summary(),
            "counts": self.counts(),
        }
        text = json.dumps(doc, indent=2)
        if not self.rows:
            return text
        rows = ",\n".join(
            _ROW_JSON.format(
                r.p,
                string(r.sid),
                string(r.outcome),
                _json_int(r.lhs),
                _json_int(r.rhs),
                _json_int(r.modulus),
                string(r.detail),
            )
            for r in self.rows
        )
        # a raw newline cannot occur inside an encoded string, so this
        # line is the one "rows" key of the document
        head, tail = text.split('\n  "rows": [],\n', 1)
        return f'{head}\n  "rows": [\n{rows}\n  ],\n{tail}'

    @staticmethod
    def from_json(text: str) -> "VerificationReport":
        import json

        doc = json.loads(text)
        rows = [
            ReportRow(
                p=r["p"],
                sid=r["id"],
                outcome=r["outcome"],
                lhs=r["lhs"],
                rhs=r["rhs"],
                modulus=r["modulus"],
                detail=r.get("detail", ""),
            )
            for r in doc["rows"]
        ]
        return VerificationReport(
            p_lo=doc["p_lo"],
            p_hi=doc["p_hi"],
            seed=doc["seed"],
            version=doc["version"],
            elapsed=doc["elapsed"],
            rows=rows,
        )

    def to_csv(self) -> str:
        lines = ["p,id,outcome,lhs,rhs,modulus,detail"]
        for r in self.rows:
            cells = [
                str(r.p),
                r.sid,
                r.outcome,
                "" if r.lhs is None else str(r.lhs),
                "" if r.rhs is None else str(r.rhs),
                "" if r.modulus is None else str(r.modulus),
            ]
            if r.detail:
                cells.append(r.detail.replace(",", ";").replace("\n", " "))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [
            f"primes {self.p_lo}..{self.p_hi} seed={self.seed} "
            f"guard={LEGACY_GUARD} version={self.version}"
        ]
        for r in self.rows:
            bits = [f"p={r.p}", r.sid, r.outcome]
            if r.lhs is not None:
                bits.append(f"lhs={r.lhs}")
            if r.rhs is not None:
                bits.append(f"rhs={r.rhs}")
            if r.modulus is not None:
                bits.append(f"mod {r.modulus}")
            if r.detail:
                bits.append(f"({r.detail})")
            lines.append(" ".join(bits))
        counts = self.counts()
        order = ("Holds", "Fails", "NotApplicable", "Skipped")
        shown = [f"{k}={counts[k]}" for k in order if k in counts]
        shown += [f"{k}={v}" for k, v in sorted(counts.items()) if k not in order]
        lines.append("summary: " + (" ".join(shown) if shown else "no rows"))
        return "\n".join(lines) + "\n"
