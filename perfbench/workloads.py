"""Workload definitions: the documents each workload builds and the commands
it runs, with every expected verdict derived from the mathematics.

Every input is a rook monoid I_n or a block monoid eqrel(b_1|...|b_m), the
partial injections that preserve a partition.  For those the counts are
closed-form:

- |S| = P(1) and |G| = P(k), where P(x) = prod over blocks of
  sum_r C(b,r)^2 r! x^r (r-element partial injections inside a block, each
  carrying k^r phases);
- the relation R is the union of the blocks' squares, |R| = sum b^2, and
  the matrix algebra it carries has dimension |R|, with the diagonal of
  dimension n;
- spectral sets correspond to subsets of R: 2^|R| of them;
- msd members are total preorders on each block (Fubini numbers), mtr
  members total orders (b!).
"""

from __future__ import annotations

import math

NAMES = ("exact", "numeric")


class Shape:
    """Block sizes of a partition of the atoms; rook n is the single block n."""

    def __init__(self, *blocks):
        self.blocks = blocks

    def _poly(self, x):
        total = 1
        for b in self.blocks:
            total *= sum(math.comb(b, r) ** 2 * math.factorial(r) * x**r for r in range(b + 1))
        return total

    @property
    def atoms(self):
        return sum(self.blocks)

    @property
    def size(self):
        return self._poly(1)

    def phased_size(self, k):
        return self._poly(k)

    @property
    def relation(self):
        return sum(b * b for b in self.blocks)

    @property
    def msd_count(self):
        return math.prod(_fubini(b) for b in self.blocks)

    @property
    def mtr_count(self):
        return math.prod(math.factorial(b) for b in self.blocks)


def _fubini(n):
    # ordered set partitions: a(n) = sum_{i>=1} C(n,i) a(n-i)
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, i) * a[m - i] for i in range(1, m + 1)))
    return a[n]


ROOK3 = Shape(3)
EQ22 = Shape(2, 2)  # eqrel 0,1|2,3
EQ211 = Shape(2, 1, 1)  # eqrel 0,1|2|3
EQ311 = Shape(3, 1, 1)  # eqrel 0,1,2|3|4


class Command:
    """One CLI invocation and what the mathematics says it must print.

    ``expect`` maps a report key to the first token of its value; ``lines``
    maps a line prefix to how many lines must start with it.
    """

    def __init__(self, argv, code=0, expect=None, lines=None):
        self.argv = argv
        self.code = code
        self.expect = expect or {}
        self.lines = lines or {}

    @property
    def sub(self):
        return self.argv[0]

    def label(self):
        return " ".join(self.argv)


# Setup recipes.  ("gen", out, args): run `cartanlab gen args --out out`;
# ("twist", out, src, k, stream), ("relabel", out, src, stream) and
# ("tamper", out, src, stream): build out of src with docs.py.
SETUP = {
    "exact": [
        ("gen", "rook3.json", ["rook", "3"]),
        ("twist", "rook3_k3.json", "rook3.json", 3, "rook3"),
        ("relabel", "rook3_twin_plain.json", "rook3.json", "rook3_twin_perm"),
        ("twist", "rook3_k3_twin.json", "rook3_twin_plain.json", 3, "rook3_twin"),
        ("tamper", "rook3_k3_tampered.json", "rook3_k3.json", "rook3_tamper"),
        ("gen", "eqrel22.json", ["eqrel", "0,1|2,3"]),
        ("twist", "eqrel22_k2.json", "eqrel22.json", 2, "eqrel22"),
        ("gen", "rook2.json", ["rook", "2"]),
        ("gen", "product22.json", ["product", "rook2.json", "rook2.json"]),
    ],
    "numeric": [
        ("gen", "eqrel311.json", ["eqrel", "0,1,2|3|4"]),
        ("gen", "rook3.json", ["rook", "3"]),
        ("twist", "rook3_k3.json", "rook3.json", 3, "rook3"),
        ("gen", "eqrel22.json", ["eqrel", "0,1|2,3"]),
        ("gen", "eqrel211.json", ["eqrel", "0,1|2|3"]),
    ],
}


def _validate_ok(path):
    return Command(
        ["validate", path],
        expect={
            "inverse_monoid": "True",
            "fundamental": "True",
            "cocycle_support": "pass",
            "cocycle_normalized": "pass",
            "cocycle_identity": "pass",
            "validate": "pass",
        },
    )


def _equiv(a, b, guard, shape, k):
    return Command(
        ["equiv", a, b, "--guard", str(guard)],
        expect={"equivalent": "YES", "element_pairs": str(shape.phased_size(k))},
    )


def _oracle(path, shape):
    return Command(
        ["oracle", path],
        expect={
            "dim_M": str(shape.relation),
            "dim_D": str(shape.atoms),
            "span_closure": "pass",
            "double_commutant": "pass",
            "regularity": "pass",
            "masa": "pass",
            "recovered_monoid_size": str(shape.size),
            "cartan_pair": "pass",
        },
    )


def _spectral(argv, shape):
    return Command(
        argv + ["--guard", "25"],
        expect={"spectral_sets": str(2**shape.relation), "round_trip": "pass"},
    )


COMMANDS = {
    "exact": [
        _validate_ok("rook3_k3.json"),
        Command(
            ["validate", "rook3_k3_tampered.json"],
            code=1,
            expect={
                "cocycle_support": "pass",
                "cocycle_normalized": "pass",
                "cocycle_identity": "FAIL",
                "validate": "FAIL",
            },
        ),
        Command(
            ["section", "eqrel22_k2.json"],
            expect={
                "section": "pass",
                "order_preserving_a": "pass",
                "product_form_b": "pass",
                "meet_form_c": "pass",
            },
            lines={"j[": EQ22.size},
        ),
        _equiv("rook3_k3.json", "rook3_k3_twin.json", 40, ROOK3, 3),
        _equiv("eqrel22.json", "product22.json", 64, EQ22, 1),
    ],
    "numeric": [
        _oracle("eqrel311.json", EQ311),
        _oracle("rook3_k3.json", ROOK3),
        Command(
            ["represent", "rook3_k3.json"],
            lines={"# section ": ROOK3.size, f"atoms={ROOK3.atoms} k=3 dim={ROOK3.relation}": ROOK3.size},
        ),
        Command(
            ["msd", "eqrel211.json", "--guard", "25"],
            expect={"msd_count": str(EQ211.msd_count)},
            lines={"member ": EQ211.msd_count},
        ),
        Command(
            ["mtr", "eqrel22.json", "--guard", "25"],
            expect={"mtr_count": str(EQ22.mtr_count)},
            lines={"member ": EQ22.mtr_count},
        ),
        _spectral(["spectral", "rook3.json", "--k", "2"], ROOK3),
    ],
}


def check(cmd, code, stdout):
    """Problems with one command's result; empty when the verdict is right."""
    problems = []
    if code != cmd.code:
        problems.append(f"exit {code}, expected {cmd.code}")
    out_lines = stdout.splitlines()
    report = {}
    for line in out_lines:
        key, sep, value = line.partition(": ")
        if sep and key.isidentifier() and key not in report:
            report[key] = value.split(" ")[0]
    for key, want in cmd.expect.items():
        if report.get(key) != want:
            problems.append(f"{key}={report.get(key)!r}, expected {want!r}")
    for prefix, want in cmd.lines.items():
        got = sum(line.startswith(prefix) for line in out_lines)
        if got != want:
            problems.append(f"{got} lines start with {prefix!r}, expected {want}")
    failed_members = [ln for ln in out_lines if ln.startswith("member ") and not ln.endswith(": pass")]
    if failed_members:
        problems.append(f"{len(failed_members)} members failed")
    return problems


def verdict(code, stdout):
    """What the traced and untraced runs of one command must agree on: the
    exit code and the output, less the floating-point deviation report."""
    kept = [ln for ln in stdout.splitlines() if "max_deviation" not in ln]
    return code, "\n".join(kept)
