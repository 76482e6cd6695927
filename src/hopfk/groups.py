"""Finite groups as multiplication tables, words, and homomorphisms."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class GroupValidationError(ValueError):
    """The given table is not a group."""


@dataclass(frozen=True)
class GroupTable:
    """A finite group; elements are referenced by index everywhere, the
    names are presentation-only."""

    names: tuple
    mul: tuple  # mul[a][b] -> index of a*b
    identity: int
    inverse: tuple

    @property
    def order(self) -> int:
        return len(self.names)

    def power(self, a: int, n: int) -> int:
        if n < 0:
            return self.power(self.inverse[a], -n)
        result = self.identity
        for _ in range(n):
            result = self.mul[result][a]
        return result

    def conjugate(self, b: int, a: int) -> int:
        """b a b^-1."""
        return self.mul[self.mul[b][a]][self.inverse[b]]

    def index(self, name) -> int:
        return self.names.index(name)

    def is_abelian(self) -> bool:
        n = self.order
        return all(
            self.mul[a][b] == self.mul[b][a] for a in range(n) for b in range(n)
        )


def group_from_table(names, mul) -> GroupTable:
    """Validate a raw multiplication table and wrap it as a GroupTable."""
    n = len(names)
    names = tuple(names)
    mul = tuple(tuple(row) for row in mul)
    if len(mul) != n or any(len(row) != n for row in mul):
        raise GroupValidationError("multiplication table is not square")
    for row in mul:
        for v in row:
            if not (0 <= v < n):
                raise GroupValidationError(f"table entry {v} out of range")
    identity = None
    for e in range(n):
        if all(mul[e][a] == a and mul[a][e] == a for a in range(n)):
            identity = e
            break
    if identity is None:
        raise GroupValidationError("no two-sided identity element")
    inverse = [None] * n
    for a in range(n):
        for b in range(n):
            if mul[a][b] == identity and mul[b][a] == identity:
                inverse[a] = b
                break
        if inverse[a] is None:
            raise GroupValidationError(f"element {names[a]!r} has no inverse")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    raise GroupValidationError(
                        "associativity fails on triple "
                        f"({names[a]!r}, {names[b]!r}, {names[c]!r})"
                    )
    return GroupTable(names, mul, identity, tuple(inverse))


def cyclic_group(n: int) -> GroupTable:
    if n < 1:
        raise ValueError("order must be >= 1")
    names = tuple(str(k) for k in range(n))
    mul = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return group_from_table(names, mul)


def trivial_group() -> GroupTable:
    return cyclic_group(1)


def _perm_name(p) -> str:
    """Cycle-notation name for a permutation of {1..n} given as a tuple of
    0-based images."""
    n = len(p)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cycle.append(j)
            seen[j] = True
            j = p[j]
        cycles.append("(" + " ".join(str(k + 1) for k in cycle) + ")")
    return "".join(cycles) if cycles else "e"


def symmetric_group(n: int) -> GroupTable:
    if n < 1:
        raise ValueError("degree must be >= 1")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    names = tuple(_perm_name(p) for p in perms)
    # (p*q)(i) = p[q[i]]: apply q first, then p.
    mul = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms) for p in perms
    )
    return group_from_table(names, mul)


# -- words ---------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """A word in abstract generators x_1..x_g; letters are pairs
    (generator index, exponent in {+1, -1})."""

    letters: tuple = ()

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)

    def concat(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((k, -e) for k, e in reversed(self.letters)))

    def rotate(self, offset: int) -> "Word":
        if not self.letters:
            return self
        offset %= len(self.letters)
        return Word(self.letters[offset:] + self.letters[:offset])

    def free_reduce(self) -> "Word":
        out = []
        for letter in self.letters:
            if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
                out.pop()
            else:
                out.append(letter)
        return Word(tuple(out))

    def __str__(self):
        if not self.letters:
            return "1"
        parts = []
        for k, e in self.letters:
            parts.append(f"x{k + 1}" if e == 1 else f"x{k + 1}^-1")
        return ".".join(parts)


def evaluate_word(word: Word, assignment, group: GroupTable) -> int:
    """Product of the assigned elements with exponents, left to right."""
    result = group.identity
    for k, e in word:
        if not (0 <= k < len(assignment)):
            raise IndexError(f"word uses generator x{k + 1} beyond assignment")
        g = assignment[k]
        if e == -1:
            g = group.inverse[g]
        elif e != 1:
            raise ValueError(f"letter exponent must be +-1, got {e}")
        result = group.mul[result][g]
    return result


# -- homomorphisms ---------------------------------------------------------


@dataclass(frozen=True)
class GroupHom:
    source: GroupTable
    target: GroupTable
    image: tuple  # image[g] -> index in target

    def __call__(self, g: int) -> int:
        return self.image[g]

    def fiber(self, a: int):
        """Sorted source indices mapping to target element a."""
        return tuple(g for g in range(self.source.order) if self.image[g] == a)


@dataclass
class Report:
    """Outcome of a report-style check: passes iff no violations."""

    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def fail(self, message: str):
        self.violations.append(message)

    def warn(self, message: str):
        self.warnings.append(message)


def validate_hom(hom: GroupHom) -> Report:
    report = Report()
    G, P = hom.source, hom.target
    if len(hom.image) != G.order:
        report.fail(
            f"image list has length {len(hom.image)}, expected {G.order}"
        )
        return report
    for v in hom.image:
        if not (0 <= v < P.order):
            report.fail(f"image value {v} out of range for target group")
            return report
    if hom.image[G.identity] != P.identity:
        report.fail("identity is not mapped to identity")
    for a in range(G.order):
        for b in range(G.order):
            lhs = hom.image[G.mul[a][b]]
            rhs = P.mul[hom.image[a]][hom.image[b]]
            if lhs != rhs:
                report.fail(
                    f"multiplicativity fails on pair ({G.names[a]!r}, {G.names[b]!r})"
                )
    return report


def sign_hom_s3() -> GroupHom:
    """The signature S3 -> Z/2."""
    s3 = symmetric_group(3)
    z2 = cyclic_group(2)
    perms = sorted(itertools.permutations(range(3)))
    image = []
    for p in perms:
        inversions = sum(
            1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j]
        )
        image.append(inversions % 2)
    return GroupHom(s3, z2, tuple(image))


def mod_hom(n: int, m: int) -> GroupHom:
    """Reduction Z/n -> Z/m (requires m >= 1 and m | n)."""
    if m < 1:
        raise ValueError("modulus must be >= 1")
    if n % m:
        raise ValueError("reduction requires m | n")
    return GroupHom(cyclic_group(n), cyclic_group(m), tuple(k % m for k in range(n)))


def trivial_hom(G: GroupTable) -> GroupHom:
    return GroupHom(G, trivial_group(), tuple(0 for _ in range(G.order)))
