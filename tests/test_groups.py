import pytest
from hypothesis import given, strategies as st

from hopfk.groups import (
    GroupHom,
    GroupValidationError,
    Word,
    cyclic_group,
    evaluate_word,
    group_from_table,
    mod_hom,
    sign_hom_s3,
    symmetric_group,
    trivial_hom,
    validate_hom,
)


def test_cyclic():
    z2 = cyclic_group(2)
    assert z2.mul[1][1] == 0
    assert z2.inverse == (0, 1)
    assert z2.is_abelian()


def test_symmetric_3():
    s3 = symmetric_group(3)
    assert s3.order == 6
    involutions = [a for a in range(6) if a != s3.identity and s3.mul[a][a] == s3.identity]
    assert len(involutions) == 3
    assert not s3.is_abelian()
    assert "e" in s3.names and "(1 2)" in s3.names


def test_broken_tables_rejected():
    with pytest.raises(GroupValidationError):
        group_from_table(["a", "b"], [[0, 1], [1, 1]])  # no inverse for b
    with pytest.raises(GroupValidationError, match="associativity"):
        # order-5 latin square that is a quasigroup but not associative
        group_from_table(
            ["e", "a", "b", "c", "d"],
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ],
        )
    with pytest.raises(GroupValidationError):
        group_from_table(["a"], [[1]])  # out of range


def test_conjugate_and_power():
    s3 = symmetric_group(3)
    a = s3.names.index("(1 2)")
    b = s3.names.index("(1 2 3)")
    assert s3.conjugate(b, a) != a
    assert s3.power(b, 3) == s3.identity
    assert s3.power(b, -1) == s3.inverse[b]


letters = st.tuples(st.integers(0, 2), st.sampled_from((1, -1)))
words = st.builds(Word, st.tuples(*[letters] * 0) | st.lists(letters, max_size=8).map(tuple))


@given(words, words, st.lists(st.integers(0, 5), min_size=3, max_size=3))
def test_word_concat_multiplicative(w1, w2, assignment):
    s3 = symmetric_group(3)
    lhs = evaluate_word(Word(w1.letters + w2.letters), assignment, s3)
    rhs = s3.mul[evaluate_word(w1, assignment, s3)][evaluate_word(w2, assignment, s3)]
    assert lhs == rhs


def test_word_examples():
    z2 = cyclic_group(2)
    xx = Word(((0, 1), (0, 1)))
    assert evaluate_word(xx, (1,), z2) == 0
    commutator = Word(((0, 1), (1, 1), (0, -1), (1, -1)))
    z6 = cyclic_group(6)
    assert evaluate_word(commutator, (2, 5), z6) == 0
    s3 = symmetric_group(3)
    t12, t13 = s3.names.index("(1 2)"), s3.names.index("(1 3)")
    result = evaluate_word(Word(((0, 1), (1, 1))), (t12, t13), s3)
    assert "3" in s3.names[result] and len(s3.names[result]) > 5  # a 3-cycle


def test_word_str():
    w = Word(((0, 1), (1, -1), (2, 1)))
    assert str(w) == "x1.x2^-1.x3"
    assert str(Word()) == "1"


def test_sign_hom():
    phi = sign_hom_s3()
    assert validate_hom(phi).passed
    assert sorted(phi.fiber(0)) == sorted(phi.fiber(0))
    assert len(phi.fiber(0)) == 3 and len(phi.fiber(1)) == 3
    assert phi(phi.source.identity) == 0


def test_mod_hom():
    phi = mod_hom(4, 2)
    assert validate_hom(phi).passed
    assert phi.fiber(0) == (0, 2) and phi.fiber(1) == (1, 3)
    with pytest.raises(ValueError):
        mod_hom(4, 3)


def test_trivial_hom():
    phi = trivial_hom(symmetric_group(3))
    assert validate_hom(phi).passed
    assert len(phi.fiber(0)) == 6


def test_invalid_hom_detected():
    s3 = symmetric_group(3)
    z2 = cyclic_group(2)
    image = list(sign_hom_s3().image)
    image[s3.names.index("(1 2)")] ^= 1  # flip one transposition
    report = validate_hom(GroupHom(s3, z2, tuple(image)))
    assert not report.passed
    assert any("multiplicativity" in v for v in report.violations)


def test_hom_image_out_of_range_is_reported():
    z2 = cyclic_group(2)
    report = validate_hom(GroupHom(z2, z2, (0, 5)))
    assert report.violations == ["image value 5 out of range for target group"]


def test_word_errors():
    z2 = cyclic_group(2)
    with pytest.raises(IndexError, match="^word uses generator x3 beyond assignment$"):
        evaluate_word(Word(((0, 1), (2, 1))), (1, 0), z2)
    with pytest.raises(ValueError, match=r"^letter exponent must be \+-1, got 2$"):
        evaluate_word(Word(((0, 2),)), (1,), z2)
