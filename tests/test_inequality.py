import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cmpoly import inequality
from cmpoly.inequality import Inequality, parse_entry, parse_inequality_line

from conftest import assert_primitive_int_row

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=12)
rows_and_points = st.integers(1, 5).flatmap(
    lambda m: st.tuples(st.lists(fracs, min_size=m, max_size=m),
                        st.lists(fracs, min_size=m, max_size=m)))


def reference_parse_line(line):
    """`parse_inequality_line` with `parse_entry` applied to every token."""
    body, _, comment = line.partition("#")
    lhs, sense, rhs = body.rpartition("<=")
    if not sense or len(rhs.split()) != 1:
        raise ValueError(f"bad inequality line: {line!r}")
    *coeffs, rhs = [parse_entry(t, line) for t in [*lhs.split(), rhs.strip()]]
    tag = re.search(r"tag=(\S+)", comment)
    return Inequality(coeffs, rhs, tag=tag[1] if tag else "", provenance=comment.strip())


def parsed_or_error(parse, line):
    try:
        q = parse(line)
    except ValueError as e:
        return "ValueError", str(e)
    return q.coeffs, q.rhs, q.tag, q.provenance


class TestInequality:
    def test_stored_as_primitive_int_row(self):
        q = Inequality([Fraction(1, 2), -1, 0], Fraction(3, 4))
        assert q.coeffs == (2, -4, 0) and q.rhs == 3
        assert_primitive_int_row(q)
        assert q.canonical() == ((2, -4, 0), 3)

    def test_positive_scale_compares_equal(self):
        assert Inequality([2, 4], 6) == Inequality([Fraction(1, 2), 1], Fraction(3, 2))
        assert Inequality([2, 4], 6) != Inequality([-2, -4], -6)

    @given(rows_and_points, st.one_of(st.just(Fraction(0)), fracs))
    def test_evaluate_agrees_with_the_unscaled_row(self, row_and_point, slack):
        coeffs, x = row_and_point
        lhs = sum((c * v for c, v in zip(coeffs, x)), Fraction(0))
        rhs = lhs + slack
        q = Inequality(coeffs, rhs)
        assert (q.evaluate(x) <= q.rhs) == (lhs <= rhs)
        assert (q.evaluate(x) == q.rhs) == (lhs == rhs)

    @given(st.lists(st.integers(-3, 3), max_size=8), st.integers(-2, 2))
    def test_sign_masks_split_the_stored_row(self, coeffs, rhs):
        q = Inequality(coeffs, rhs)
        plus, minus, other = q.sign_masks
        for mask, keep in ((plus, lambda c: c == 1), (minus, lambda c: c == -1),
                           (other, lambda c: c not in (-1, 0, 1))):
            assert mask == sum(1 << j for j, c in enumerate(q.coeffs, start=1) if keep(c))

    def test_with_tag_changes_only_the_tag(self):
        q = Inequality([2, -4, 0], 6, provenance="pair=(1,2)")
        masks = q.sign_masks   # cached on q, so the copy carries it
        t = q.with_tag("other")
        assert (t.coeffs, t.rhs, t.tag, t.provenance) == ((1, -2, 0), 3, "other", "pair=(1,2)")
        assert t.sign_masks == masks and q.tag == ""
        assert t == Inequality([1, -2, 0], 3, tag="other", provenance="pair=(1,2)")


class TestParse:
    def test_line_gives_primitive_int_row(self):
        q = parse_inequality_line("1/2 -1 0 <= 3/4  # tag=family")
        assert (q.coeffs, q.rhs, q.tag) == ((2, -4, 0), 3, "family")
        assert q.format_row() == "2 -4 0 <= 3"
        assert q.format_line() == "2 -4 0 <= 3  # tag=family tag=family"
        assert_primitive_int_row(q)

    @pytest.mark.parametrize("line,token", [("1/0 1 <= 1", "1/0"), ("1 1 <= 2/0", "2/0"),
                                            ("1 x <= 1", "x")],
                             ids=["zero-denominator", "zero-denominator-rhs", "not-a-number"])
    def test_bad_entry_names_its_token(self, line, token):
        with pytest.raises(ValueError, match=f"bad inequality entry '{token}'"):
            parse_inequality_line(line)

    @pytest.mark.parametrize("t", ["+1", "-0", "007", "1.5", "1e3", "1_0", "\u0663", "1/0", "x"])
    def test_token_reads_as_fraction_does(self, t):
        """An ASCII integer token is read by int(), any other by Fraction, as a
        coefficient and as the rhs: the value, and the message for a token
        Fraction refuses, are Fraction's."""
        for line, row in ((f"{t} 1 <= 1", lambda v: Inequality([v, 1], 1)),
                          (f"1 1 <= {t}", lambda v: Inequality([1, 1], v))):
            try:
                want = Fraction(t)
            except (ValueError, ZeroDivisionError):
                message = re.escape(f"bad inequality entry {t!r} in line {line!r}")
                for parse in (lambda: parse_entry(t, line), lambda: parse_inequality_line(line)):
                    with pytest.raises(ValueError, match=message):
                        parse()
                continue
            got = parse_entry(t, line)
            assert got == want
            assert (type(got) is int) == bool(re.fullmatch(r"[-+]?[0-9]+", t))
            assert parse_inequality_line(line) == row(want)

    @pytest.mark.parametrize("line", ["1 1 1", "1 1 <=", "1 1 <= 1 2", "1 1 <= # 1"],
                             ids=["no-sense", "no-rhs", "two-rhs-tokens", "rhs-in-comment"])
    def test_line_without_one_rhs_token_is_bad(self, line):
        with pytest.raises(ValueError, match=re.escape(f"bad inequality line: {line!r}")):
            parse_inequality_line(line)

    # Tokens int() reads that the ASCII-integer rule refuses (an underscore,
    # an Arabic-Indic and a fullwidth digit); signed ASCII integers; a
    # rational and a decimal; and an ASCII integer past int()'s digit limit.
    @pytest.mark.parametrize("t", ["1_0", "\u0663", "\uff11", "+1", "-0", "1/2", "1.5",
                                   "1" * 5000],
                             ids=["underscore", "arabic-indic", "fullwidth", "plus", "minus-zero",
                                  "rational", "decimal", "past-digit-limit"])
    @pytest.mark.parametrize("where", ["coefficient", "rhs"])
    def test_row_reads_as_token_by_token(self, t, where, monkeypatch):
        """A line gives the row and provenance, or the error, that reading
        each token with `parse_entry` gives on this Python; and only a line
        of ASCII integers that int() takes skips `parse_entry`."""
        line = (f"{t} -1 0 <= 1  # tag=x pair=(1,2)" if where == "coefficient"
                else f"2 -1 0 <= {t}  # tag=x pair=(1,2)")
        want = parsed_or_error(reference_parse_line, line)
        seen = []
        monkeypatch.setattr(inequality, "parse_entry",
                            lambda token, line: seen.append(token) or parse_entry(token, line))
        assert parsed_or_error(parse_inequality_line, line) == want
        whole_line = bool(re.fullmatch(r"[-+]?[0-9]+", t))
        if whole_line:
            try:
                int(t)
            except ValueError:   # past int()'s digit limit
                whole_line = False
        assert (seen == []) == whole_line
        assert whole_line or t in seen
