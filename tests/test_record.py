"""Records (results, queries, series and parser tokens): frozen, compared and hashed by
class and fields, copied and pickled through their constructors."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from germkit import (
    GermQuery,
    GermStatus,
    MultiEdgePolygon,
    NonzeroValue,
    OddVariableOrder,
    Polynomial,
    RegularityReport,
    analyze_germ,
    coprime_at,
    make_regular,
    parse_curve,
    parse_poly,
    scan_stability,
    weierstrass_prepare,
)
from germkit._record import Record
from germkit.germs import DistinguishedVarDivides, MonomialUnitSquare
from germkit.parsing import _tokenize
from germkit.series import TruncatedSeries

F = Fraction


def _records():
    """Records of several classes, nested ones and ones holding Polynomials and
    TruncatedSeries included, and a bare series, a query and a parser token."""
    f = parse_poly("z3^2 - z1*z2^2")
    _, regularity = make_regular(parse_poly("z1*z2"), 2)
    status = analyze_germ(GermQuery(f, (0, 0, 0)))
    split = analyze_germ(GermQuery(f, (1, 0, 0)))
    assert split.factors is not None
    scan = scan_stability(f, (0, 0, 0), parse_curve("t,0,0"), (1, 4))
    coprime = coprime_at(f, parse_poly("2*z3"), (0, 0, 0), 3)
    prepared = weierstrass_prepare(f.shift((1, 0, 0)), 3, 8)
    return [status, status.certificate, regularity, RegularityReport(2, (F(1), F(-1, 2))),
            GermStatus(NonzeroValue(F(3, 2))), GermStatus(reason="no test applies"),
            split, scan, coprime, prepared, TruncatedSeries(f, 2), GermQuery(f, (1, 0, "1/2")),
            _tokenize("z12^3")[0]]


def test_a_record_is_frozen():
    cert = OddVariableOrder(variable=1, order=1)
    with pytest.raises(AttributeError):
        cert.order = 3
    with pytest.raises(AttributeError):
        cert.kind = "SmoothPoint"  # class attributes are not writable through a record
    with pytest.raises(AttributeError):
        del cert.variable
    assert cert == OddVariableOrder(1, 1)


def test_records_compare_by_class_then_fields():
    assert OddVariableOrder(1, 1) != OddVariableOrder(1, 3)
    # equal field values, different certificates
    assert DistinguishedVarDivides(variable=1, multiplicity=1) != OddVariableOrder(1, 1)
    assert MultiEdgePolygon(edge_count=2) != NonzeroValue(value=2)
    assert OddVariableOrder(1, 1) != (1, 1)
    assert OddVariableOrder(1, 1).__eq__((1, 1)) is NotImplemented
    assert hash(OddVariableOrder(1, 1)) == hash(OddVariableOrder(variable=1, order=1))
    assert len({GermStatus(OddVariableOrder(1, 1)), GermStatus(OddVariableOrder(1, 1))}) == 1


def test_fields_defaults_and_repr():
    assert GermStatus._fields == ("certificate", "factors", "reason", "applied_change")
    assert OddVariableOrder._fields == ("variable", "order")  # kind and verdict are not fields
    assert GermStatus() == GermStatus(None, None, None, None)
    assert MonomialUnitSquare(None, (1,)) == MonomialUnitSquare(root=None, half_exponents=(1,))
    assert repr(MonomialUnitSquare(None)) == (
        "MonomialUnitSquare(root=None, half_exponents=None, unit_root=None)")
    assert repr(RegularityReport(2)) == "RegularityReport(order=2, applied_change=None)"
    with pytest.raises(TypeError):
        OddVariableOrder(1)
    with pytest.raises(TypeError):
        OddVariableOrder(1, 1, unknown=2)


def test_replace_builds_a_new_record_through_init():
    status = GermStatus(reason="no test applies")
    changed = status._replace(applied_change=(F(1), F(0)))
    assert changed == GermStatus(reason="no test applies", applied_change=(F(1), F(0)))
    assert status.applied_change is None
    query = GermQuery(parse_poly("z1*z2"), (0, 0))
    assert query.order == 8
    query = query._replace(point=(1, "1/2"))
    assert query.point == (F(1), F(1, 2)) and all(type(c) is Fraction for c in query.point)
    with pytest.raises(TypeError):
        status._replace(kind="Unit")


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
def test_records_survive_copies_and_pickles(clone):
    for record in _records():
        twin = clone(record)
        assert twin == record and repr(twin) == repr(record)
        assert type(twin) is type(record) and isinstance(twin, Record)
        with pytest.raises(AttributeError):
            twin.anything = 1


def test_a_pickle_is_rebuilt_through_the_constructor(monkeypatch):
    query, calls = GermQuery(parse_poly("z1*z2"), (0, 0)), []
    post_init = GermQuery.__post_init__
    monkeypatch.setattr(GermQuery, "__post_init__", lambda self: calls.append(post_init(self)))
    assert pickle.loads(pickle.dumps(query)) == query
    assert len(calls) == 1


def test_a_pickle_of_a_series_above_the_largest_order_is_refused():
    class Reduces:
        def __reduce__(self):
            return TruncatedSeries, (parse_poly("z1 + z2"), 33)
    with pytest.raises(ValueError, match="truncation order must be at least 1 and at most 32"):
        pickle.loads(pickle.dumps(Reduces()))


def test_a_pickled_polynomial_is_equal_and_still_immutable():
    p = parse_poly("3/2*z1^2*z2 - z2^5 + 7")
    for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
        assert type(twin) is Polynomial and twin == p and repr(twin) == repr(p)
        with pytest.raises(AttributeError):
            twin.n = 3
    assert pickle.loads(pickle.dumps(Polynomial.zero(2))) == Polynomial.zero(2)


def test_readme_certificate_text_is_unchanged():
    status = analyze_germ(GermQuery(parse_poly("z3^2 - z1*z2^2"), (0, 0, 0)))
    assert str(status.certificate) == "OddVariableOrder(variable=1, order=1)"
    assert repr(status) == ("GermStatus(certificate=OddVariableOrder(variable=1, order=1), "
                            "factors=None, reason=None, applied_change=None)")


def test_a_default_before_a_required_field_is_refused():
    with pytest.raises(SyntaxError):
        class Backwards(Record):
            first: int = 0
            second: int


def test_annotations_kept_only_behind_annotate_are_refused():
    # how Python 3.14 stores a class's annotations without the __future__ import
    with pytest.raises(TypeError, match="from __future__ import annotations"):
        type("Lazy", (Record,), {"__annotate__": lambda fmt: {"first": int}})
