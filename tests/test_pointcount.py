import json

import pytest
from click.testing import CliRunner

from pottsmotive import _countpure, pointcount
from pottsmotive.classpoly import T, ClassPoly
from pottsmotive.cli import cli
from pottsmotive.errors import (
    InvalidArgumentError,
    NotPolynomialCountError,
    ResourceLimitError,
)
from pottsmotive.mpoly import MPoly, Q, edge_var
from pottsmotive.multigraph import banana, polygon
from pottsmotive.pointcount import (
    complement_class,
    complement_counter,
    complement_report,
    count_report,
    fixed_q_class,
    fixed_q_report,
    kernel_backend,
    locus_complement_class,
    sample_plan,
)
from pottsmotive.tutte import tutte_delcon

T1, T2 = edge_var("1"), edge_var("2")
LOOP_Z = Q + Q * T1


def fixed_q_count(poly, q0, edge_count, q):
    """The fixed-q complement count of poly at q0 over F_q, at the element
    of F_q that a fixed-q report fixes q to."""
    complement = complement_counter([poly], edge_count, fixed_q=True)
    return complement(q, pointcount._slice_element(q0, q))


def zero_count(polys, ambient_dim, q):
    """The points of F_q^ambient_dim where every polynomial vanishes."""
    return q**ambient_dim - complement_counter(polys, ambient_dim)(q)


def test_backend_reports_something():
    assert kernel_backend() == "pure"


def test_kernel_looked_up_through_module_attribute(monkeypatch):
    # benchmark tracing wraps the kernel by rebinding this attribute
    calls = []
    kernel = _countpure.count_common_zeros

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(_countpure, "count_common_zeros", counting)
    assert complement_counter([LOOP_Z], 2)(3) == 4
    assert len(calls) == 1


def test_count_complement_loop():
    assert complement_counter([LOOP_Z], 2)(2) == 1
    assert complement_counter([LOOP_Z], 2)(3) == 4
    assert complement_counter([LOOP_Z], 2)(5) == 16


def test_count_complement_triangle():
    z = tutte_delcon(polygon(3))
    assert complement_counter([z], 4)(3) == 22


def test_count_complement_zero_poly():
    assert complement_counter([MPoly.zero()], 3)(5) == 0


def test_count_complement_spare_dimensions():
    # q != 0 in ambient dim 3: q free over the two extra coordinates
    assert complement_counter([Q], 3)(5) == 4 * 25


def test_count_fixed_q_triangle():
    z = tutte_delcon(polygon(3))
    assert fixed_q_count(z, 2, 3, 3) == 14
    fixed = ClassPoly((-2, 0, 2, 1))  # T^3 + 2T^2 - 2
    for p in (3, 5, 7):
        for q0 in range(2, p):
            assert fixed_q_count(z, q0, 3, p) == fixed.eval_int(p - 1)


def test_count_fixed_q_at_prime_powers():
    # q0 is the element q0 % 3 of F_9; F_4 and F_8 have no q0 outside {0, 1}
    z = tutte_delcon(polygon(3))
    fixed = ClassPoly((-2, 0, 2, 1))
    for q0 in (2, 5, 8):
        assert fixed_q_count(z, q0, 3, 9) == fixed.eval_int(8)
    assert fixed_q_count(z, 3, 3, 9) == 0
    assert fixed_q_count(z, 4, 3, 9) == 8**3


def test_count_fixed_q_special_values():
    for g in (polygon(3), banana(2)):
        z = tutte_delcon(g)
        e = g.edge_count
        for p in (3, 5):
            assert fixed_q_count(z, 1, e, p) == (p - 1) ** e
            assert fixed_q_count(z, 0, e, p) == 0


def test_count_zero_locus_examples():
    assert zero_count([Q], 2, 3) == 3
    assert zero_count([Q, T1], 2, 5) == 1
    tri = polygon(3)
    z_del = tutte_delcon(tri.delete_edge("3"))
    z_con = tutte_delcon(tri.contract_edge("3"))
    # both polynomials are multiples of q, so the q = 0 plane (9 points) is
    # inside; the off-plane part contributes 7 more at p = 3
    assert zero_count([z_del, z_con], 3, 3) == 16


def test_complement_plus_zeros_is_everything():
    z = tutte_delcon(banana(2))
    for p in (2, 3, 5, 7):
        assert complement_counter([z], 3)(p) + zero_count([z], 3, p) == p**3


def test_budget_env(monkeypatch):
    monkeypatch.setenv("POTTS_BUDGET", "8")
    with pytest.raises(ResourceLimitError):
        complement_counter([LOOP_Z], 2)(3)


# an optional "-" and ASCII digits; int() would also take the others
@pytest.mark.parametrize("raw", ["1_000", "+1000", "\u0663\u0660\u0660\u0660", " 1000 ", "1e8"])
def test_budget_spellings_refused(monkeypatch, raw):
    monkeypatch.setenv("POTTS_BUDGET", raw)
    with pytest.raises(InvalidArgumentError, match="POTTS_BUDGET must be a decimal integer"):
        complement_counter([LOOP_Z], 2)(3)


@pytest.mark.parametrize("raw, budget", [("1000", 1000), ("0009", 9), ("-1", -1)])
def test_budget_spellings_read(monkeypatch, raw, budget):
    monkeypatch.setenv("POTTS_BUDGET", raw)
    assert pointcount._budget() == budget


@pytest.mark.parametrize("modulus", [6, 25, 1, 0, -3, 2**31 + 11])
def test_non_prime_modulus_rejected(modulus):
    # 2^31 + 11 is prime but above MAX_PRIME, the cap on trial division
    with pytest.raises(InvalidArgumentError, match="not primes below 2"):
        complement_counter([LOOP_Z], 2)(modulus)
    with pytest.raises(InvalidArgumentError, match="not primes below 2"):
        complement_counter([LOOP_Z, T1], 2)(modulus)
    with pytest.raises(InvalidArgumentError, match="not primes below 2"):
        complement_counter([MPoly.zero()], 2)(modulus)


def test_too_many_variables_rejected():
    with pytest.raises(InvalidArgumentError):
        complement_counter([Q * T1 * T2], 2)


def test_default_primes_and_check():
    assert sample_plan(4) == ((2, 3, 4, 5), 7)
    assert sample_plan(4, (2, 3, 4, 5)) == ((2, 3, 4, 5), 7)
    assert sample_plan(7) == ((2, 3, 4, 5, 7, 8, 9), 11)
    assert sample_plan(0) == ((), 2)
    # a fixed-q plan is the ladder minus F_2
    assert sample_plan(3, q0=2) == ((3, 4, 5), 7)
    assert sample_plan(3, (3, 4, 5), q0=2) == ((3, 4, 5), 7)
    assert sample_plan(7, q0=2) == ((3, 4, 5, 7, 8, 9, 11), 13)
    assert sample_plan(7, (3, 4, 5, 7, 8, 9, 11), q0=2) == ((3, 4, 5, 7, 8, 9, 11), 13)
    assert sample_plan(0, q0=2) == ((), 3)
    for q0 in (None, 2):
        with pytest.raises(InvalidArgumentError, match="beyond the prime ladder"):
            sample_plan(15, q0=q0)
        with pytest.raises(InvalidArgumentError, match="no check field left on the ladder"):
            sample_plan(1, (37,), q0=q0)


def test_interpolate_loop_class():
    report = count_report(
        complement_counter([LOOP_Z], 2), 2, primes=(2, 3, 5), check_prime=7
    )
    assert report.interpolated == T**2


def test_interpolate_at_prime_powers():
    report = count_report(
        complement_counter([LOOP_Z], 2), 2, primes=(4, 9), check_prime=8
    )
    assert report.interpolated == T**2
    z = tutte_delcon(polygon(3))
    report = count_report(
        complement_counter([z], 4), 4, primes=(8, 4, 9, 2), check_prime=3
    )
    assert report.interpolated == T**4 + 2 * T**3 - 2 * T**2 - 2 * T + 2


def test_interpolate_overdetermined():
    report = count_report(
        complement_counter([LOOP_Z], 2),
        2,
        primes=(2, 3, 5, 7, 11),
        check_prime=13,
    )
    assert report.interpolated == T**2


def test_interpolate_seed_classes():
    z2 = tutte_delcon(banana(2))
    cls2 = count_report(complement_counter([z2], 3), 3).interpolated
    assert cls2 == T**3 + T**2 - 1
    z3 = tutte_delcon(polygon(3))
    cls3 = count_report(complement_counter([z3], 4), 4).interpolated
    assert cls3 == T**4 + 2 * T**3 - 2 * T**2 - 2 * T + 2


def test_count_report_round_trip():
    z = tutte_delcon(banana(2))
    report = count_report(complement_counter([z], 3), 3)
    for p, n in report.samples:
        assert report.interpolated.eval_int(p - 1) == n
    assert report.check[1] == report.check[2]
    doc = report.to_json()
    assert doc["ambient_dim"] == 3
    assert doc["class_T"] == [-1, 0, 1, 1]
    assert doc["check"]["predicted"] == doc["check"]["observed"]
    assert [list(pair) for pair in report.samples] == doc["samples"]


def test_interpolate_rejects_non_polynomial_counts():
    fake = {2: 1, 3: 4, 5: 16, 7: 999}

    with pytest.raises(NotPolynomialCountError):
        count_report(lambda p: fake[p], 2, primes=(2, 3, 5), check_prime=7)


def test_interpolate_rejects_non_integer_fit():
    with pytest.raises(NotPolynomialCountError):
        count_report(lambda p: 1 if p == 2 else 2, 1, primes=(2, 3), check_prime=5)


def test_interpolate_rejects_a_higher_degree():
    # n = q^3 is T^3 + ... only when the ambient dimension is 3
    with pytest.raises(NotPolynomialCountError):
        count_report(lambda q: q**3, 2, primes=(2, 3, 5), check_prime=7)


def test_interpolate_needs_enough_primes():
    with pytest.raises(InvalidArgumentError):
        count_report(lambda p: p, 3, primes=(2, 3), check_prime=5)


def test_locus_complement_class_matches_hand_count():
    # zero locus of (1-q) q t1 in the (q, t1) plane: three lines minus two
    # shared points, so the complement class is (L-1)(L-2)
    poly = (MPoly.const(1) - Q) * Q * T1
    assert locus_complement_class([poly], 2) == T * (T - 1)


def test_fixed_q_class_triangle():
    z = tutte_delcon(polygon(3))
    assert fixed_q_class(z, 3) == T**3 + 2 * T**2 - 2


def test_f2_complement_is_one():
    for g in (polygon(1), polygon(2), polygon(3), banana(3)):
        z = tutte_delcon(g)
        assert complement_counter([z], g.edge_count + 1)(2) == 1


def test_fixed_q_plan_is_the_ladder_minus_f2(monkeypatch):
    # F_2 has no element but 0 and 1 to fix q at; F_4 and F_8 fix it at x.
    # The budget is lifted so that every plan on the ladder is built
    monkeypatch.setenv("POTTS_BUDGET", str(10**40))
    ladder = pointcount.FIELD_LADDER[1:]
    for dim in range(len(ladder)):
        assert sample_plan(dim, q0=2) == (ladder[:dim], ladder[dim])
    with pytest.raises(InvalidArgumentError, match="beyond the prime ladder"):
        sample_plan(len(ladder), q0=2)
    monkeypatch.delenv("POTTS_BUDGET")
    assert sample_plan(5, q0=2) == ((3, 4, 5, 7, 8), 9)
    assert sample_plan(7, q0=2) == ((3, 4, 5, 7, 8, 9, 11), 13)


def test_fixed_q_plan_refuses_characteristic_two():
    # F_2, and q0 = 0 or 1 mod an odd characteristic, still degenerate;
    # F_4 and F_8 do not, whatever q0 is
    for primes, check, q0 in [((2, 3), 5, 2), ((3, 5), 2, 2), ((3, 5), 7, 3), ((4, 5), 7, 6)]:
        with pytest.raises(InvalidArgumentError, match="degenerates"):
            sample_plan(2, primes, check, q0=q0)
    for q0 in (-1, 0, 1, 2, 3):
        assert sample_plan(1, (4,), 8, q0=q0) == ((4,), 8)


def test_zero_polynomial_complement_class_is_zero(monkeypatch):
    def never(*args):
        raise AssertionError("counted an empty complement")

    monkeypatch.setattr(_countpure, "count_common_zeros", never)
    assert complement_class(MPoly.zero(), 3) == ClassPoly.zero()
    assert locus_complement_class([MPoly.zero(), MPoly.zero()], 3) == ClassPoly.zero()
    assert locus_complement_class([], 2) == ClassPoly.zero()


def test_a_report_converts_once(conversions):
    # the kernel counts every sample field and the check field; the
    # polynomials are converted for the first of them only
    triangle = tutte_delcon(polygon(3))
    z_del = tutte_delcon(banana(2))
    z_con = tutte_delcon(polygon(1))
    reports = [
        (lambda: complement_class(triangle, 4), 4),
        (lambda: locus_complement_class([z_del, z_con * T1], 3), 3),
        (lambda: fixed_q_report(triangle, 2, 3), 3),
    ]
    for run, dim in reports:
        conversions["dense"] = conversions["kernel"] = 0
        run()
        assert conversions == {"dense": 1, "kernel": dim + 1}


@pytest.mark.parametrize("extra,dim", [([], 4), (["--q", "2"], 3)])
def test_potts_count_converts_once(conversions, extra, dim):
    result = CliRunner().invoke(
        cli, ["count", "--family", "polygon", "--m", "2"] + extra
    )
    assert result.exit_code == 0
    assert len(json.loads(result.output)["samples"]) == dim
    assert conversions == {"dense": 1, "kernel": dim + 1}


@pytest.mark.parametrize("graph", [polygon(3), banana(3)], ids=["triangle", "banana3"])
@pytest.mark.parametrize("q0", [-1, 1157])  # 1157 is 2 mod 3, 5, 7 and 11
def test_fixed_q_report_counts_every_field_from_one_conversion(graph, q0):
    # the report's one conversion of Z_G serves every field of its plan: each
    # sample and the check equal fixed_q_count in that field, which slices at
    # q0 % char in odd characteristic and at the generator x of F4 and F8
    z = tutte_delcon(graph)
    edges = graph.edge_count
    report = fixed_q_report(z, q0, edges)
    assert report.samples == tuple(
        (q, fixed_q_count(z, q0, edges, q)) for q, _ in report.samples
    )
    check, _, observed = report.check
    assert observed == fixed_q_count(z, q0, edges, check)
    assert report.interpolated == fixed_q_class(z, edges)


def test_refusals_come_before_any_conversion(monkeypatch):
    def never(*args):
        raise AssertionError("converted a refused report")

    monkeypatch.setattr(pointcount, "_dense_system", never)
    monkeypatch.setenv("POTTS_BUDGET", "100")  # the triangle's plans need more
    z = tutte_delcon(polygon(3))
    with pytest.raises(ResourceLimitError):
        complement_class(z, 4)
    with pytest.raises(ResourceLimitError):
        complement_report(z, 4)
    with pytest.raises(ResourceLimitError):
        fixed_q_report(z, 2, 3)
    with pytest.raises(InvalidArgumentError, match="degenerates"):
        fixed_q_report(z, 2, 2, (2, 3), 5)


def test_too_many_variables_refused_by_a_report():
    with pytest.raises(InvalidArgumentError, match="do not fit"):
        complement_class(Q * T1 * T2, 2)
    with pytest.raises(InvalidArgumentError, match="do not fit"):
        locus_complement_class([Q, T1 * T2], 2)
    with pytest.raises(InvalidArgumentError, match="do not fit"):
        fixed_q_report(Q * T1 * T2, 2, 1)


def test_a_report_plans_once(monkeypatch):
    # count_report is the one planner: sample_plan runs once per report,
    # and a fixed-q report passes its q0 through to it
    plans = []
    plan = pointcount.sample_plan

    def counted(*args, **kwargs):
        plans.append(kwargs.get("q0"))
        return plan(*args, **kwargs)

    monkeypatch.setattr(pointcount, "sample_plan", counted)
    triangle = tutte_delcon(polygon(3))
    reports = [
        (lambda: complement_class(triangle, 4), None),
        (lambda: complement_report(triangle, 4, (2, 3, 4, 5), 7), None),
        (lambda: locus_complement_class([triangle, Q * T1], 4), None),
        (lambda: fixed_q_report(triangle, 2, 3), 2),
        (lambda: fixed_q_class(triangle, 3), 2),
        (lambda: fixed_q_report(triangle, -1, 3, (3, 4, 5), 7), -1),
    ]
    for run, q0 in reports:
        plans.clear()
        run()
        assert plans == [q0]


def test_potts_count_plans_twice(monkeypatch):
    # the CLI plans once before it builds Z_G, and the report once more
    plans = []
    plan = pointcount.sample_plan

    def counted(*args, **kwargs):
        plans.append(args)
        return plan(*args, **kwargs)

    monkeypatch.setattr(pointcount, "sample_plan", counted)
    result = CliRunner().invoke(cli, ["count", "--family", "polygon", "--m", "2"])
    assert result.exit_code == 0
    assert len(plans) == 2


@pytest.mark.parametrize("dim", range(0, 8))
def test_integer_fit_recovers_the_class(dim):
    # T^dim plus a lower class with coefficients of both signs, sampled at
    # the first dim + 1 ladder fields
    lower = ClassPoly(tuple((-1) ** i * (3 * i + 1) for i in range(dim)) or (0,))
    cls = ClassPoly((0,) * dim + (1,)) + lower
    samples = [(q, cls.eval_int(q - 1)) for q in pointcount.FIELD_LADDER[: dim + 1]]
    assert pointcount._class_from_samples(samples, dim) == cls
