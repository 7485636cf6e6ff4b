import hashlib
import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from pottsmotive.cli import WHICH, cli


@pytest.fixture
def runner():
    return CliRunner()


def test_z_polygon_text(runner):
    result = runner.invoke(cli, ["z", "--family", "polygon", "--m", "2"])
    assert result.exit_code == 0
    assert (
        result.output.strip()
        == "q*t1*t2*t3 + q^3 + q^2*t1 + q^2*t2 + q^2*t3 + q*t1*t2 + q*t1*t3 + q*t2*t3"
    )


def test_z_which_selector(runner):
    result = runner.invoke(
        cli, ["z", "--family", "polygon", "--m", "2", "--which", "phi"]
    )
    assert result.exit_code == 0
    assert result.output.strip() == "t1*t2 + t1*t3 + t2*t3"


def test_z_14_edges_prints_the_pinned_bytes(runner):
    # 2^14 = 16,384 terms, far past the few-edge outputs pinned above
    result = runner.invoke(
        cli, ["z", "--family", "chain-polygon", "--m", "3", "--k", "1", "--N", "3"]
    )
    assert result.exit_code == 0
    digest = hashlib.sha1(result.stdout_bytes).hexdigest()
    assert digest == "f877ef14db33f9560013e8093e12a24abfe344a6"


def test_z_from_file(runner, tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("V 3\n1 0 1\n2 1 2\n3 2 0\n")
    result = runner.invoke(cli, ["z", "--file", str(path), "--which", "psi"])
    assert result.exit_code == 0
    assert result.output.strip() == "t1 + t2 + t3"


def test_z_malformed_file_exits_2(runner, tmp_path):
    path = tmp_path / "bad.txt"
    for text in [
        "not a graph\n",
        "V \u00b2\n1 0 0\n",
        "V 2\n1 +0 1\n",
        "V 2\n1 0_0 1\n",
        "V 4\n1 0 \u0663\n",
        "V \u0663\n1 0 0\n",
    ]:
        path.write_text(text, encoding="utf-8")
        result = runner.invoke(cli, ["z", "--file", str(path)])
        assert result.exit_code == 2
        assert "Traceback" not in result.output


def test_z_requires_exactly_one_source(runner, tmp_path):
    result = runner.invoke(cli, ["z"])
    assert result.exit_code == 2
    path = tmp_path / "edges.txt"
    path.write_text("V 1\n1 0 0\n")
    result = runner.invoke(
        cli, ["z", "--file", str(path), "--family", "polygon", "--m", "1"]
    )
    assert result.exit_code == 2


def test_class_banana(runner):
    result = runner.invoke(cli, ["class", "--family", "banana", "--m", "3"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    # T^3 + (T-1)(T+1)^4 expanded
    assert doc["class_T"] == [-1, -3, -2, 3, 3, 1]
    assert doc["rendering"] == "T^5 + 3*T^4 + 3*T^3 - 2*T^2 - 3*T - 1"


def test_class_oracle_agreement(runner):
    result = runner.invoke(
        cli, ["class", "--family", "polygon", "--m", "2", "--oracle"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["oracle"]["match"] is True
    assert doc["class_T"] == [2, -2, -2, 2, 1]


def test_class_chain_fixed_and_variable_q(runner):
    result = runner.invoke(
        cli,
        [
            "class",
            "--family",
            "chain-polygon",
            "--m",
            "1",
            "--k",
            "1",
            "--N",
            "2",
            "--fixed-q",
        ],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["class_T"] == [0, 1, 2, 3, 2, 1]
    # without --fixed-q: T^E + (T - 1) {fixed-q}, E = 6
    result = runner.invoke(
        cli, ["class", "--family", "chain-polygon", "--m", "1", "--k", "1", "--N", "2"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["class_T"] == [0, -1, -1, -1, 1, 2, 1]
    assert doc["fixed_q"] is False


def test_class_chain_variable_q_oracle_at_dimension_7(runner, monkeypatch):
    monkeypatch.delenv("POTTS_BUDGET", raising=False)
    result = runner.invoke(
        cli,
        ["class", "--family", "chain-polygon", "--m", "2", "--k", "0", "--N", "2", "--oracle"],
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert len(doc["class_T"]) == 8  # two triangles: 6 edges, dimension 7
    assert doc["oracle"] == {"match": True, "class_T": doc["class_T"]}


@pytest.mark.parametrize(
    "args",
    [
        ["--family", "polygon", "--m", "5", "--oracle"],  # dimension 7
        ["--family", "banana", "--m", "5", "--oracle"],  # dimension 7
        # dimension 6 with fixed q
        ["--family", "chain-polygon", "--m", "2", "--k", "0", "--N", "2", "--fixed-q", "--oracle"],
        # dimension 7 with fixed q: F_4 and F_8 count the slice at x
        ["--family", "chain-polygon", "--m", "2", "--k", "1", "--N", "2", "--fixed-q", "--oracle"],
    ],
)
def test_oracle_reach_under_the_default_budget(runner, monkeypatch, args):
    monkeypatch.delenv("POTTS_BUDGET", raising=False)
    result = runner.invoke(cli, ["class", *args])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["oracle"]["match"] is True


@pytest.mark.parametrize(
    "args",
    [
        ["--family", "polygon", "--m", "6", "--oracle"],  # dimension 8
    ],
)
def test_oracle_beyond_the_default_budget_exit_3(runner, monkeypatch, args):
    monkeypatch.delenv("POTTS_BUDGET", raising=False)
    result = runner.invoke(cli, ["class", *args])
    assert result.exit_code == 3
    assert "over the budget" in result.output


def test_cone_polygon(runner):
    result = runner.invoke(cli, ["cone", "--family", "polygon", "--m", "2"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["rendering"] == "T^4 + 2*T^3 - T"


def test_chi_csv_row(runner):
    result = runner.invoke(
        cli,
        ["chi", "--family", "chain-polygon", "--m", "2", "--k", "1", "--N", "1"],
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "m,k,N,edges,class_at_T=-2,chi_c_locus,closed_form,agree"
    assert lines[1] == "2,1,1,3,-2,1,1,True"


def test_chi_grid_json(runner):
    result = runner.invoke(
        cli,
        [
            "chi",
            "--family",
            "chain-banana",
            "--m",
            "0..2",
            "--k",
            "0",
            "--N",
            "1..2",
            "--format",
            "json",
        ],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert len(doc["rows"]) == 6
    assert all(row["agree"] for row in doc["rows"])


def test_count_report(runner):
    result = runner.invoke(
        cli,
        [
            "count",
            "--family",
            "polygon",
            "--m",
            "2",
            "--primes",
            "2,3,5,7,11",
            "--check",
            "13",
        ],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["ambient_dim"] == 4
    assert doc["class_T"] == [2, -2, -2, 2, 1]
    assert doc["samples"][0] == [2, 1]
    assert doc["check"]["prime"] == 13
    assert doc["check"]["predicted"] == doc["check"]["observed"]


def test_count_fixed_q(runner):
    result = runner.invoke(
        cli, ["count", "--family", "polygon", "--m", "2", "--q", "2"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["ambient_dim"] == 3
    assert doc["class_T"] == [-2, 0, 2, 1]


def test_z_edge_budget_exit_3(runner, tmp_path):
    lines = ["V 2"] + [f"e{i} 0 1" for i in range(25)]
    path = tmp_path / "big.txt"
    path.write_text("\n".join(lines) + "\n")
    result = runner.invoke(cli, ["z", "--file", str(path)])
    assert result.exit_code == 3


@pytest.mark.parametrize(
    "args",
    [
        ["class", "--family", "polygon", "--m", "40", "--oracle"],
        ["class", "--family", "banana", "--m", "40", "--fixed-q", "--oracle"],
        ["cone", "--family", "banana", "--m", "40", "--oracle"],
    ],
)
def test_oracle_edge_budget_exit_3(runner, args):
    result = runner.invoke(cli, args)
    assert result.exit_code == 3
    assert "symbolic budget" in result.output


HUGE = "99999999999999999999"


@pytest.mark.parametrize(
    "args",
    [
        ["class", "--family", "polygon", "--m", HUGE],
        ["class", "--family", "banana", "--m", HUGE],
        ["class", "--family", "chain-banana", "--m", "1", "--N", HUGE],
        ["cone", "--family", "banana", "--m", HUGE],
        ["chi", "--family", "chain-polygon", "--m", HUGE],
        ["chi", "--family", "chain-banana", "--m", HUGE],
        ["chi", "--family", "chain-polygon", "--k", HUGE, "--N", "2"],
        ["chi", "--family", "chain-banana", "--N", HUGE],
    ],
)
def test_unrepresentable_class_exits_3(runner, args):
    result = runner.invoke(cli, args)
    assert result.exit_code == 3
    assert "too large to represent" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["count", "--family", "chain-polygon", "--m", "6", "--k", "6", "--N", "2"],
        [
            "class", "--family", "chain-polygon", "--m", "6", "--k", "6", "--N", "2",
            "--fixed-q", "--oracle",
        ],
        ["cone", "--family", "polygon", "--m", "19", "--oracle"],
    ],
)
def test_uncountable_refused_before_building_z(runner, monkeypatch, args):
    # 20 edges fit the symbolic budget, but no count report fits the ladder;
    # building Z_G first would cost seconds before the same refusal
    def never(g):
        raise AssertionError("Z_G built for a count that is refused")

    monkeypatch.setattr("pottsmotive.tutte.tutte_delcon", never)
    result = runner.invoke(cli, args)
    assert result.exit_code == 2
    assert "beyond the prime ladder" in result.output


def test_count_budget_exit_3(runner, monkeypatch):
    monkeypatch.setenv("POTTS_BUDGET", "100")
    result = runner.invoke(cli, ["count", "--family", "polygon", "--m", "2"])
    assert result.exit_code == 3


def _count(runner, *args):
    return runner.invoke(cli, ["count", "--family", "polygon", "--m", "2", *args])


def test_count_repeated_prime_exit_2(runner):
    result = _count(runner, "--primes", "3,3,5,7,11")
    assert result.exit_code == 2
    assert "repeat" in result.output


def test_count_composite_sample_prime_exit_2(runner):
    result = _count(runner, "--primes", "2,3,6,5,7")
    assert result.exit_code == 2
    assert "not primes" in result.output


def test_count_composite_check_prime_exit_2(runner):
    result = _count(runner, "--check", "15")
    assert result.exit_code == 2
    assert "not primes" in result.output


def test_count_prime_beyond_kernel_range_exit_2(runner):
    # 2^31 + 11 is prime, but above MAX_PRIME, the cap on trial division
    result = _count(runner, "--check", "2147483659")
    assert result.exit_code == 2
    assert "below 2^31" in result.output


def test_count_dimension_0_huge_prime_exit_2(runner, tmp_path):
    # no budget bounds a dimension-0 count, so only the cap keeps trial
    # division from running about 1.5e9 steps on the prime 2^61 - 1
    path = tmp_path / "point.txt"
    path.write_text("V 1\n")
    args = ["--q", "5", "--primes", "2305843009213693951", "--check", "3"]
    result = runner.invoke(cli, ["count", "--file", str(path), *args])
    assert result.exit_code == 2
    assert "below 2^31" in result.output


def test_count_check_prime_one_exit_2(runner):
    result = _count(runner, "--check", "1")
    assert result.exit_code == 2


def test_count_check_prime_among_samples_exit_2(runner):
    result = _count(runner, "--primes", "2,3,5,7,11", "--check", "11")
    assert result.exit_code == 2
    assert "also a sample prime" in result.output


@pytest.mark.parametrize(
    "q0,fields",
    [
        ("0", []),
        ("1", []),
        ("4", []),  # 1 in F_3, the first sample field
        # 1 in F_11, the check field only
        ("23", ["--primes", "3,5,7", "--check", "11"]),
    ],
    ids=["0", "1", "4", "23"],
)
def test_count_degenerate_q_exit_2(runner, monkeypatch, q0, fields):
    # refused before Z_G is built or any field is counted
    def never(g):
        raise AssertionError("Z_G built for a count that is refused")

    monkeypatch.setattr("pottsmotive.tutte.tutte_delcon", never)
    result = _count(runner, "--q", q0, *fields)
    assert result.exit_code == 2
    assert "degenerates" in result.output


def test_malformed_budget_exit_2(runner, monkeypatch):
    monkeypatch.setenv("POTTS_BUDGET", "10**30")
    result = _count(runner)
    assert result.exit_code == 2
    assert "POTTS_BUDGET" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_oracle_mismatch_exit_4(runner, monkeypatch):
    import pottsmotive.cli as cli_mod

    monkeypatch.setattr(
        cli_mod.gr, "polygon_class", lambda m: cli_mod.gr.banana_class(m + 1)
    )
    result = runner.invoke(
        cli, ["class", "--family", "polygon", "--m", "2", "--oracle"]
    )
    assert result.exit_code == 4


def test_determinism(runner):
    args = ["chi", "--family", "chain-banana", "--m", "0..3", "--k", "0..2", "--N", "1..3"]
    first = runner.invoke(cli, args)
    second = runner.invoke(cli, args)
    assert first.output == second.output
    args = ["count", "--family", "banana", "--m", "1"]
    assert runner.invoke(cli, args).output == runner.invoke(cli, args).output


def test_json_round_trip(runner):
    result = runner.invoke(cli, ["count", "--family", "banana", "--m", "2"])
    doc = json.loads(result.output)
    assert json.dumps(doc) == result.output.strip()


def test_verify_suite_green(runner):
    result = runner.invoke(cli, ["verify", "--suite", "classes", "--max-dim", "4"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["failed"] == 0
    assert doc["passed"] > 0


@pytest.mark.parametrize("max_dim", ["0", "-1"])
def test_verify_max_dim_below_one_exit_2(runner, max_dim):
    result = runner.invoke(cli, ["verify", "--suite", "oracle", "--max-dim", max_dim])
    assert result.exit_code == 2
    assert "max_dim must be at least 1" in result.output


def test_verify_failure_exit_1(runner, monkeypatch):
    from pottsmotive import verify as verify_mod

    def broken_suite(max_dim=5):
        yield "forced/failure", lambda: (False, "synthetic")

    monkeypatch.setitem(verify_mod.SUITES, "classes", broken_suite)
    result = runner.invoke(cli, ["verify", "--suite", "classes"])
    assert result.exit_code == 1
    doc = json.loads(result.output)
    assert doc["failed"] == 1


def test_verify_check_fault_is_reported_exit_1(runner, monkeypatch):
    from pottsmotive import pointcount, tutte, verify as verify_mod

    def faulty_suite(max_dim=5):
        # the kernel raises ValueError for an element outside F_5
        z = tutte.tutte_delcon(verify_mod.TRIANGLE)
        yield "forced/kernel-fault", lambda: (
            pointcount.complement_counter([z], 3, fixed_q=True)(5, 7) > 0,
            "counted",
        )
        yield "forced/after-the-fault", lambda: (True, "still run")

    monkeypatch.setitem(verify_mod.SUITES, "classes", faulty_suite)
    result = runner.invoke(cli, ["verify", "--suite", "classes"])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    doc = json.loads(result.output)
    assert (doc["passed"], doc["failed"]) == (1, 1)
    fault = doc["checks"][0]
    assert fault["name"] == "forced/kernel-fault"
    assert fault["detail"].startswith("ValueError: no first variable to fix at 7")


def test_verify_unknown_suite_exit_2(runner, monkeypatch):
    from pottsmotive import verify as verify_mod

    result = runner.invoke(cli, ["verify", "--suite", "unknown"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    # a suite the option still offers but the registry lacks exits 2 too
    monkeypatch.delitem(verify_mod.SUITES, "chi")
    result = runner.invoke(cli, ["verify", "--suite", "chi"])
    assert result.exit_code == 2
    assert "unknown suite 'chi'" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("grids", [("2..1", "0"), ("2..1", "x"), ("0", "x")])
def test_chi_empty_or_malformed_grid_exit_2(runner, grids):
    m, k = grids
    result = runner.invoke(cli, ["chi", "--family", "chain-banana", "--m", m, "--k", k])
    assert result.exit_code == 2


_ROW = ["--k", "0", "--N", "1"]


# an integer from the command line is an optional "-" and ASCII digits;
# int() would also take "+", "_", blanks and other scripts' digits
@pytest.mark.parametrize(
    "args",
    [
        ["chi", "--family", "chain-polygon", "--m", "+2", *_ROW],
        ["chi", "--family", "chain-polygon", "--m", "1_0", *_ROW],
        ["chi", "--family", "chain-polygon", "--m", "\u0663", *_ROW],
        ["chi", "--family", "chain-polygon", "--m", " 2", *_ROW],
        ["chi", "--family", "chain-banana", "--m", "0..+2", *_ROW],
        ["chi", "--family", "chain-banana", "--m", "1", "--k", "0", "--N", "1,\u0662"],
        ["class", "--family", "polygon", "--m", "\u0663"],
        ["class", "--family", "chain-polygon", "--m", "1", "--k", "+1", "--N", "2"],
        ["z", "--family", "polygon", "--m", "2 "],
        ["cone", "--family", "banana", "--m", "1_0"],
        ["count", "--family", "polygon", "--m", "2", "--primes", "+3,5,7,11", "--check", "13"],
        ["count", "--family", "polygon", "--m", "2", "--primes", "3,5,7,11", "--check", "1_3"],
        ["count", "--family", "polygon", "--m", "1", "--q", "\u0662"],
        ["count", "--family", "polygon", "--m", "1", "--q", "--2"],
        ["verify", "--max-dim", "\u0665"],
    ],
)
def test_integer_spellings_exit_2(runner, args):
    result = runner.invoke(cli, args)
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_negative_integers_still_read(runner):
    result = runner.invoke(cli, ["count", "--family", "polygon", "--m", "1", "--q", "-1"])
    assert result.exit_code == 0
    assert json.loads(result.output)["class_T"] == [1, 1, 1]
    result = runner.invoke(cli, ["class", "--family", "polygon", "--m", "-1"])
    assert result.exit_code == 2
    assert "negative polygon index" in result.output


# Sizes reach past the counting budget (ambient dimension 6) and the prime
# ladder, but every graph stays at 15 edges or fewer, so each draw is fast.
_SMALL = st.integers(min_value=-2, max_value=6).map(str)
_FAMILY = st.sampled_from(["polygon", "banana", "chain-polygon", "chain-banana"])
_FLAGS = st.lists(st.sampled_from(["--fixed-q", "--oracle"]), unique=True)
_GRID = st.one_of(
    _SMALL,
    st.tuples(_SMALL, _SMALL).map("..".join),
    st.sampled_from(["x", "1,", "1..", "1,3", ""]),
)


def _family_args(family, m, k, n):
    return ["--family", family, "--m", m, "--k", k, "--N", n]


_COMMANDS = st.one_of(
    st.builds(
        lambda fam, m, k, n, which, fmt: [
            "z", *_family_args(fam, m, k, n), "--which", which, "--format", fmt
        ],
        _FAMILY,
        st.integers(min_value=-2, max_value=3).map(str),
        st.sampled_from(["-1", "0", "1"]),
        st.sampled_from(["-1", "0", "1", "2"]),
        st.sampled_from(sorted(WHICH)),
        st.sampled_from(["text", "json"]),
    ),
    st.builds(
        lambda suite, max_dim: ["verify", "--suite", suite, "--max-dim", max_dim],
        st.sampled_from(["oracle", "classes", "cone", "chi"]),
        st.integers(min_value=-1, max_value=3).map(str),
    ),
    st.builds(
        lambda fam, m, k, n, flags: ["class", *_family_args(fam, m, k, n), *flags],
        _FAMILY,
        _SMALL,
        st.sampled_from(["-1", "0", "1"]),
        st.sampled_from(["-1", "0", "1", "2"]),
        _FLAGS,
    ),
    st.builds(
        lambda fam, m, k, n, extra: ["count", *_family_args(fam, m, k, n), *extra],
        _FAMILY,
        _SMALL,
        st.sampled_from(["0", "1"]),
        st.sampled_from(["0", "1", "2"]),
        st.one_of(
            st.just([]),
            st.tuples(st.just("--q"), _SMALL).map(list),
            st.tuples(st.just("--check"), _SMALL).map(list),
            st.tuples(
                st.just("--primes"),
                st.sampled_from(["2,3", "4,5", "x", "3,5,7,11,13,17,19,23"]),
            ).map(list),
        ),
    ),
    st.builds(
        lambda fam, m, flags: ["cone", "--family", fam, "--m", m, *flags],
        st.sampled_from(["polygon", "banana"]),
        _SMALL,
        st.lists(st.just("--oracle"), max_size=1),
    ),
    st.builds(
        lambda fam, m, k, n, fmt: [
            "chi", "--family", fam, "--m", m, "--k", k, "--N", n, "--format", fmt
        ],
        st.sampled_from(["chain-polygon", "chain-banana"]),
        _GRID,
        _GRID,
        _GRID,
        st.sampled_from(["csv", "json"]),
    ),
)


@given(_COMMANDS)
@settings(max_examples=100, deadline=None)
def test_cli_exit_codes_are_documented(args):
    result = CliRunner().invoke(cli, args)
    allowed = (0, 2) if args[0] == "verify" else (0, 2, 3, 4)
    assert result.exit_code in allowed, (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
