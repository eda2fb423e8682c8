import math
from dataclasses import replace

import pytest

from opfbench.cases import case_names, case_text
from opfbench.errors import (
    CaseParseError,
    CaseStructureError,
    InvalidNetworkError,
    ModelBuildError,
    SingularBranchError,
    UnsupportedFeatureError,
)
from opfbench.formulations import CostKind, PowerFlowKind, build_opf
from opfbench.netdata import (
    Branch,
    ComplexPU,
    Finding,
    branch_admittance,
    parse_case,
    parse_gencost_row,
    require_valid,
    serialize_case,
    validate_network,
)
from opfbench.pwlcost import PolynomialCost, PwlCurve

from helpers import counting_validations

CASE2 = """\
function mpc = case2
mpc.version = '2';
mpc.baseMVA = 100;

%% bus_i type Pd Qd Gs Bs area Vm Va baseKV zone Vmax Vmin
mpc.bus = [
	1	3	0	0	0	0	1	1	0	110	1	1.1	0.9;
	2	1	100	20	0	0	1	1	0	110	1	1.1	0.9;
];

mpc.gen = [
	1	0	0	80	-40	1	100	1	200	20;
];

mpc.branch = [
	1	2	0.01	0.1	0.02	150	0	0	0	0	1	-30	30;
];

mpc.gencost = [
	1	0	0	3	0	0	100	1000	200	2500;
];
"""


def test_parse_basic_quantities():
    net = parse_case(CASE2)
    assert net.base_mva == 100.0
    assert len(net.buses) == 2
    assert len(net.branches) == 1
    assert len(net.generators) == 1
    gen = net.generators[0]
    assert gen.pmax == 2.0  # 200 MW on a 100 MVA base
    assert gen.pmin == 0.2
    assert gen.qmax == 0.8
    assert gen.qmin == -0.4
    bus2 = net.buses[1]
    assert bus2.id == 2
    assert bus2.demand.re == 1.0  # 100 MW load
    assert bus2.demand.im == 0.2
    assert bus2.vmin == 0.9 and bus2.vmax == 1.1
    br = net.branches[0]
    assert br.rate == 1.5
    assert br.angmin == pytest.approx(math.radians(-30))
    assert br.angmax == pytest.approx(math.radians(30))
    assert net.reference_bus == 1


def test_parse_pwl_cost_scaled_to_per_unit():
    net = parse_case(CASE2)
    cost = net.generators[0].cost
    assert isinstance(cost, PwlCurve)
    assert cost.points == ((0.0, 0.0), (1.0, 1000.0), (2.0, 2500.0))


def test_gencost_row_mapping_polynomial():
    kind, payload = parse_gencost_row([2, 0, 0, 3, 1.0, 2.0, 3.0])
    assert kind == "poly"
    a, b, c = payload
    assert (a, b, c) == (3.0, 2.0, 1.0)


def test_gencost_row_mapping_pwl_points():
    kind, payload = parse_gencost_row([1, 0, 0, 3, 0, 0, 10, 10, 20, 30])
    assert kind == "pwl"
    assert payload == [(0.0, 0.0), (10.0, 10.0), (20.0, 30.0)]


def test_gencost_unknown_model_rejected():
    with pytest.raises(UnsupportedFeatureError):
        parse_gencost_row([3, 0, 0, 2, 1.0, 2.0])


def test_polynomial_cost_scaled_to_per_unit():
    text = CASE2.replace(
        "1	0	0	3	0	0	100	1000	200	2500;",
        "2	0	0	3	0.04	30	0;",
    )
    net = parse_case(text)
    cost = net.generators[0].cost
    assert isinstance(cost, PolynomialCost)
    # c and b absorb the MVA base so cost(p_pu) == cost_mw(p_mw)
    assert cost.c == pytest.approx(0.04 * 100 * 100)
    assert cost.b == pytest.approx(30 * 100)
    assert cost.a == 0.0


def test_gencost_count_mismatch():
    text = CASE2.replace(
        "mpc.gencost = [\n\t1	0	0	3	0	0	100	1000	200	2500;",
        "mpc.gencost = [\n\t1	0	0	3	0	0	100	1000	200	2500;\n"
        "\t2	0	0	3	1	1	1;",
    )
    with pytest.raises(CaseStructureError):
        parse_case(text)


def test_malformed_number_reports_line():
    text = CASE2.replace("100	1000	200	2500", "100	oops	200	2500")
    with pytest.raises(CaseParseError) as err:
        parse_case(text)
    assert err.value.line is not None


@pytest.mark.parametrize("row, bad_row", [
    # bus Va and Vm, columns the parser does not read
    ("1	3	0	0	0	0	1	1	0	110", "1	3	0	0	0	0	1	1	nan	110"),
    ("2	1	100	20	0	0	1	1	0", "2	1	100	20	0	0	1	nan	0"),
    # a row whose sum is NaN, with the infinities in generator Pg and Qg,
    # columns the parser does not read
    ("1	0	0	80	-40	1	100	1	200	20", "1	inf	-inf	80	-40	1	100	1	200	20"),
    # a row of finite numbers whose sum overflows to an infinity
    ("1	0	0	80	-40	1	100	1	200	20", "1	0	0	1e308	-40	1	1e308	1	200	20"),
], ids=["va", "vm", "inf-minus-inf", "sum-overflows"])
def test_rows_without_nan_in_a_column_read_parse(row, bad_row):
    assert CASE2.count(row) == 1
    net = parse_case(CASE2.replace(row, bad_row))
    assert len(net.buses) == 2 and len(net.generators) == 1


@pytest.mark.parametrize("repeat, first, again", [
    ("mpc.branch = [\n\t1\t2\t0.02\t0.16\t0.03\t120\t0\t0\t0\t0\t1"
     "\t-30\t30;\n];\n", 19, 30),
    ("mpc.baseMVA = 50;\n", 3, 30),
    ("mpc.baseMVA = [100];\n", 3, 30),
], ids=["table", "scalar", "scalar-as-table"])
def test_repeated_definition_rejected(repeat, first, again):
    # the repeat once replaced the first: 1 branch of 3, or base_mva 50
    text = case_text("case3_cycle")
    assert text.count("\n") == 29
    with pytest.raises(CaseParseError) as err:
        parse_case(text + repeat)
    assert err.value.line == again
    assert f"is defined again (first at line {first})" in str(err.value)


def test_repeated_string_scalar_ignored():
    text = case_text("case3_cycle") + "mpc.version = '3';\n"
    assert len(parse_case(text).branches) == 3


def test_missing_table_rejected():
    text = CASE2.replace("mpc.gencost", "mpc.other")
    with pytest.raises(CaseParseError):
        parse_case(text)


def test_bus_shunt_rejected():
    text = CASE2.replace(
        "2	1	100	20	0	0	1	1	0	110	1	1.1	0.9;",
        "2	1	100	20	0	5	1	1	0	110	1	1.1	0.9;",
    )
    with pytest.raises(UnsupportedFeatureError):
        parse_case(text)


@pytest.mark.parametrize("bus_type", [0, 5])
def test_unknown_bus_type_rejected(bus_type):
    text = CASE2.replace(
        "2	1	100	20	0	0	1	1	0	110	1	1.1	0.9;",
        f"2	{bus_type}	100	20	0	0	1	1	0	110	1	1.1	0.9;",
    )
    with pytest.raises(CaseStructureError,
                       match=f"line 8: bus 2 has unknown type {bus_type}"):
        parse_case(text)


def test_phase_shift_rejected():
    text = CASE2.replace(
        "1	2	0.01	0.1	0.02	150	0	0	0	0	1	-30	30;",
        "1	2	0.01	0.1	0.02	150	0	0	0	5	1	-30	30;",
    )
    with pytest.raises(UnsupportedFeatureError):
        parse_case(text)


def test_negative_rating_rejected():
    # only a rate of 0 means unlimited; a negative one is no limit at all
    text = CASE2.replace(
        "1	2	0.01	0.1	0.02	150	0	0	0	0	1	-30	30;",
        "1	2	0.01	0.1	0.02	-120	0	0	0	0	1	-30	30;",
    )
    with pytest.raises(CaseStructureError,
                       match="line 16: branch 1-2 has negative thermal "
                             "rating -120"):
        parse_case(text)


def test_zero_impedance_rejected():
    text = CASE2.replace(
        "1	2	0.01	0.1	0.02	150	0	0	0	0	1	-30	30;",
        "1	2	0	0	0.02	150	0	0	0	0	1	-30	30;",
    )
    with pytest.raises(SingularBranchError):
        parse_case(text)


class TestBranchAdmittance:
    def test_pure_reactance(self):
        br = Branch(1, 2, ComplexPU(0.0, 0.1), 0.0, 0.0, 0.0, -0.5, 0.5)
        y = branch_admittance(br)
        assert y.re == 0.0
        assert y.im == pytest.approx(-10.0)

    def test_complex_reciprocal(self):
        br = Branch(1, 2, ComplexPU(0.01, 0.1), 0.0, 0.0, 0.0, -0.5, 0.5)
        y = branch_admittance(br)
        oracle = 1.0 / complex(0.01, 0.1)
        assert y.re == pytest.approx(oracle.real, rel=1e-12)
        assert y.im == pytest.approx(oracle.imag, rel=1e-12)
        assert y.re == pytest.approx(0.9901, abs=1e-4)
        assert y.im == pytest.approx(-9.901, abs=1e-3)

    def test_pure_resistance(self):
        br = Branch(1, 2, ComplexPU(1.0, 0.0), 0.0, 0.0, 0.0, -0.5, 0.5)
        y = branch_admittance(br)
        assert (y.re, y.im) == (1.0, 0.0)


class TestValidate:
    def test_consistent_case_no_errors(self):
        net = parse_case(CASE2)
        findings = validate_network(net)
        assert [f for f in findings if f.severity == "error"] == []

    def test_dangling_generator_bus(self):
        text = CASE2.replace(
            "1	0	0	80	-40	1	100	1	200	20;",
            "99	0	0	80	-40	1	100	1	200	20;",
        )
        net = parse_case(text)
        codes = [f.code for f in validate_network(net)]
        assert "dangling-generator-bus" in codes

    def test_zero_rate_warning(self):
        text = CASE2.replace(
            "1	2	0.01	0.1	0.02	150	0	0	0	0	1	-30	30;",
            "1	2	0.01	0.1	0.02	0	0	0	0	0	1	-30	30;",
        )
        net = parse_case(text)
        warn = [f for f in validate_network(net)
                if f.code == "unlimited-thermal-rating"]
        assert len(warn) == 1
        assert warn[0].severity == "warning"

    def test_negative_rate_is_an_error(self):
        # parse_case rejects a negative rating; a network built in code
        # reaches validation with one, and no builder may read it as
        # unlimited
        net = parse_case(CASE2)
        bad = replace(net, branches=(replace(net.branches[0], rate=-1.2),))
        assert validate_network(bad) == [Finding(
            "error", "negative-thermal-rating",
            "branch 0 (1-2) has negative thermal rating -120 MVA")]
        with pytest.raises(InvalidNetworkError):
            require_valid(bad)

    @pytest.mark.parametrize("pf", list(PowerFlowKind))
    def test_negative_rate_rejects_every_build(self, pf):
        net = parse_case(case_text("case3_cycle"))
        branches = list(net.branches)
        branches[0] = replace(branches[0], rate=-1.2)
        bad = replace(net, branches=tuple(branches))
        with pytest.raises(InvalidNetworkError,
                           match="negative thermal rating"):
            build_opf(bad, pf, CostKind.LAMBDA)

    def test_default_angle_bounds_warning(self):
        text = CASE2.replace(
            "1	2	0.01	0.1	0.02	150	0	0	0	0	1	-30	30;",
            "1	2	0.01	0.1	0.02	150	0	0	0	0	1	0	0;",
        )
        net = parse_case(text)
        assert net.branches[0].angmax == pytest.approx(math.radians(30))
        codes = [f.code for f in validate_network(net)]
        assert "default-angle-bounds" in codes

    def test_isolated_bus_warning(self):
        text = CASE2.replace(
            "2	1	100	20	0	0	1	1	0	110	1	1.1	0.9;",
            "2	1	100	20	0	0	1	1	0	110	1	1.1	0.9;\n"
            "	3	1	0	0	0	0	1	1	0	110	1	1.1	0.9;",
        )
        net = parse_case(text)
        codes = [f.code for f in validate_network(net)]
        assert "isolated-bus" in codes

    def test_reference_bus_fallback_warning(self):
        text = CASE2.replace(
            "1	3	0	0	0	0	1	1	0	110	1	1.1	0.9;",
            "1	2	0	0	0	0	1	1	0	110	1	1.1	0.9;",
        )
        net = parse_case(text)
        codes = [f.code for f in validate_network(net)]
        assert "reference-bus-fallback" in codes
        assert net.reference_bus == 1  # lowest-id generator bus

    @staticmethod
    def _loaded(name, margin):
        """Bundled case with its demand scaled to ``margin`` times its total
        generator pmax."""
        net = parse_case(case_text(name))
        factor = margin * sum(g.pmax for g in net.generators) / sum(
            b.demand.re for b in net.buses)
        return replace(net, buses=tuple(
            replace(b, demand=ComplexPU(factor * b.demand.re,
                                        factor * b.demand.im))
            for b in net.buses))

    @pytest.mark.parametrize("margin, fires", [
        (0.95, False), (1.001, True), (1.15, True), (3.0, True)])
    def test_insufficient_capacity_warning(self, margin, fires):
        findings = validate_network(self._loaded("case9_loop", margin))
        found = [f for f in findings if f.code == "insufficient-capacity"]
        assert len(found) == fires
        # a warning: the infeasible network still builds
        assert all(f.severity == "warning" for f in found)
        assert [f for f in findings if f.severity == "error"] == []

    @pytest.mark.parametrize("name", case_names())
    def test_no_bundled_case_lacks_capacity(self, name):
        codes = [f.code for f in validate_network(parse_case(case_text(name)))]
        assert "insufficient-capacity" not in codes

    def test_findings_computed_once_per_network(self, monkeypatch):
        calls = counting_validations(monkeypatch)
        net = parse_case(CASE2)
        # a network made with replace validates its own data
        dangling = replace(net, generators=(
            replace(net.generators[0], bus=99),))
        first = validate_network(dangling)
        assert [f.code for f in first] == ["dangling-generator-bus"]
        first.clear()  # each call returns a list of its own
        assert validate_network(dangling) == [Finding(
            "error", "dangling-generator-bus",
            "generator 0 references missing bus 99")]
        assert validate_network(net) == []
        assert validate_network(net) == []
        assert calls == [dangling, net]

    def test_require_valid_names_every_error(self):
        net = parse_case(CASE2)
        require_valid(net)
        broken = replace(net, generators=(replace(
            net.generators[0], bus=99,
            cost=PolynomialCost(0.0, 1.0, -1.0)),))
        with pytest.raises(InvalidNetworkError) as info:
            require_valid(broken)
        assert [f.code for f in info.value.errors] == [
            "dangling-generator-bus", "non-convex-polynomial-cost"]
        assert isinstance(info.value, ModelBuildError)
        assert "missing bus 99" in str(info.value)


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        net = parse_case(CASE2)
        text = serialize_case(net)
        again = parse_case(text)
        assert again == net
        assert serialize_case(again) == text

    def test_per_unit_inverse_within_ulp(self):
        net = parse_case(CASE2)
        raw = net.raw_tables
        for g, row in zip(net.generators, raw["gen"]):
            for pu, mw in [(g.pmax, row[8]), (g.pmin, row[9]),
                           (g.qmax, row[3]), (g.qmin, row[4])]:
                assert abs(pu * net.base_mva - mw) <= math.ulp(max(1.0, abs(mw)))

    def test_programmatic_network_serializes(self):
        from opfbench.netdata import Branch, Bus, ComplexPU, Generator, Network

        net = Network(
            base_mva=100.0,
            buses=(Bus(1, 3, 0.9, 1.1, ComplexPU(0.0, 0.0)),
                   Bus(2, 1, 0.9, 1.1, ComplexPU(0.5, 0.125))),
            branches=(Branch(1, 2, ComplexPU(0.01, 0.125), 0.0, 0.0, 1.5,
                             -0.5, 0.5),),
            generators=(Generator(1, 0.25, 2.0, -0.5, 0.5,
                                  PwlCurve.from_points([(0.25, 100.0),
                                                        (2.0, 2000.0)])),),
        )
        again = parse_case(serialize_case(net))
        assert again.generators[0].pmax == pytest.approx(2.0)
        assert again.buses[1].demand.re == pytest.approx(0.5)
        assert again.branches[0].rate == pytest.approx(1.5)
        pts = again.generators[0].cost.points
        assert pts[0][0] == pytest.approx(0.25)
        assert pts[1][1] == pytest.approx(2000.0)

    def test_gens_at_bus_partition(self):
        text = CASE2.replace(
            "mpc.gen = [\n\t1	0	0	80	-40	1	100	1	200	20;",
            "mpc.gen = [\n\t1	0	0	80	-40	1	100	1	200	20;\n"
            "\t2	0	0	40	-20	1	100	1	100	0;",
        ).replace(
            "mpc.gencost = [\n\t1	0	0	3	0	0	100	1000	200	2500;",
            "mpc.gencost = [\n\t1	0	0	3	0	0	100	1000	200	2500;\n"
            "\t1	0	0	2	0	0	100	1200;",
        )
        net = parse_case(text)
        # derived from the generators, also after replace reorders them
        for n in (net, replace(net, generators=net.generators[::-1])):
            seen = sorted(
                k for ks in n.gens_at_bus.values() for k in ks
            )
            assert seen == list(range(len(n.generators)))
            for bus_id, ks in n.gens_at_bus.items():
                assert list(ks) == sorted(ks)
                for k in ks:
                    assert n.generators[k].bus == bus_id

    def test_replaced_network_serializes_its_own_data(self):
        net = parse_case(case_text("case3_cycle"))
        doubled = replace(net, buses=tuple(
            replace(b, demand=ComplexPU(2.0 * b.demand.re,
                                        2.0 * b.demand.im))
            for b in net.buses))
        again = parse_case(serialize_case(doubled))
        for b, a in zip(doubled.buses, again.buses):
            assert a.demand.re == pytest.approx(b.demand.re, rel=1e-12)
            assert a.demand.im == pytest.approx(b.demand.im, rel=1e-12)
        assert sum(b.demand.re for b in again.buses) > sum(
            b.demand.re for b in net.buses)
        # data equal to what was parsed is still written from the source rows
        same = replace(net, buses=tuple(replace(b) for b in net.buses))
        assert serialize_case(same) == serialize_case(net)


def test_curve_preprocess_rejects_is_an_error_finding():
    # pmin above pmax leaves no curve to clean; parse_case rejects such a
    # row, a replaced network reaches validation with it
    net = parse_case(CASE2)
    gen = net.generators[0]
    bad = replace(net, generators=(replace(gen, pmin=gen.pmax + 0.1),))
    errors = [f for f in validate_network(bad) if f.severity == "error"]
    assert [f.code for f in errors] == ["unusable-cost-curve"]
    assert "exceeds pmax" in errors[0].message
    with pytest.raises(InvalidNetworkError):
        require_valid(bad)
