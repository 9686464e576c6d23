import pytest

from fqincidence import harness
from fqincidence.errors import BudgetExceeded, Unrealizable
from fqincidence.harness import (
    ExperimentConfig,
    PRESET_NAMES,
    emit,
    field_for_order,
    preset,
    random_config,
    rng_for,
    round_half_up,
    run_suite,
    sample_field_subset,
    sample_lines,
    sample_planes_one,
    sample_points3,
    smallest_realizable_q,
    split_prime_power,
)


def test_split_prime_power():
    assert split_prime_power(9) == (3, 2)
    assert split_prime_power(8) == (2, 3)
    assert split_prime_power(13) == (13, 1)
    with pytest.raises(Unrealizable):
        split_prime_power(12)


def test_round_half_up():
    assert round_half_up(1.5) == 2
    assert round_half_up(2.4999) == 2
    assert round_half_up(2.5) == 3


def test_rng_determinism():
    a = rng_for(42, 1, 2).random()
    b = rng_for(42, 1, 2).random()
    c = rng_for(42, 1, 3).random()
    assert a == b != c


def test_samplers_distinct_and_deterministic():
    fs = field_for_order(7)
    r1 = sample_points3(rng_for(5), fs, 50)
    r2 = sample_points3(rng_for(5), fs, 50)
    assert r1 == r2
    assert len(set(r1)) == 50
    lines = sample_lines(rng_for(5), fs, 20, slanted_only=True)
    assert all(ln.kind == "N" and ln.a != 0 for ln in lines)
    planes = sample_planes_one(rng_for(5), fs, 10)
    assert all(pl.rhs == 1 for pl in planes)
    assert len(sample_field_subset(rng_for(5), fs, 7)) == 7


def test_samplers_reject_oversize():
    fs = field_for_order(3)
    with pytest.raises(Unrealizable):
        sample_points3(rng_for(0), fs, 28)
    with pytest.raises(Unrealizable):
        random_config(fs, "plane", {"points": 5, "planes": 27}, seed=0)


def test_random_config_reproducible():
    fs = field_for_order(7)
    a = random_config(fs, "line", {"lines": 5, "A": 3, "B": 4}, seed=9)
    b = random_config(fs, "line", {"lines": 5, "A": 3, "B": 4}, seed=9)
    assert a == b


def test_preset_line2_q16_sizes():
    pc = preset("line-2", 16)
    assert pc.sizes["slopes"] == 9  # round(16^{4/5})
    assert pc.sizes["lines"] == 16
    assert pc.sizes["A"] == 2  # round(16^{4/15})
    assert pc.sizes["B"] == 8  # 16^{3/4}
    assert len(pc.lines) == 16
    assert len({ln.a for ln in pc.lines}) == 9


def test_preset_plane3_q9_sizes():
    pc = preset("plane-3", 9)
    assert pc.sizes["planes"] == 27  # 9^{3/2}
    assert pc.sizes["points"] == 11  # round(9^{1.1})
    assert len(pc.points) == 11 and len(pc.planes) == 27


def test_preset_light_presets():
    pc = preset("light-1", 9)
    assert pc.k == round_half_up(9 ** 0.125)
    from fqincidence.geom import max_shared_collinear

    fs = field_for_order(9)
    assert max_shared_collinear(fs, pc.points, pc.planes) <= pc.k
    pc2 = preset("light-2", 5)
    assert pc2.k == 5
    assert pc2.sizes["points"] == round_half_up(2 * 5 ** (4 / 3))


def test_preset_q2_unrealizable():
    for name in PRESET_NAMES:
        with pytest.raises(Unrealizable):
            preset(name, 2)


def test_preset_deterministic():
    a = preset("plane-1", 5, seed=3)
    b = preset("plane-1", 5, seed=3)
    assert a.points == b.points and a.planes == b.planes


def test_smallest_realizable_q_is_three():
    for name in PRESET_NAMES:
        assert smallest_realizable_q(name) == 3


def test_emit_deterministic_and_header_only(tmp_path):
    cols = ["a", "b"]
    rows = [{"a": 1, "b": True}, {"a": 2.5, "b": False}]
    p1, p2 = tmp_path / "x.csv", tmp_path / "y.csv"
    emit(rows, cols, p1)
    emit(rows, cols, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text() == "a,b\n1,true\n2.5,false\n"
    empty = tmp_path / "empty.csv"
    emit([], cols, empty)
    assert empty.read_text() == "a,b\n"


def test_emit_thousand_rows(tmp_path):
    rows = [{"a": i} for i in range(1000)]
    out = tmp_path / "k.csv"
    emit(rows, ["a"], out)
    assert len(out.read_text().splitlines()) == 1001


def _run(suite, q, **kw):
    p, n = split_prime_power(q)
    cfg = ExperimentConfig(p=p, n=n, suite=suite, **kw)
    return run_suite(cfg)


def test_suite_oracle_equivalence_rows():
    res = _run("oracle-equivalence", 5, trials=10, seed=1)
    assert len(res.rows) == 10
    assert res.failures == 0
    assert all(r["equal"] for r in res.rows)


def test_suite_unknown_name():
    with pytest.raises(ValueError):
        _run("nope", 5)


def test_suite_unconditional_no_violations():
    res = _run("unconditional", 5, trials=6, seed=2)
    assert res.failures == 0
    assert len(res.rows) == 30  # five families per trial


def test_suite_reduction_identity():
    res = _run("reduction-identity", 3, trials=5, seed=3)
    assert res.failures == 0
    assert res.rows[-1]["case"] == "full_family"
    assert res.rows[-1]["fast"] == 3**5


def test_suite_vc_plane_small():
    res = _run("vc-plane", 3, seed=4)
    assert res.failures == 0
    assert {r["side"] for r in res.rows} == {"by_point", "by_plane"}
    assert all(r["vc"] <= 3 for r in res.rows)


def test_suite_q3mod4_geometry():
    res = _run("q3mod4-geometry", 3, seed=5)
    assert res.failures == 0
    scan_rows = [r for r in res.rows if r["check"] == "sphere_scan"]
    assert {r["r"] for r in scan_rows} == {1, 2}
    by_r = {r["r"]: r for r in scan_rows}
    assert by_r[1]["lines_found"] == 0
    assert by_r[2]["lines_found"] > 0  # -2 = 1 is a square mod 3


def test_suite_q3mod4_geometry_q5_witness():
    res = _run("q3mod4-geometry", 5, seed=6)
    assert res.failures == 0


def test_suite_regular_subset_q8():
    res = _run("regular-subset", 8, trials=2, seed=7)
    assert res.failures == 0
    assert res.rows[0]["case"] == "full_space"
    assert res.rows[0]["n_u1"] == 8**3 - 1


def test_suite_calibration():
    res = _run("calibration", 4, trials=3, seed=8, alpha=0.5)
    assert res.failures == 0
    assert all(r["ratio"] <= 2.0 for r in res.rows if r["hypothesis_ok"])


def test_suite_trace_pairs_q3_frozen():
    res = _run("trace-pairs", 3, trials=3, seed=9)
    assert res.failures == 0
    assert res.rows[0]["case"] == "frozen_q3"
    assert res.rows[0]["pair_count"] == 370


def test_suite_vinh_plane_exact_main_term():
    res = _run("vinh-plane", 3, seed=10)
    assert res.failures == 0
    assert res.rows[0]["main_ratio"] == 1.0


def test_suite_preset_audit_flags_line1():
    res = _run("preset-audit", 3, seed=11)
    assert res.failures == 0
    assert res.violations > 0
    assert res.exit_code == 2
    line1 = next(r for r in res.rows if r["preset"] == "line-1")
    assert line1["hypothesis_ok"] is False


def test_suite_writes_csv(tmp_path):
    p, n = split_prime_power(3)
    out = tmp_path / "rows.csv"
    cfg = ExperimentConfig(p=p, n=n, suite="vinh-plane", out=str(out))
    run_suite(cfg)
    text = out.read_text().splitlines()
    assert text[0].startswith("suite,q,alpha,trial,seed")
    assert len(text) == 2


def test_suite_rows_deterministic_modulo_elapsed():
    a = _run("oracle-equivalence", 7, trials=8, seed=12)
    b = _run("oracle-equivalence", 7, trials=8, seed=12)
    strip = lambda rows: [
        {k: v for k, v in r.items() if k != "elapsed_ms"} for r in rows
    ]
    assert strip(a.rows) == strip(b.rows)


def test_sample_planes_one_maps_nonzero_points():
    fs = field_for_order(5)
    planes = sample_planes_one(rng_for(3), fs, 30)
    normals = sample_points3(rng_for(3), fs, 30, nonzero=True)
    assert [pl.normal for pl in planes] == normals
    assert all(pl.rhs == 1 and pl.affine_one for pl in planes)
    with pytest.raises(Unrealizable):
        sample_planes_one(rng_for(3), fs, 5**3)


def test_run_suite_fills_base_columns():
    res = _run("trace-pairs", 5, trials=3, seed=4, alpha=0.25)
    assert [r["trial"] for r in res.rows] == [1, 2, 3]
    for r in res.rows:
        assert (r["suite"], r["q"], r["alpha"], r["seed"]) == ("trace-pairs", 5, 0.25, 4)
        assert isinstance(r["elapsed_ms"], int) and r["elapsed_ms"] >= 0
        assert set(r) == set(res.columns)


def test_vc_plane_counts_vc_and_sauer_shelah_failures_separately(monkeypatch):
    from fqincidence import setsys

    real = setsys.vc_dimension
    monkeypatch.setattr(setsys, "vc_dimension",
                        lambda system, d_max: real(system, d_max)._replace(dimension=4))
    monkeypatch.setattr(setsys, "sauer_shelah", lambda z, d: -1)
    res = _run("vc-plane", 3, seed=1)
    assert len(res.rows) == 2
    assert not any(r["vc_ok"] or r["ss_ok"] for r in res.rows)
    assert res.failures == 4


@pytest.mark.parametrize("q,alpha", [(3, 2.0), (5, 2.5), (7, 2.5)])
def test_suite_calibration_skips_families_past_the_space(q, alpha):
    # 2 q^(1+alpha) and 4 q^alpha both exceed q^3: only the line family is left
    res = _run("calibration", q, trials=2, alpha=alpha)
    assert [r["bound"] for r in res.rows] == ["thm_line", "thm_line"]


def test_full_space_budget_keeps_q31_and_refuses_q32():
    assert len(harness._full_space(31)) == 31**3  # 29791 * 29790 < 10^9 pairs
    with pytest.raises(BudgetExceeded):
        harness._full_space(32)
