from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from fqincidence import apps, harness
from fqincidence.errors import BudgetExceeded, Unrealizable
from fqincidence.geom import Line2, Plane3
from fqincidence.harness import (
    ExperimentConfig,
    PRESET_NAMES,
    emit,
    field_for_order,
    preset,
    random_config,
    rng_for,
    run_suite,
    sample_field_subset,
    sample_lines,
    sample_planes_one,
    sample_points2,
    sample_points3,
    split_prime_power,
)


def test_split_prime_power():
    assert split_prime_power(9) == (3, 2)
    assert split_prime_power(8) == (2, 3)
    assert split_prime_power(13) == (13, 1)
    assert split_prime_power(1048573) == (1048573, 1)
    assert split_prime_power(2**20) == (2, 20)
    for q in (12, 1021 * 1019, 1, 0):
        with pytest.raises(Unrealizable):
            split_prime_power(q)


def test_scales_round_exactly():
    # 4096^(1/6) = 4 and 1024^(3/10) = 8 exactly, while the doubles read
    # 3.9999999999999996 and 7.999999999999999
    assert harness._rounded(4096, Fraction(1, 6)) == 4
    assert harness._rounded(3, 1, Fraction(1, 2)) == 2  # 1.5 rounds half up
    assert harness._rounded(9, Fraction(1, 8)) == 1
    assert harness._ceil(4096, Fraction(7, 6), 2) == 32768
    assert harness._ceil(1024, Fraction(3, 10)) == 8
    assert harness._ceil(9, Fraction(1, 2), 4) == 12
    assert harness._ceil(9, Fraction(3, 2), 2) == 54
    assert harness._ceil(9, Fraction(3, 2) + Fraction(1, 1000), 2) == 55


def test_rng_determinism():
    a = rng_for(42, 1, 2).random()
    b = rng_for(42, 1, 2).random()
    c = rng_for(42, 1, 3).random()
    assert a == b != c


def test_samplers_distinct_and_deterministic():
    fs = field_for_order(7)
    r1 = sample_points3(rng_for(5), fs, 50)
    r2 = sample_points3(rng_for(5), fs, 50)
    assert np.array_equal(r1, r2)
    assert len(set(map(tuple, r1.tolist()))) == 50
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


@pytest.mark.parametrize("sample,space", [
    (sample_field_subset, lambda q: q),
    (sample_points2, lambda q: q * q),
    (sample_lines, lambda q: q * q + q),
    (partial(sample_lines, slanted_only=True), lambda q: (q - 1) * q),
    (partial(sample_lines, with_vertical=False), lambda q: q * q),
], ids=["field", "points2", "lines", "slanted", "no-vertical"])
@pytest.mark.parametrize("q", [4, 5])
def test_samplers_take_their_whole_space_and_refuse_one_more(sample, space, q):
    fs = field_for_order(q)
    drawn = sample(rng_for(q), fs, space(q))
    drawn = list(map(tuple, drawn.tolist())) if isinstance(drawn, np.ndarray) else list(drawn)
    assert len(set(drawn)) == len(drawn) == space(q)
    with pytest.raises(Unrealizable):
        sample(rng_for(q), fs, space(q) + 1)


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
    assert pc.k == 1  # 9^(1/8) = 1.316...
    from fqincidence.geom import max_shared_collinear

    fs = field_for_order(9)
    assert max_shared_collinear(fs, pc.points, pc.planes) <= pc.k
    pc2 = preset("light-2", 5)
    assert pc2.k == 5
    assert pc2.sizes["points"] == 17  # 2 * 5^(4/3) = 17.09...


def test_preset_q2_unrealizable():
    for name in PRESET_NAMES:
        with pytest.raises(Unrealizable):
            preset(name, 2)


def test_preset_deterministic():
    a = preset("plane-1", 5, seed=3)
    b = preset("plane-1", 5, seed=3)
    assert np.array_equal(a.points, b.points) and a.planes == b.planes


def test_every_preset_builds_at_q3():
    for name in PRESET_NAMES:
        assert preset(name, 3).sizes


def _counting(monkeypatch, name):
    """Patch harness.name with a wrapper that records each call; the list."""
    calls, real = [], getattr(harness, name)
    monkeypatch.setattr(harness, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


def test_preset_audit_builds_each_preset_once(monkeypatch):
    calls = _counting(monkeypatch, "preset")
    _run("preset-audit", 7, seed=1)
    assert [(name, q) for name, q in calls] == [(name, 3) for name in PRESET_NAMES]


@pytest.mark.parametrize("q", [3, 7, 9, 11])
def test_preset_checks_a_collinearity_cap_only_below_q(monkeypatch, q):
    # light-1's cap q^(1/8) is below q; light-2's cap q cannot bind, as a
    # line holds q points, so only light-1 measures its draws
    calls = _counting(monkeypatch, "max_shared_collinear")
    for name in ("plane-1", "plane-2", "plane-3", "light-1", "light-2"):
        calls.clear()
        preset(name, q, seed=2)
        assert bool(calls) == (name == "light-1"), name


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


@pytest.mark.parametrize("short", [0, 1])
@pytest.mark.parametrize("suite,column", [("trace-pairs", "ok"), ("unconditional", "holds")])
def test_trace_pair_verdicts_decide_in_integers(suite, column, short, monkeypatch):
    # one trace class of k members, so the floor |U|^2 / classes is k^2,
    # which as a float rounds above k^2: the verdict holds at equality and
    # fails one pair short of it
    k = 2**28 + 3
    assert k * k / 1 > k * k
    report = apps.TracePairReport([k], k * k - short, 1, 1.0, k * k / 1, 1.0)
    monkeypatch.setattr(apps, "trace_pairs", lambda fs, U, Up: report)
    res = _run(suite, 5, trials=2, seed=3)
    verdicts = [r[column] for r in res.rows if r.get("family", "trace_pairs") == "trace_pairs"]
    assert verdicts == [not short] * 2
    assert res.failures == (2 if short else 0)


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


def test_run_suite_refuses_negative_trials_before_touching_out(tmp_path):
    out = tmp_path / "rows.csv"
    with pytest.raises(ValueError, match="trials"):
        run_suite(ExperimentConfig(7, 1, "calibration", trials=-3, out=str(out)))
    assert not out.exists()
    assert run_suite(ExperimentConfig(7, 1, "calibration", trials=0)).rows == []


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
    assert [pl.normal for pl in planes] == list(map(tuple, normals.tolist()))
    assert (planes.rhs == 1).all() and planes.normals.any(axis=1).all()
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


# -- the samplers' random stream ----------------------------------------------

def _digits(i, q, dim):
    return tuple(i // q**d % q for d in range(dim))


# sampler, its index range at order q, and the object an index stands for
SAMPLER_STREAMS = {
    "field": (sample_field_subset, lambda q: range(q), lambda i, q: i),
    "points2": (sample_points2, lambda q: range(q * q), lambda i, q: _digits(i, q, 2)),
    "points3": (sample_points3, lambda q: range(q**3), lambda i, q: _digits(i, q, 3)),
    "points3-nonzero": (partial(sample_points3, nonzero=True), lambda q: range(1, q**3),
                        lambda i, q: _digits(i, q, 3)),
    "planes": (sample_planes_one, lambda q: range(1, q**3),
               lambda i, q: Plane3(_digits(i, q, 3), 1)),
    "lines": (sample_lines, lambda q: range(q * q + q),
              lambda i, q: Line2("N", i // q, i % q) if i < q * q else Line2("V", i - q * q, 0)),
    "slanted": (partial(sample_lines, slanted_only=True), lambda q: range((q - 1) * q),
                lambda i, q: Line2("N", 1 + i // q, i % q)),
    "no-vertical": (partial(sample_lines, with_vertical=False), lambda q: range(q * q),
                    lambda i, q: Line2("N", i // q, i % q)),
}


@pytest.mark.parametrize("seed", [3, 2024])
@pytest.mark.parametrize("q", [7, 16, 81, 625])
@pytest.mark.parametrize("name", SAMPLER_STREAMS)
def test_samplers_keep_the_stream_of_a_sorted_sample(name, q, seed):
    # the reference draws sorted(rng.sample(...)) and decodes it by integer
    # arithmetic; each sampler must return those rows and leave the same state
    sample, space, item = SAMPLER_STREAMS[name]
    fs = field_for_order(q)
    for size in sorted({0, 1, min(len(space(q)), 40), min(len(space(q)), 300)}):
        ref = rng_for(seed, size)
        want = [item(i, q) for i in sorted(ref.sample(space(q), size))]
        rng = rng_for(seed, size)
        got = sample(rng, fs, size)
        if isinstance(got, np.ndarray):
            assert got.dtype == np.int64 and got.ndim == 2 and len(got) == size
            got = list(map(tuple, got.tolist()))
        assert list(got) == want
        assert rng.getstate() == ref.getstate()


def test_calibration_builds_no_flat_per_drawn_plane(monkeypatch):
    # every Plane3 or Line2 built anywhere goes through its class's __new__;
    # the calibration suite at q = 11 draws thousands of planes and should
    # count them as arrays, so none is built
    made = []
    for cls in (Plane3, Line2):
        real = cls.__new__

        def counting(kind, *args, _real=real, **kwargs):
            made.append(kind.__name__)
            return _real(kind, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", staticmethod(counting))
    Plane3((1, 0, 0), 1), Line2("N", 0, 0)
    assert made == ["Plane3", "Line2"]  # the patch sees a construction
    made.clear()
    res = _run("calibration", 11)
    assert len(res.rows) == 40 and res.failures == 0
    assert made == []
