import hashlib
import json
import re
import sys
from fractions import Fraction
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circledyn import classifier, formats
from circledyn.errors import InvalidInput
from circledyn.exact import format_rational, parse_rational
from circledyn.expanding import expanding_map
from circledyn.measures import CircleMeasure, CylinderSpec
from circledyn.partitions import family_from_homeo
from circledyn.plmaps import Observable, PLCircleMap
from circledyn.cli import figure3_map, main
from circledyn.shredder import ShredConfig, shred, verify_shredding

from conftest import random_pl_homeo, random_pl_map

F = Fraction


class TestFormats:
    def test_map_roundtrip(self, rng):
        f = random_pl_map(rng, degree=2)
        rec = formats.map_to_record(f)
        assert formats.map_from_record(json.loads(json.dumps(rec))) == f

    def test_measure_roundtrip(self):
        mu = CircleMeasure(
            atoms=[(F(1, 3), F(1, 4))],
            pieces=[(F(0), F(1, 4), F(2)), (F(1, 2), F(3, 4), F(1))],
        )
        rec = formats.measure_to_record(mu)
        assert formats.measure_from_record(rec) == mu

    def test_spec_roundtrip(self):
        spec = CylinderSpec.bernoulli([F(2, 3), F(1, 3)], 3)
        rec = formats.spec_to_record(spec)
        assert formats.spec_from_record(rec) == spec

    def test_spec_roundtrip_over_twelve_letters(self):
        # digits 10 and 11 are written "a" and "b"
        probs = [F(1, 2), *[F(1, 22)] * 11]
        for spec in (CylinderSpec.lebesgue(12, 1), CylinderSpec.bernoulli(probs, 2)):
            rec = json.loads(formats.dumps(formats.spec_to_record(spec)))
            assert formats.spec_from_record(rec) == spec
        assert formats.spec_to_record(CylinderSpec.dirac_zero(12, 2)) == {
            "ell": 12, "p": 2, "values": {"00": "1/1"}
        }
        assert formats.spec_to_record(CylinderSpec(12, 2, {(11, 10): F(1)}))[
            "values"
        ] == {"ba": "1/1"}

    def test_spec_over_36_letters_has_no_record(self):
        with pytest.raises(InvalidInput, match="37 letters have no string form"):
            formats.spec_to_record(CylinderSpec.dirac_zero(37, 1))
        with pytest.raises(InvalidInput, match="37 letters have no string form"):
            formats.spec_from_record({"ell": 37, "p": 1, "values": {"0": "1/1"}})
        with pytest.raises(InvalidInput, match=r"word characters \['A'\]"):
            formats.spec_from_record({"ell": 12, "p": 1, "values": {"A": "1/1"}})

    def test_family_roundtrip(self, rng):
        fam = family_from_homeo(random_pl_homeo(rng), 2, 3)
        rec = formats.family_to_record(fam)
        assert formats.family_from_record(rec) == fam

    @pytest.mark.parametrize(
        "key, value", [("ell", 2.9), ("p", 1.7), ("p", True), ("p", "1")]
    )
    def test_spec_counts_must_be_json_integers(self, key, value):
        rec = {"ell": 2, "p": 1, "values": {"0": "1/1"}, key: value}
        with pytest.raises(
            InvalidInput, match=f"malformed cylinder spec record: {key} {value!r} is not an integer"
        ):
            formats.spec_from_record(rec)

    @pytest.mark.parametrize(
        "key, value", [("ell", 2.0), ("depth", 1.9), ("depth", True), ("depth", "1")]
    )
    def test_family_counts_must_be_json_integers(self, key, value):
        rec = formats.family_to_record(family_from_homeo(PLCircleMap.identity(), 2, 1))
        rec[key] = value
        with pytest.raises(
            InvalidInput, match=f"malformed family record: {key} {value!r} is not an integer"
        ):
            formats.family_from_record(rec)

    def test_report_roundtrip(self):
        g, report = shred(expanding_map(2), F(1, 2))
        rec = formats.report_to_record(report)
        report2 = formats.report_from_record(json.loads(json.dumps(rec)))
        assert report2.tau == report.tau
        assert report2.regions == report.regions
        assert report2.cycles == report.cycles
        assert verify_shredding(g, report2).all_passed

    @pytest.mark.parametrize("eps", [F(1, 2), F(1, 5), F(1, 10)])
    @pytest.mark.parametrize("name", ["e2", "e3", "random"])
    def test_report_record_round_trips(self, name, eps, rng):
        if name == "random":
            f = random_pl_map(rng, n_break=5, degree=1, den=16)
        else:
            f = expanding_map(int(name[1]))
        _, report = shred(f, eps)
        rec = json.loads(formats.dumps(formats.report_to_record(report)))
        assert formats.report_from_record(rec) == report

    @pytest.mark.parametrize("cells, subdivisions", [(7, 3), (16, 5), (40, 3)])
    def test_report_record_round_trips_explicit_grid(self, cells, subdivisions):
        _, report = shred(
            expanding_map(2), F(1, 2), ShredConfig(cells, subdivisions)
        )
        assert report.subdivisions == subdivisions
        rec = formats.report_to_record(report)
        assert len(rec["cells"]) == cells
        assert formats.report_from_record(rec) == report

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_report_record_round_trip_property(self, data):
        # a small random PL map: breakpoints and values on the grid of 1/8
        inner = data.draw(st.lists(st.integers(1, 7), max_size=3, unique=True))
        bps = [F(0), *(F(k, 8) for k in sorted(inner)), F(1)]
        vals = [F(data.draw(st.integers(0, 7)), 8) for _ in bps[:-1]]
        vals.append(vals[0] + data.draw(st.integers(0, 2)))
        eps = data.draw(st.sampled_from([F(1, 3), F(1, 5)]))
        _, report = shred(PLCircleMap(bps, vals), eps)
        text = formats.dumps(formats.report_to_record(report))
        back = formats.report_from_record(json.loads(text))
        fields = attrgetter("eps", "tau", "subdivisions", "regions", "cycles")
        assert fields(back) == fields(report)
        assert formats.dumps(formats.report_to_record(back)) == text
        # an anchor moved by 2^-70 is no longer the grid's
        rec = json.loads(text)
        row = data.draw(st.sampled_from(rec["anchors"]))
        j = data.draw(st.integers(0, len(row) - 1))
        row[j] = format_rational(parse_rational(row[j]) + F(1, 2**70))
        with pytest.raises(InvalidInput, match="malformed report record: anchors "):
            formats.report_from_record(rec)

    def test_observable_roundtrip(self):
        # a hand-written record of the tent at 3/8: peak 1, 0 at the antipode
        rec = {
            "breakpoints": ["0/1", "3/8", "7/8", "1/1"],
            "values": ["1/4", "1/1", "0/1", "1/4"],
        }
        phi = formats.observable_from_record(rec)
        tent = Observable.tent(F(3, 8))
        assert phi.breakpoints == tent.breakpoints
        assert phi.values == tent.values

    def test_malformed_rejected(self):
        with pytest.raises(InvalidInput):
            formats.map_from_record({"breakpoints": ["0/1"]})
        # numbers where "num/den" strings belong
        with pytest.raises(InvalidInput):
            formats.map_from_record({"breakpoints": [0, 1], "liftValues": [0, 1]})
        # a word key that is not a base-ell digit string
        with pytest.raises(InvalidInput):
            formats.spec_from_record({"ell": 2, "p": 1, "values": {"x": "1/1"}})
        # floats are not exact rationals, in maps or in measures
        with pytest.raises(InvalidInput):
            PLCircleMap([0, 0.3, 1], [0, F(1, 2), 1])
        with pytest.raises(InvalidInput):
            CircleMeasure(pieces=[(0, 0.5, 2)])
        with pytest.raises(InvalidInput):
            CircleMeasure(atoms=[(0.25, 1)])
        with pytest.raises(InvalidInput):
            Observable([0, 0.5, 1], [0, 1, 0])
        # every other coordinate is stored as a Fraction
        mu = CircleMeasure(atoms=[(1, F(1, 2))], pieces=[(0, F(1, 2), 1)])
        f = PLCircleMap([0, "1/3", 1], [0, F(1, 2), 1])
        coords = [*mu.atoms[0], *mu.pieces[0], *f.breakpoints, *f.lift_values]
        assert all(type(x) is Fraction for x in coords)


@pytest.fixture
def workdir(tmp_path: Path) -> Path:
    ident = formats.dumps(formats.map_to_record(PLCircleMap.identity()))
    (tmp_path / "identity.json").write_text(ident)
    e2 = formats.dumps(formats.map_to_record(expanding_map(2)))
    (tmp_path / "e2.json").write_text(e2)
    rot = formats.dumps(formats.map_to_record(PLCircleMap.rotation(F(2, 5))))
    (tmp_path / "r25.json").write_text(rot)
    leb = formats.dumps(formats.measure_to_record(CircleMeasure.lebesgue()))
    (tmp_path / "lebesgue.json").write_text(leb)
    dirac = formats.dumps(
        formats.spec_to_record(CylinderSpec.dirac_zero(2, 3))
    )
    (tmp_path / "dirac.json").write_text(dirac)
    return tmp_path


def spike(g: PLCircleMap, start: Fraction, length: Fraction, height: int) -> PLCircleMap:
    """g with a spike of the given height at the midpoint of the arc
    [start, start + length), which must not wrap: the lift rises by height
    over the middle half of the arc and falls back."""
    mid, quarter = start + length / 2, length / 4
    bps = sorted({*g.breakpoints, mid - quarter, mid, mid + quarter})
    return PLCircleMap(
        bps, [g.lift_evaluate(b) + (height if b == mid else 0) for b in bps]
    )


class TestCli:
    def test_demo_figure3(self, workdir, capsys):
        code = main(
            ["--out-dir", str(workdir / "out"), "demo", "--figure3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trapping regions: 8" in out

    def test_demo_report_reads_back(self, workdir):
        assert main(["--out-dir", str(workdir / "out"), "demo", "--figure3"]) == 0
        rec = json.loads((workdir / "out" / "demo_report.json").read_text())
        _, report = shred(figure3_map(), F(3, 4), ShredConfig(cells=5, subdivisions=4))
        assert formats.report_from_record(rec) == report

    def test_shred_identity(self, workdir, capsys):
        code = main(
            [
                "--out-dir", str(workdir / "out"),
                "shred", str(workdir / "identity.json"), "--eps", "1/2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pass" in out
        assert "tau = " in out
        report = json.loads((workdir / "out" / "report.json").read_text())
        assert report["verification"]["iv"]["passed"]

    def test_shred_e2_exact_distance_under_eps(self, workdir, capsys):
        code = main(
            [
                "--out-dir", str(workdir / "out2"),
                "shred", str(workdir / "e2.json"), "--eps", "1/10",
            ]
        )
        assert code == 0
        g = formats.map_from_record(
            json.loads((workdir / "out2" / "perturbed.json").read_text())
        )
        assert expanding_map(2).c0_distance(g) < F(1, 10)

    def test_rotation_command(self, workdir, capsys):
        code = main(["rotation", str(workdir / "r25.json")])
        assert code == 0
        assert capsys.readouterr().out.strip() == "2/5"

    def test_pushforward_invariance(self, workdir):
        code = main(
            [
                "--out-dir", str(workdir / "out3"),
                "pushforward", str(workdir / "e2.json"),
                str(workdir / "lebesgue.json"), "--iters", "5",
            ]
        )
        assert code == 0
        mu = formats.measure_from_record(
            json.loads((workdir / "out3" / "measure.json").read_text())
        )
        assert mu == CircleMeasure.lebesgue()

    def test_wicked_window(self, workdir, capsys):
        code = main(
            [
                "--out-dir", str(workdir / "out4"),
                "wicked", str(workdir / "identity.json"),
                str(workdir / "dirac.json"),
                "--ell", "2", "--eps", "1/4", "--n", "8",
            ]
        )
        assert code == 0
        rows = (workdir / "out4" / "window.csv").read_text().strip().splitlines()
        assert rows[0] == "k,spec_distance,in_window"
        for line in rows[1:]:
            k, dist, inw = line.split(",")
            if int(inw) and int(k) >= 2:
                assert dist == "0/1"
        # the Dirac target leaves empty cells: the family record reads back
        # byte for byte, and only the homeomorphism is refused
        text = (workdir / "out4" / "family.json").read_text()
        fam = formats.family_from_record(json.loads(text))
        assert fam.is_degenerate
        assert formats.dumps(formats.family_to_record(fam)) == text
        with pytest.raises(InvalidInput, match="family has empty cells"):
            fam.homeomorphism()

    def test_wicked_lebesgue_target_all_zeros(self, workdir, tmp_path):
        leb_spec = formats.dumps(
            formats.spec_to_record(CylinderSpec.lebesgue(2, 2))
        )
        (tmp_path / "leb_spec.json").write_text(leb_spec)
        code = main(
            [
                "--out-dir", str(workdir / "outL"),
                "wicked", str(workdir / "identity.json"),
                str(tmp_path / "leb_spec.json"),
                "--ell", "2", "--eps", "1/4", "--n", "7",
            ]
        )
        assert code == 0
        rows = (workdir / "outL" / "window.csv").read_text().strip().splitlines()
        assert all(line.split(",")[1] == "0/1" for line in rows[1:])

    def test_classify_identity(self, workdir, capsys):
        code = main(
            [
                "--out-dir", str(workdir / "out5"),
                "classify", str(workdir / "identity.json"),
                "--grid", "50", "--horizons", "10,100",
            ]
        )
        assert code == 0
        rec = json.loads((workdir / "out5" / "classification.json").read_text())
        assert rec["wholesome"]["status"] == "witnessed"
        assert rec["wonderful"]["status"] == "refuted"

    def test_birkhoff_command(self, workdir, capsys):
        code = main(
            [
                "birkhoff", str(workdir / "identity.json"),
                "--x", "1/3", "--obs", "tent:1/3", "--horizons", "10,100",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "10,1/1" in out

    def test_invalid_input_exit_code(self, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"breakpoints": ["0/1"], "liftValues": ["0/1"]}')
        code = main(["shred", str(bad), "--eps", "1/2"])
        assert code == 2

    def test_determinism_byte_identical(self, workdir):
        outs = []
        for name in ("d1", "d2"):
            main(
                [
                    "--out-dir", str(workdir / name),
                    "shred", str(workdir / "e2.json"), "--eps", "1/5",
                ]
            )
            outs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted((workdir / name).iterdir())
                    if p.name != "manifest.json"
                }
            )
        assert outs[0] == outs[1]

    def test_cesaro_command(self, workdir):
        code = main(
            [
                "--out-dir", str(workdir / "out6"),
                "cesaro", str(workdir / "e2.json"),
                str(workdir / "lebesgue.json"), "--n", "4",
            ]
        )
        assert code == 0
        mu = formats.measure_from_record(
            json.loads((workdir / "out6" / "measure.json").read_text())
        )
        assert mu == CircleMeasure.lebesgue()

    def test_resource_cap_exit_code(self, workdir, tmp_path):
        # uneven degree-3 map: push-forward complexity grows per step and a
        # tiny cap must trip the resource exit code
        bumpy = formats.map_to_record(
            PLCircleMap([F(0), F(1, 3), F(1)], [F(0), F(3, 2), F(3)])
        )
        (tmp_path / "bumpy.json").write_text(formats.dumps(bumpy))
        code = main(
            [
                "--out-dir", str(workdir / "out8"),
                "--max-breakpoints", "10",
                "cesaro", str(tmp_path / "bumpy.json"),
                str(workdir / "lebesgue.json"), "--n", "30",
            ]
        )
        assert code == 3

    def test_pushforward_cap_exit_code(self, workdir, tmp_path, capsys):
        # the same per-iterate cap as cesaro, read from --max-breakpoints
        bumpy = formats.map_to_record(
            PLCircleMap([F(0), F(1, 5), F(1)], [F(0), F(3, 2), F(2)])
        )
        (tmp_path / "bumpy.json").write_text(formats.dumps(bumpy))
        code = main(
            [
                "--out-dir", str(workdir / "outP"),
                "--max-breakpoints", "10",
                "pushforward", str(tmp_path / "bumpy.json"),
                str(workdir / "lebesgue.json"), "--iters", "20",
            ]
        )
        assert code == 3
        assert "exceeds cap 10" in capsys.readouterr().err
        assert not (workdir / "outP" / "measure.json").exists()

    def test_pushforward_past_the_digit_limit_exits_resource(self, tmp_path, capsys):
        # the atom at 1/5 gains about a bit per iterate: after 10 000 its
        # position cannot be written as decimal digits, and nothing is
        f = PLCircleMap([F(0), F(1, 2), F(1)], [F(0), F(1, 3), F(1)])
        (tmp_path / "map.json").write_text(formats.dumps(formats.map_to_record(f)))
        mu = CircleMeasure(atoms=[(F(1, 5), F(1))], pieces=[])
        (tmp_path / "mu.json").write_text(formats.dumps(formats.measure_to_record(mu)))
        out = tmp_path / "out"
        argv = [
            "--out-dir", str(out), "pushforward",
            str(tmp_path / "map.json"), str(tmp_path / "mu.json"), "--iters",
        ]
        assert main([*argv, "10000"]) == 3
        err = capsys.readouterr().err
        assert "10001-bit numerator" in err
        assert f"{sys.get_int_max_str_digits()}-digit limit" in err
        assert not out.exists()
        assert main([*argv, "6000"]) == 0
        back = formats.measure_from_record(json.loads((out / "measure.json").read_text()))
        assert len(back.atoms) == 1

    def test_wicked_over_twelve_letters(self, workdir, tmp_path, capsys):
        target = CylinderSpec.bernoulli([F(1, 2), *[F(1, 22)] * 11], 1)
        (tmp_path / "t12.json").write_text(
            formats.dumps(formats.spec_to_record(target))
        )
        code = main(
            [
                "--out-dir", str(workdir / "out12"),
                "wicked", str(workdir / "identity.json"),
                str(tmp_path / "t12.json"),
                "--ell", "12", "--eps", "1/4", "--n", "3",
            ]
        )
        assert code == 0
        assert "window exact: True" in capsys.readouterr().out

    def test_cylinder_spec_cap_exit_code(self, workdir, tmp_path, capsys):
        # 10^9 words at ell 10, level 9: capped before any word is listed
        spec = {"ell": 10, "p": 9, "values": {"000000000": "1/1"}}
        (tmp_path / "huge.json").write_text(formats.dumps(spec))
        code = main(
            [
                "--out-dir", str(workdir / "outH"),
                "wicked", str(workdir / "identity.json"),
                str(tmp_path / "huge.json"),
                "--ell", "10", "--eps", "1/4", "--n", "3",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "10^9 words" in err and "1000000" in err

    def test_wicked_cap_exit_code(self, workdir, capsys, monkeypatch):
        # eps 10^-9 keeps n0 = 30 levels of 2^k cells: capped before any is
        # listed, so the chart is never pulled back
        def listed(*args):
            raise AssertionError("family_from_homeo ran before the cap check")

        monkeypatch.setattr("circledyn.expanding.family_from_homeo", listed)
        code = main(
            [
                "--out-dir", str(workdir / "outW"),
                "wicked", str(workdir / "identity.json"), str(workdir / "dirac.json"),
                "--ell", "2", "--eps", "1/1000000000", "--n", "40",
            ]
        )
        assert code == 3
        assert "above the cap 500000" in capsys.readouterr().err

    def test_shred_cap_exit_code(self, workdir, capsys):
        # 3000001 cells x 1000001 subdivisions: capped before shred allocates
        code = main(
            [
                "--out-dir", str(workdir / "outS"),
                "shred", str(workdir / "e2.json"), "--eps", "1/1000000",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "9000012000004 breakpoints" in err and "cap 1000000" in err
        assert not (workdir / "outS" / "perturbed.json").exists()

    def test_verify_command(self, workdir):
        main(
            [
                "--out-dir", str(workdir / "out7"),
                "shred", str(workdir / "e2.json"), "--eps", "1/5",
            ]
        )
        code = main(
            [
                "verify",
                str(workdir / "out7" / "perturbed.json"),
                str(workdir / "out7" / "report.json"),
            ]
        )
        assert code == 0


class TestReportSoundness:
    def _shred(self, workdir, name):
        code = main(
            [
                "--out-dir", str(workdir / name),
                "shred", str(workdir / "e2.json"), "--eps", "1/5",
            ]
        )
        assert code == 0
        return json.loads((workdir / name / "report.json").read_text())

    def _verify(self, workdir, name, record):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(record))
        return main(
            ["verify", str(workdir / "shred" / "perturbed.json"), str(path)]
        )

    def test_regions_listed_twice_fail_item_iii(self, workdir, capsys):
        rec = self._shred(workdir, "shred")
        assert len(rec["regions"]) == 6
        # four regions of measure 3/20 each, every one listed twice: the arc
        # lengths add up to 6/5 but the union has measure 3/5 < 1 - eps
        rec["regions"] = [r for r in rec["regions"][:4] for _ in range(2)]
        capsys.readouterr()
        assert self._verify(workdir, "forged", rec) == 1
        rows = {
            line.split()[0]: line for line in capsys.readouterr().out.splitlines()
        }
        assert "FAIL" in rows["iii"]
        assert "m(union U) = 3/5" in rows["iii"]
        assert "arcs sum to 6/5" in rows["iii"]
        assert "overlaps an earlier region" in rows["iii"]

    def test_report_without_regions_is_invalid(self, workdir, capsys):
        rec = self._shred(workdir, "shred")
        rec["regions"] = []
        assert self._verify(workdir, "empty", rec) == 2
        assert "no regions" in capsys.readouterr().err

    def test_region_without_cycles_entry_is_invalid(self, workdir, capsys):
        rec = self._shred(workdir, "shred")
        rec["cycles"] = rec["cycles"][1:]
        assert self._verify(workdir, "nocycle", rec) == 2
        assert "has no cycles entry" in capsys.readouterr().err

    def test_region_label_not_integers_is_invalid(self, workdir, capsys):
        rec = self._shred(workdir, "shred")
        rec["regions"][0]["label"] = [[0], 0]
        assert self._verify(workdir, "badlabel", rec) == 2
        assert "is not a list of integers" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["x", "len", -1, True, 1.0, "no list"])
    def test_tau_outside_the_cells_is_invalid(self, workdir, capsys, bad):
        rec = self._shred(workdir, "shred")
        tau = rec["tau"]
        if bad == "no list":
            rec["tau"] = len(tau)
        else:
            # a first entry that names no cell
            rec["tau"] = [len(tau) if bad == "len" else bad, *tau[1:]]
        assert self._verify(workdir, "badtau", rec) == 2
        assert "is not a list of integers in [0, len(tau))" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["2/1", "1", "0", "-1/5"])
    def test_eps_outside_unit_interval_is_invalid(self, workdir, capsys, eps):
        rec = self._shred(workdir, "shred")
        rec["eps"] = eps
        assert self._verify(workdir, "badeps", rec) == 2
        err = capsys.readouterr().err
        assert "malformed report record: eps" in err
        assert "must lie in (0, 1)" in err

    @pytest.mark.parametrize("field", ["cells", "arcs"])
    def test_region_field_not_a_list_is_invalid(self, workdir, capsys, field):
        rec = self._shred(workdir, "shred")
        rec["regions"][0][field] = 5
        assert self._verify(workdir, "badfield", rec) == 2
        assert "invalid input: malformed report record" in capsys.readouterr().err

    def test_region_without_arcs_is_invalid(self, workdir, capsys):
        rec = self._shred(workdir, "shred")
        rec["regions"][0]["arcs"] = []
        label = tuple(rec["regions"][0]["label"])
        assert self._verify(workdir, "noarcs", rec) == 2
        err = capsys.readouterr().err
        assert f"invalid input: malformed report record: region {label} has no arcs" in err

    def test_cycles_label_listed_twice_is_invalid(self, workdir, capsys):
        # the reader used to keep the last entry without a word
        rec = self._shred(workdir, "shred")
        first = rec["cycles"][0]
        rec["cycles"].append({"label": first["label"], "sets": first["sets"][:1]})
        capsys.readouterr()
        assert self._verify(workdir, "twocycles", rec) == 2
        out, err = capsys.readouterr()
        assert out == ""
        label = tuple(first["label"])
        assert f"malformed report record: cycles lists label {label} twice" in err


    @pytest.mark.parametrize(
        "tamper",
        [
            lambda cells: "x",
            lambda cells: [None],
            lambda cells: cells[:-1],
            lambda cells: [*cells[:-1], cells[-1] + 1],
            lambda cells: [float(c) for c in cells],
        ],
        ids=["string", "null", "member-dropped", "member-moved", "floats"],
    )
    def test_region_cells_that_are_not_its_tau_basin_are_invalid(
        self, workdir, capsys, tamper
    ):
        rec = self._shred(workdir, "shred")
        region = rec["regions"][1]
        assert len(region["cells"]) > 1
        region["cells"] = tamper(region["cells"])
        capsys.readouterr()
        assert self._verify(workdir, "badcells", rec) == 2
        out, err = capsys.readouterr()
        assert out == ""
        label = tuple(region["label"])
        assert f"malformed report record: cells of region {label} " in err

    @pytest.mark.parametrize(
        "field, tamper",
        [
            ("anchors", lambda rec: rec["anchors"][3].__setitem__(1, "1/3")),
            ("delta", lambda rec: rec.__setitem__("delta", "1/1000")),
            (
                "interiorCells",
                lambda rec: rec["interiorCells"][2][0].__setitem__("length", "1/97"),
            ),
            ("subcells", lambda rec: rec["subcells"].pop()),
            ("cells", lambda rec: rec["cells"][1].__setitem__("start", "1/17")),
            ("orbits", lambda rec: rec["orbits"][0].append(1)),
            # a new scale inside (0, 1) no longer matches the stored delta
            ("delta", lambda rec: rec.__setitem__("eps", "1/4")),
        ],
        ids=["anchors", "delta", "interiorCells", "subcells", "cells", "orbits", "eps"],
    )
    def test_grid_field_that_eps_tau_and_subcells_do_not_give_is_invalid(
        self, workdir, capsys, field, tamper
    ):
        rec = self._shred(workdir, "shred")
        tamper(rec)
        capsys.readouterr()
        assert self._verify(workdir, "badgrid", rec) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"invalid input: malformed report record: {field} " in err

    def test_a_spike_inside_a_region_is_capped_before_the_preimage_index(
        self, workdir, capsys
    ):
        # a spike of height 10^8 inside the first arc of region (0, 0), which
        # is no cycle arc: the region's image is no longer points, so item v
        # takes the preimage route, whose index would list about 2 * 10^8
        # entries; the count is checked before any is listed
        rec = self._shred(workdir, "shred")
        assert rec["regions"][0]["label"] == [0, 0]
        first = rec["regions"][0]["arcs"][0]
        g = formats.map_from_record(
            json.loads((workdir / "shred" / "perturbed.json").read_text())
        )
        start, length = parse_rational(first["start"]), parse_rational(first["length"])
        spiked = spike(g, start, length, 10**8)
        path = workdir / "spiked.json"
        path.write_text(formats.dumps(formats.map_to_record(spiked)))
        capsys.readouterr()
        code = main(["verify", str(path), str(workdir / "shred" / "report.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert re.search(
            r"the preimage index of \d+ pieces needs \d{9} entries, \d{9} beyond "
            r"one per piece, above the breakpoint cap 1000000",
            err,
        ), err

    @pytest.mark.parametrize(
        "field, value", [("tau", []), ("subcells", []), ("subcells", [[]])]
    )
    def test_empty_tau_or_subcells_is_invalid(self, workdir, capsys, field, value):
        rec = self._shred(workdir, "shred")
        rec[field] = value
        capsys.readouterr()
        assert self._verify(workdir, "emptygrid", rec) == 2
        err = capsys.readouterr().err
        assert "malformed report record: tau and subcells must not be empty" in err

@pytest.mark.parametrize(
    "argv",
    [
        ["shred", "{e2}", "--eps", "abc"],
        ["shred", "{e2}", "--eps", "1/0"],
        ["birkhoff", "{e2}", "--x", "1/x", "--obs", "tent:1/3"],
        ["birkhoff", "{e2}", "--x", "1/3", "--obs", "tent:one"],
        ["birkhoff", "{e2}", "--x", "1/3", "--obs", "const:2/0"],
        ["classify", "{e2}", "--grid", "2", "--tol", "1//100"],
    ],
)
def test_malformed_rational_exits_invalid(workdir, capsys, argv):
    argv = [a.format(e2=workdir / "e2.json") for a in argv]
    assert main(["--out-dir", str(workdir / "bad"), *argv]) == 2
    assert "not a rational number" in capsys.readouterr().err


def tented_rotation() -> PLCircleMap:
    """x + 29/97 plus a PL tent of height 1/4850, breakpoints 0, 1/4, 3/4, 1."""
    a, bump = F(29, 97), F(1, 4850)
    return PLCircleMap(
        [F(0), F(1, 4), F(3, 4), F(1)],
        [a, F(1, 4) + a + bump, F(3, 4) + a - bump, 1 + a],
    )


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["rotation", "{h}", "--max-period", "200"], "undetected; bracket [55/184, 29/97]\n"),
        (["classify", "{h}", "--grid", "2", "--max-period", "200"], None),
    ],
    ids=["rotation", "classify"],
)
def test_tented_rotation_gives_farey_bracket(tmp_path, capsys, argv, stdout):
    # the search stops at the Farey neighbours of order 200, whose printed
    # form is short; the old exact lift walk outgrew int-to-str here
    h = tmp_path / "h.json"
    h.write_text(formats.dumps(formats.map_to_record(tented_rotation())))
    argv = [a.format(h=h) for a in argv]
    assert main(["--out-dir", str(tmp_path / "out"), *argv]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if stdout is not None:
        assert out == stdout
    else:
        rec = json.loads((tmp_path / "out" / "classification.json").read_text())
        assert rec["wonderful"]["status"] == "inconclusive"
        for verdict in rec.values():
            assert verdict["evidence"]["rotation_bracket"] == ["55/184", "29/97"]


def test_classify_writes_basins_as_rationals(tmp_path, capsys):
    # fixed points 0, 1/4, 1/2, 3/4; 1/4 and 3/4 attract, each from half
    # the circle
    h = PLCircleMap(
        [F(k, 8) for k in range(9)],
        [F(0), F(3, 16), F(1, 4), F(5, 16), F(1, 2), F(11, 16), F(3, 4), F(13, 16), F(1)],
    )
    path = tmp_path / "h.json"
    path.write_text(formats.dumps(formats.map_to_record(h)))
    assert main(["--out-dir", str(tmp_path / "out"), "classify", str(path), "--grid", "2"]) == 0
    rec = json.loads((tmp_path / "out" / "classification.json").read_text())
    evidence = rec["wonderful"]["evidence"]
    assert evidence["basins"] == [["1/4", "1/2"], ["3/4", "1/2"]]
    assert evidence["rotation_number"] == "0/1"
    assert evidence["basin_coverage"] == "1/1"


def test_rotation_search_growth_cap_exits_resource(tmp_path, capsys, monkeypatch):
    # the tented map's powers grow; at the real cap the search stops near
    # period 1100, at cap 16 before its seventh composition
    monkeypatch.setattr(classifier, "_POWER_GROWTH_CAP", 16)
    h = tmp_path / "h.json"
    h.write_text(formats.dumps(formats.map_to_record(tented_rotation())))
    code = main(["rotation", str(h), "--max-period", "100000"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err == "resource cap: rotation search at bracket (5/17, 3/10): powers outgrew h\n"


def test_rotation_search_growth_cap_passes_powers_that_do_not_grow(monkeypatch):
    # every power of a rotation costs no more than the rotation, so even
    # cap 1 lets the 999 compositions to 1/1000 through
    monkeypatch.setattr(classifier, "_POWER_GROWTH_CAP", 1)
    rot = classifier.rotation_number(PLCircleMap.rotation(F(1, 1000)), 1000)
    assert (rot.value, rot.period) == (F(1, 1000), 1000)


@pytest.mark.parametrize(
    "argv",
    [
        ["rotation", "{h}", "--max-period", "0"],
        ["rotation", "{h}", "--max-period", "-3"],
        ["classify", "{h}", "--grid", "2", "--max-period", "0"],
    ],
)
def test_max_period_below_one_exits_invalid(tmp_path, capsys, argv):
    h = tmp_path / "h.json"
    h.write_text(formats.dumps(formats.map_to_record(tented_rotation())))
    argv = [a.format(h=h) for a in argv]
    assert main(["--out-dir", str(tmp_path / "out"), *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"invalid input: max period must be >= 1, got {argv[-1]}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "{e2}", "--horizons", "10", "--grid", "0"], "grid size must be >= 1, got 0"),
        (["classify", "{e2}", "--horizons", "10", "--grid", "-5"],
         "grid size must be >= 1, got -5"),
        (["classify", "{e2}", "--horizons", "10", "--tol", "2"], "tol must lie in (0, 1), got 2"),
        (["classify", "{e2}", "--horizons", "10", "--max-period", "-5"],
         "max period must be >= 1, got -5"),
        (["shred", "{e2}", "--eps", "1/5", "--cells", "0"], "cell count must be >= 1, got 0"),
        (["shred", "{e2}", "--eps", "1/5", "--cells", "-3"], "cell count must be >= 1, got -3"),
        (["pushforward", "{e2}", "{leb}", "--iters", "-1"],
         "iteration count must be >= 0, got -1"),
        (["classify", "{e2}", "--horizons", "10,0"], "horizons must be integers >= 1, got 0"),
        (["birkhoff", "{e2}", "--x", "1/3", "--obs", "tent:0", "--horizons", "-2"],
         "horizons must be integers >= 1, got -2"),
        # the complexity cap is read before any push-forward, also when none is due
        (["--max-breakpoints", "0", "pushforward", "{e2}", "{leb}"],
         "measure complexity cap must be >= 1, got 0"),
        (["--max-breakpoints", "0", "pushforward", "{e2}", "{leb}", "--iters", "0"],
         "measure complexity cap must be >= 1, got 0"),
        (["--max-breakpoints", "0", "cesaro", "{e2}", "{leb}", "--n", "5"],
         "measure complexity cap must be >= 1, got 0"),
        (["--max-breakpoints", "-2", "cesaro", "{e2}", "{leb}", "--n", "1"],
         "measure complexity cap must be >= 1, got -2"),
    ],
)
def test_count_out_of_range_exits_invalid(workdir, capsys, argv, message):
    # the doubling map: classify takes the general path, not the rotation search
    argv = [a.format(e2=workdir / "e2.json", leb=workdir / "lebesgue.json") for a in argv]
    assert main(["--out-dir", str(workdir / "bad"), *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"invalid input: {message}" in err
    assert not (workdir / "bad").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["birkhoff", "{e2}", "--x", "1/3", "--obs", "tent:0", "--horizons", "10,1000001"],
         "horizon 1000001 exceeds the cap 1000000 steps"),
        (["classify", "{e2}", "--grid", "100001", "--horizons", "10,1000"],
         "grid of 100001 points to horizon 1000 is 100001000 steps, above the cap 100000000"),
        (["classify", "{e2}", "--grid", "1", "--horizons", "1000001"],
         "horizon 1000001 exceeds the cap 1000000 steps"),
    ],
    ids=["birkhoff-horizon", "classify-grid", "classify-horizon"],
)
def test_orbit_sizes_above_their_caps_exit_resource_at_once(workdir, capsys, monkeypatch, argv, message):
    def walk(*args):
        raise AssertionError("an orbit was walked")

    monkeypatch.setattr("circledyn.orbits._walk", walk)
    argv = [a.format(e2=workdir / "e2.json") for a in argv]
    assert main(["--out-dir", str(workdir / "big"), *argv]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"resource cap: {message}\n"
    assert not (workdir / "big").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "{w}/list.json", "{w}/list.json"], "malformed map record"),
        (["pushforward", "{w}/e2.json", "{w}/atoms.json"], "malformed measure record"),
        (
            ["wicked", "{w}/identity.json", "{w}/values.json",
             "--ell", "2", "--eps", "1/4", "--n", "3"],
            "malformed cylinder spec record",
        ),
        (
            ["birkhoff", "{w}/e2.json", "--x", "1/3", "--obs", "{w}/list.json"],
            "malformed observable record",
        ),
        (
            ["classify", "{w}/e2.json", "--grid", "2",
             "--declared-specs", "{w}/list.json"],
            "malformed cylinder spec record",
        ),
        (
            ["birkhoff", "{w}/e2.json", "--x", "1/3", "--obs", "tent:1/3",
             "--horizons", "5,x"],
            "horizons must be comma-separated integers",
        ),
        (
            ["classify", "{w}/e2.json", "--grid", "2", "--horizons", "5,x"],
            "horizons must be comma-separated integers",
        ),
    ],
)
def test_input_of_the_wrong_shape_exits_invalid(workdir, capsys, argv, message):
    (workdir / "list.json").write_text("[1, 2]")
    (workdir / "atoms.json").write_text('{"atoms": 3}')
    (workdir / "values.json").write_text('{"ell": 2, "p": 1, "values": ["0", "1"]}')
    argv = [a.format(w=workdir) for a in argv]
    assert main(["--out-dir", str(workdir / "bad"), *argv]) == 2
    assert f"invalid input: {message}" in capsys.readouterr().err


def test_wicked_target_level_that_is_not_a_json_integer_exits_invalid(workdir, capsys):
    # "p": 1.7 is not read as level 1
    (workdir / "t.json").write_text('{"ell": 2, "p": 1.7, "values": {"0": "1/1"}}')
    argv = ["wicked", str(workdir / "identity.json"), str(workdir / "t.json"),
            "--ell", "2", "--eps", "1/4", "--n", "8"]
    assert main(["--out-dir", str(workdir / "bad"), *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid input: malformed cylinder spec record: p 1.7 is not an integer" in err
    assert not (workdir / "bad").exists()


# sha256 of each artifact of ``circledyn wicked`` and of its stdout; None
# where the artifact is not written (a degenerate family has no h_prime.json)
WICKED_DIGESTS = {
    "dirac": {
        "stdout": "169db3686e66f59f91b1c43ad9a870d8845c05ec39f71c8697b38baabd73ac42",
        "family.json": "c375235bd2353869a4f0d69f50b61639ec197ddf98f2d75d081a6f5b4204a571",
        "window.csv": "1cdd2c17e755069a1453b7a8a645a6beca72d65bcf0a8e26bc2e7dec72f13765",
        "cesaro.csv": "ce82b0e751b6b0ae616f8eb8f51fe5a1a9db05bfa66935fe6c481267d98c5a44",
        "h_prime.json": None,
    },
    "lebesgue": {
        "stdout": "6cadac9b517158f0c4efb6a333998edb7cf9bd7edec0b34ff0c14e227133cb2a",
        "family.json": "cc0f2cd6ba572aa08db710fe0b9d368cc43c3dd22e9d7ebe15d6be7f62062e49",
        "window.csv": "db544cc3bdf72bea9564a77f7fd96cb4744637b9570c1958cab14cd2565f0aba",
        "cesaro.csv": "6098312a2a2247f6ca848c9e4eb963a18c2ab3dc4f23f9ae7798048a23596218",
        "h_prime.json": "4777a1abcce4c9518ca7c9f4ee37b02e6ef495b3ce9562330302354b316961c9",
    },
    "bernoulli": {
        "stdout": "45ab476e0b45b18280ff02ee9b92caa294a1ca2b9b24dc6401c10c23558bcd4e",
        "family.json": "48dc6cb746bef0a5ddf65c488138d00d17674a5849ebe4d958040bfd9317c5aa",
        "window.csv": "0f9b6ec99422fdeca6b2062483602a92cd0ea20f7652729cd35b8b51a6f01f19",
        "cesaro.csv": "5b28b007c36177a53ae7f34cd3ae506e0e44bbc39185ca6008a0b7d363a9a984",
        "h_prime.json": "972664de46d9720a75996c03ea80214e62c0bef561270bcf6295fadeb8c23ac5",
    },
}


def _wicked_case(name: str) -> tuple[PLCircleMap, CylinderSpec, str, str]:
    """(homeomorphism, target, eps, n) of a pinned ``wicked`` run."""
    if name == "dirac":
        return PLCircleMap.identity(), CylinderSpec.dirac_zero(2, 3), "1/4", "8"
    if name == "lebesgue":
        return PLCircleMap.identity(), CylinderSpec.lebesgue(2, 2), "1/4", "7"
    h = PLCircleMap([F(0), F(1, 3), F(3, 4), F(1)], [F(1, 8), F(1, 2), F(5, 6), F(9, 8)])
    return h, CylinderSpec.bernoulli([F(2, 3), F(1, 3)], 2), "1/8", "8"


@pytest.mark.parametrize("name", sorted(WICKED_DIGESTS))
def test_wicked_artifacts_pinned(tmp_path, capsys, name):
    h, target, eps, n = _wicked_case(name)
    (tmp_path / "h.json").write_text(formats.dumps(formats.map_to_record(h)))
    (tmp_path / "t.json").write_text(formats.dumps(formats.spec_to_record(target)))
    code = main(
        [
            "--out-dir", str(tmp_path / "out"),
            "wicked", str(tmp_path / "h.json"), str(tmp_path / "t.json"),
            "--ell", "2", "--eps", eps, "--n", n,
        ]
    )
    assert code == 0
    digests = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for artifact in ("family.json", "window.csv", "cesaro.csv", "h_prime.json"):
        path = tmp_path / "out" / artifact
        digests[artifact] = (
            hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        )
    assert digests == WICKED_DIGESTS[name]
