"""End-to-end CLI runs through main(argv), exercising files and exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from padic_mra import TestFunction, TrigPolynomial, build_wavelet_set, haar_mask, omega, reframe, serialize
from padic_mra.cli import main
from padic_mra.generators import random_function
from padic_mra.wavelets import WaveletSet


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestHaarCommand:
    def test_exit_and_json_shape(self, capsys):
        code, out = run(capsys, "haar", "--p", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["mra"]["criterion_ok"] is True
        assert doc["mra"]["orthonormal"]["verdict"] is True
        assert doc["frame"]["A"] == pytest.approx(4.0)

    def test_output_is_deterministic(self, capsys):
        _, first = run(capsys, "haar", "--p", "3", "--json")
        _, second = run(capsys, "haar", "--p", "3", "--json")
        assert first == second

    def test_human_mode_prints_verdict(self, capsys):
        code, out = run(capsys, "haar", "--p", "2")
        assert code == 0
        assert "PASS" in out

    def test_composite_prime_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["haar", "--p", "4"])
        assert exc.value.code == 2


class TestArgumentLimits:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("limits")
        main(["haar", "--p", "2", "--out", str(d / "haar.json")])
        doc = json.loads((d / "haar.json").read_text())
        (d / "phi.json").write_text(json.dumps(doc["phi"]))
        (d / "ws.json").write_text(json.dumps(doc["wavelet_set"]))
        return d

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("command", ["ortho", "frame", "check"])
    def test_tolerance_must_be_positive_and_finite(self, files, capsys, command, tol):
        flag, name = ("--ws", "ws.json") if command == "frame" else ("--phi", "phi.json")
        with pytest.raises(SystemExit) as exc:
            main([command, flag, str(files / name), "--tol", tol])
        assert exc.value.code == 2

    def test_prime_above_the_maximum_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kozyrev", "--p", "19"])
        assert exc.value.code == 2


class TestInputFiles:
    """Files the library refuses on load or before it builds a grid: exit 2."""

    @pytest.fixture(scope="class")
    def p19(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("p19")
        chars = np.exp(2j * np.pi * np.arange(19) / 19)
        ws = WaveletSet(
            omega(19, 0, 0),
            haar_mask(19),
            [TestFunction(19, 0, 1, chars)],
            [TrigPolynomial.from_taps(19, chars, scale=0)],
        )
        docs = {
            "phi.json": serialize.function_to_json(omega(19, 0, 1)),
            "mask.json": serialize.mask_to_json(haar_mask(19)),
            "ws.json": serialize.wavelet_set_to_json(ws),
            "f.json": serialize.function_to_json(omega(19, 0, 1)),
        }
        for name, doc in docs.items():
            (d / name).write_text(json.dumps(doc))
        return d

    @pytest.mark.parametrize(
        "argv",
        [
            ["ortho", "--phi", "phi.json"],
            ["wavelets", "--phi", "phi.json", "--mask", "mask.json"],
            ["frame", "--ws", "ws.json"],
            ["transform", "--f", "f.json", "--ws", "ws.json"],
        ],
    )
    def test_prime_above_the_maximum_is_refused(self, p19, capsys, argv):
        args = [str(p19 / a) if a.endswith(".json") else a for a in argv]
        assert main(args) == 2
        assert "exceeds the supported maximum" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values",
        [
            [[1.0, 0.0, 0.0]], [[1.0]], [["a", 0.0]], [["1", "0"]], [[1.0, "0"]], [[{"re": 1.0}, 0.0]], [1.0], [[[1.0, 0.0]]],
            [[True, 0.5]], [[0.5, False]], [[1, True]], [[True, False]],
        ],
    )
    def test_malformed_pairs_are_refused(self, tmp_path, capsys, values):
        (tmp_path / "phi.json").write_text(json.dumps({"p": 2, "N": 0, "M": 0, "values": values}))
        assert main(["check", "--phi", str(tmp_path / "phi.json")]) == 2
        assert "[re, im] pairs" in capsys.readouterr().err

    def test_wavelet_without_mask_is_refused(self, tmp_path, capsys):
        main(["haar", "--p", "3", "--out", str(tmp_path / "haar.json")])
        doc = json.loads((tmp_path / "haar.json").read_text())["wavelet_set"]
        # phi itself as a third wavelet, with still two masks
        phi = serialize.function_from_json(doc["phi"])
        doc["wavelets"].append(serialize.function_to_json(reframe(phi, 0, 1)))
        (tmp_path / "ws.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["frame", "--ws", str(tmp_path / "ws.json")]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "3 wavelets but 2 masks" in captured.err

    @pytest.fixture(scope="class")
    def nan_files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("nan")
        main(["haar", "--p", "2", "--M", "1", "--out", str(d / "haar.json")])
        doc = json.loads((d / "haar.json").read_text())
        doc["phi"]["values"][1][0] = float("nan")
        doc["wavelet_set"]["wavelets"][0]["values"][1][0] = float("nan")
        (d / "phi.json").write_text(json.dumps(doc["phi"]))
        (d / "ws.json").write_text(json.dumps(doc["wavelet_set"]))
        return d

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--phi", "phi.json"],
            ["ortho", "--phi", "phi.json"],
            ["frame", "--ws", "ws.json"],
        ],
    )
    def test_non_finite_values_are_refused(self, nan_files, capfd, argv):
        args = [str(nan_files / a) if a.endswith(".json") else a for a in argv]
        assert main(args) == 2
        # capfd also sees what LAPACK writes to the file descriptors directly
        out, err = capfd.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "finite" in err


class TestMaskPipeline:
    def test_full_chain(self, tmp_path, capsys):
        mask_file = tmp_path / "mask.json"
        code, _ = run(
            capsys,
            "mask",
            "new-from-roots",
            "--p",
            "2",
            "--N",
            "2",
            "--roots",
            "1/4,3/8,7/16,15/16",
            "--out",
            str(mask_file),
        )
        assert code == 0
        assert json.loads(mask_file.read_text())["N"] == 2

        phi_file = tmp_path / "phi.json"
        csv_file = tmp_path / "hat.csv"
        code, _ = run(
            capsys,
            "refine",
            "--mask",
            str(mask_file),
            "--M",
            "1",
            "--out",
            str(phi_file),
            "--csv",
            str(csv_file),
        )
        assert code == 0
        rows = csv_file.read_text().strip().splitlines()
        assert rows[0] == "index,point,abs_hat"
        assert len(rows) == 1 + 8

        code, out = run(capsys, "check", "--phi", str(phi_file), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["criterion_ok"] is True
        assert doc["lset"]["members"] == [0, 4, 6, 7]
        # phi-hat lives on the 4 bins of L, within the count p^N = 4
        assert (doc["fit_rows"], doc["axiom_a_route"]) == (4, "derived")
        assert doc["set_rule_ok"] is True and doc["axiom_a_ok"] is True

        code, out = run(capsys, "ortho", "--phi", str(phi_file), "--json")
        assert code == 1  # shifts are not orthonormal; that is the verdict
        assert json.loads(out)["verdict"] is False

        ws_file = tmp_path / "ws.json"
        code, _ = run(
            capsys,
            "wavelets",
            "--phi",
            str(phi_file),
            "--mask",
            str(mask_file),
            "--out",
            str(ws_file),
        )
        assert code == 0

        code, out = run(capsys, "frame", "--ws", str(ws_file), "--json")
        assert code == 0
        doc = json.loads(out)
        assert 0 < doc["A"] <= doc["B"]
        assert doc["inclusion_count"] == {
            "support_bins": 8, "target_bins": 8, "wavelet_translates": 4, "rank": 8, "deficiency": 0
        }

    def test_mask_eval(self, tmp_path, capsys):
        mask_file = tmp_path / "haarlike.json"
        run(
            capsys,
            "mask",
            "new-from-roots",
            "--p",
            "2",
            "--N",
            "0",
            "--roots",
            "1/2",
            "--out",
            str(mask_file),
        )
        eval_file, info_file = tmp_path / "eval.json", tmp_path / "info.json"
        code, out = run(
            capsys, "mask", "eval", "--mask", str(mask_file), "--xi", "1/2", "--json",
            "--out", str(eval_file),
        )
        assert code == 0
        value = json.loads(out)["value"]
        assert abs(complex(value[0], value[1])) < 1e-12
        assert json.loads(eval_file.read_text()) == json.loads(out)
        code, out = run(capsys, "mask", "info", "--mask", str(mask_file), "--out", str(info_file))
        assert code == 0
        assert json.loads(info_file.read_text())["degree"] == 1

    def test_refine_rejects_unsupported_period(self, tmp_path, capsys):
        mask_file = tmp_path / "mask.json"
        run(
            capsys,
            "mask",
            "new-from-roots",
            "--p",
            "2",
            "--N",
            "2",
            "--roots",
            "1/4,3/8,7/16,15/16",
            "--out",
            str(mask_file),
        )
        code, _ = run(capsys, "refine", "--mask", str(mask_file), "--M", "0")
        assert code == 1


class TestFrameCommand:
    def test_mask_that_does_not_refine_phi_fails(self, quartic_phi, tmp_path, capsys):
        # the constant mask 1 passes every check that reads only phi and the
        # wavelets; the refinement residual is what fails
        ws = build_wavelet_set(quartic_phi, TrigPolynomial(2, np.array([1.0 + 0j]), scale=2))
        (tmp_path / "ws.json").write_text(json.dumps(serialize.wavelet_set_to_json(ws)))
        code, out = run(capsys, "frame", "--ws", str(tmp_path / "ws.json"), "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["refinement_residual"] > 1.0 and doc["inclusion_residual"] <= 1e-12
        code, out = run(capsys, "frame", "--ws", str(tmp_path / "ws.json"))
        assert code == 1
        assert "refinement residual   1.22e+00" in out and "FAIL" in out

    def test_text_shows_every_residual(self, tmp_path, capsys):
        main(["haar", "--p", "3", "--out", str(tmp_path / "haar.json")])
        doc = json.loads((tmp_path / "haar.json").read_text())["wavelet_set"]
        (tmp_path / "ws.json").write_text(json.dumps(doc))
        capsys.readouterr()
        code, out = run(capsys, "frame", "--ws", str(tmp_path / "ws.json"))
        assert code == 0
        for label in ("refinement residual", "V0-orthogonality", "factorization", "inclusion residual"):
            assert label in out
        assert "PASS" in out


class TestCheckFailures:
    def test_non_mra_function_exits_one(self, tmp_path, capsys):
        mask_file = tmp_path / "mask.json"
        run(
            capsys,
            "mask",
            "new-from-roots",
            "--p",
            "2",
            "--N",
            "1",
            "--roots",
            "1/4,3/8,7/8",
            "--out",
            str(mask_file),
        )
        phi_file = tmp_path / "phi.json"
        run(
            capsys,
            "refine",
            "--mask",
            str(mask_file),
            "--M",
            "1",
            "--out",
            str(phi_file),
        )
        code, out = run(capsys, "check", "--phi", str(phi_file), "--json")
        assert code == 1
        assert json.loads(out)["criterion_ok"] is False

    def test_bad_rational_token_is_usage_error(self, capsys):
        code = main(
            ["mask", "new-from-roots", "--p", "2", "--N", "1", "--roots", "1/3"]
        )
        assert code == 2

    def test_missing_file_is_usage_error(self, capsys):
        code = main(["check", "--phi", "/nonexistent/phi.json"])
        assert code == 2


class TestTransformCommand:
    def test_round_trip(self, tmp_path, capsys):
        ws_file = tmp_path / "ws.json"
        run(capsys, "haar", "--p", "2", "--out", str(ws_file))
        # the haar payload nests the wavelet set; extract it for transform
        ws_doc = json.loads(ws_file.read_text())["wavelet_set"]
        ws_only = tmp_path / "ws_only.json"
        ws_only.write_text(json.dumps(ws_doc))

        rng = np.random.default_rng(3)
        f = random_function(rng, 2, 0, 2)
        f_file = tmp_path / "f.json"
        f_file.write_text(serialize.dumps_canonical(serialize.function_to_json(f)))

        code, out = run(
            capsys,
            "transform",
            "--f",
            str(f_file),
            "--ws",
            str(ws_only),
            "--j0",
            "0",
            "--j1",
            "2",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["round_trip_error"] < 1e-8

    def test_zero_wavelet_is_refused(self, tmp_path, capsys):
        ws = build_wavelet_set(omega(2, 0, 0), haar_mask(2))
        psi = ws.wavelets[0]
        zero = WaveletSet(ws.phi, ws.scaling_mask, [TestFunction(2, *psi.frame, np.zeros(psi.n))], ws.masks)
        (tmp_path / "ws.json").write_text(json.dumps(serialize.wavelet_set_to_json(zero)))
        (tmp_path / "f.json").write_text(json.dumps(serialize.function_to_json(omega(2, 0, 2))))
        code = main(["transform", "--f", str(tmp_path / "f.json"), "--ws", str(tmp_path / "ws.json")])
        assert code == 2
        assert "error: wavelet 0 is identically zero" in capsys.readouterr().err


class TestKozyrevCommand:
    @pytest.mark.parametrize("p", ["2", "3", "5"])
    def test_verifies(self, capsys, p):
        code, out = run(capsys, "kozyrev", "--p", p, "--json")
        assert code == 0
        assert json.loads(out)["ok"] is True


class TestSerializationRoundTrips:
    def test_function(self, quartic_phi):
        doc = serialize.function_to_json(quartic_phi)
        back = serialize.function_from_json(doc)
        assert back.frame == quartic_phi.frame
        assert np.array_equal(back.values, quartic_phi.values)

    def test_mask(self, quartic_mask):
        doc = serialize.mask_to_json(quartic_mask)
        back = serialize.mask_from_json(doc)
        assert back.scale == quartic_mask.scale
        assert np.array_equal(back.coeffs, quartic_mask.coeffs)

    def test_wavelet_set(self, quartic_phi, quartic_mask):
        from padic_mra import build_wavelet_set

        ws = build_wavelet_set(quartic_phi, quartic_mask)
        doc = serialize.wavelet_set_to_json(ws)
        back = serialize.wavelet_set_from_json(doc)
        assert np.array_equal(back.wavelets[0].values, ws.wavelets[0].values)
        assert np.array_equal(back.scaling_mask.coeffs, ws.scaling_mask.coeffs)

    def test_canonical_dump_is_stable(self, quartic_mask):
        doc = serialize.mask_to_json(quartic_mask)
        a = serialize.dumps_canonical(doc)
        b = serialize.dumps_canonical(serialize.mask_to_json(quartic_mask))
        assert a == b
