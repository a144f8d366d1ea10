"""JSON forms for every object that crosses the CLI boundary.

Complex numbers are [re, im] pairs, rationals are {"num", "exp"} against
the ambient prime, functions carry their frame and value vector. Dumping
is canonical (sorted keys, fixed indentation), and load(dump(x)) == x holds
bit for bit because Python float repr round-trips exactly.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .masks import TrigPolynomial
from .mra import LSet, MraReport, OrthonormalityReport
from .padic_core import PadicRational
from .test_functions import TestFunction
from .wavelets import CoefficientTree, FrameReport, WaveletSet

__all__ = [
    "dumps_canonical",
    "rational_to_json",
    "rational_from_json",
    "function_to_json",
    "function_from_json",
    "mask_to_json",
    "mask_from_json",
    "wavelet_set_to_json",
    "wavelet_set_from_json",
    "tree_to_json",
    "lset_to_json",
    "orthonormality_to_json",
    "mra_report_to_json",
    "frame_report_to_json",
]


def dumps_canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _pairs(vec: np.ndarray) -> list[list[float]]:
    return [_pair(z) for z in np.asarray(vec, dtype=np.complex128)]


def _unpairs(data: list[list[float]]) -> np.ndarray:
    return np.array([complex(re, im) for re, im in data], dtype=np.complex128)


def rational_to_json(x: PadicRational) -> dict:
    return {"num": x.num, "exp": x.exp}


def rational_from_json(p: int, obj: dict) -> PadicRational:
    return PadicRational(p, int(obj["num"]), int(obj["exp"]))


def function_to_json(f: TestFunction) -> dict:
    return {
        "p": f.prime,
        "N": f.support_exp,
        "M": f.period_exp,
        "values": _pairs(f.values),
    }


def function_from_json(obj: dict) -> TestFunction:
    return TestFunction(
        int(obj["p"]), int(obj["N"]), int(obj["M"]), _unpairs(obj["values"])
    )


def mask_to_json(m: TrigPolynomial) -> dict:
    if m.scale is None:
        raise ValueError("cannot serialize a mask without a scale")
    return {"p": m.prime, "N": m.scale, "taps": _pairs(m.taps)}


def mask_from_json(obj: dict) -> TrigPolynomial:
    return TrigPolynomial.from_taps(
        int(obj["p"]), _unpairs(obj["taps"]), scale=int(obj["N"])
    )


def wavelet_set_to_json(ws: WaveletSet) -> dict:
    return {
        "p": ws.prime,
        "N": ws.support_exp,
        "M": ws.period_exp,
        "tol": ws.tol,
        "scaling_mask": mask_to_json(ws.scaling_mask),
        "wavelet_masks": [mask_to_json(m) for m in ws.masks],
        "phi": function_to_json(ws.phi),
        "wavelets": [function_to_json(f) for f in ws.wavelets],
    }


def wavelet_set_from_json(obj: dict) -> WaveletSet:
    return WaveletSet(
        phi=function_from_json(obj["phi"]),
        scaling_mask=mask_from_json(obj["scaling_mask"]),
        wavelets=[function_from_json(o) for o in obj["wavelets"]],
        masks=[mask_from_json(o) for o in obj["wavelet_masks"]],
        tol=float(obj["tol"]),
    )


def tree_to_json(tree: CoefficientTree) -> dict:
    return {
        "p": tree.prime,
        "j0": tree.j0,
        "j1": tree.j1,
        "frame": list(tree.frame),
        "tol": tree.tol,
        "approx": _pairs(tree.approx),
        "details": {
            str(j): [_pairs(row) for row in dj] for j, dj in tree.details.items()
        },
        "input_residual": tree.input_residual,
        "split_residuals": {str(j): r for j, r in tree.split_residuals.items()},
    }


def lset_to_json(ls: LSet) -> dict:
    return {
        "p": ls.prime,
        "N": ls.support_exp,
        "M": ls.period_exp,
        "tol": ls.tol,
        "members": list(ls.members),
        "size": ls.size,
        "bound": ls.bound,
        "within_bound": ls.within_bound,
        "min_member_abs": ls.min_member_abs,
        "max_excluded_abs": ls.max_excluded_abs,
    }


def orthonormality_to_json(r: OrthonormalityReport) -> dict:
    return {
        "tol": r.tol,
        "char_sum_residuals": [float(x) for x in r.char_sum_residuals],
        "char_sums_ok": r.char_sums_ok,
        "hat_supported_in_unit_ball": r.hat_supported_in_unit_ball,
        "unit_modulus_ok": r.unit_modulus_ok,
        "gram_residual": r.gram_residual,
        "gram_ok": r.gram_ok,
        "norm_value": r.norm_value,
        "norm_ok": r.norm_ok,
        "verdict": r.verdict,
    }


def mra_report_to_json(r: MraReport) -> dict:
    return {
        "p": r.prime,
        "N": r.support_exp,
        "M": r.period_exp,
        "tol": r.tol,
        "mean_value": _pair(r.mean_value),
        "refinable": r.refinable,
        "refine_residual": r.refine_residual,
        "lset": lset_to_json(r.lset),
        "criterion_ok": r.criterion_ok,
        "fit_rows": r.fit_rows,
        "axiom_a_residual": r.axiom_a_residual,
        "axiom_a_route": r.axiom_a_route,
        "axiom_a_ok": r.axiom_a_ok,
        "set_rule_ok": r.set_rule_ok,
        "orthonormal": orthonormality_to_json(r.orthonormality),
        "haar_equivalent": r.haar_equivalent,
    }


def frame_report_to_json(r: FrameReport) -> dict:
    count = r.inclusion_count
    return {
        "A": r.A,
        "B": r.B,
        "spectrum": [float(x) for x in r.spectrum],
        "inclusion_residual": r.inclusion_residual,
        "inclusion_count": {
            "support_bins": count.support_bins,
            "target_bins": count.target_bins,
            "wavelet_translates": count.wavelet_translates,
            "rank": count.rank,
            "deficiency": count.deficiency,
        },
        "refinement_residual": r.refinement_residual,
        "v0_residual": r.v0_residual,
        "factorization_residual": r.factorization_residual,
        "generator_count": r.generator_count,
        "tol": r.tol,
    }
