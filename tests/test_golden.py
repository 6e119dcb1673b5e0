"""Golden bytes of suite reports.

The digests pin the cartan suite reports (block inverse of T), two Gram
reports (determinant and leading-order nullspace), and the default-config
kernels and serre reports (the serialized exchange kernel q_sigma and the
six cubic-relation coefficient kernels) byte for byte.  A change that
alters the report schema on purpose updates them here.
"""

import hashlib
import itertools
import json

from qcurrents.cartan import cartan_by_name
from qcurrents.cli import RunConfig, dump_report, run
from qcurrents.geometry import CurveConfig
from qcurrents.pairing import gram
from qcurrents.shuffle import embed_generator, star

CARTAN_REPORTS = {
    "A1": "35cf8e3676edd25625dc4ab64818c099620a7a29cd123f338ea218a464ba71f9",
    "A2": "7873e67f0dc0f9a186eb06b4afdaf2d55deafbdc786f603655268ac983701008",
}
# default-config suite reports
KERNEL_REPORTS = {
    "kernels": "175ef3c7aa52109f8b5167a746095bc4170efeb8a3a96e9d6cdb134d05e61f96",
    "serre": "5bbe6f3719e6028d01266ec9b83d33a43d3e7c3de43dd9a753a76ae8e3bc9d04",
}
# degree-2 A1 blocks: (row modes, column modes) -> sha256 of to_json()
GRAM_REPORTS = {
    ((-2, 0), (-1, 1)):   # nondegenerate, det -4
        "64851b1924a0a32de3a582b0cd6c0648d8e6f70f2d0b2fcab5df1a7cca9595a8",
    ((-2, 1), (0, 1)):    # singular, two leading-order kernel vectors
        "77bba609cfd4365bb89cfd868b1ac35819ace2c995aacfbaa0977a587e7fc701",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_elimination_report_bytes():
    for name, digest in CARTAN_REPORTS.items():
        _, report = run("cartan", RunConfig(K=4, max_mode=4, cartan=name))
        assert _sha(dump_report(report)) == digest, name
    a1 = cartan_by_name("A1")
    cfg = CurveConfig(K=4, max_mode=8)
    for (row_modes, col_modes), digest in GRAM_REPORTS.items():
        rows = [star(embed_generator(0, p, a1, cfg.K),
                     embed_generator(0, q, a1, cfg.K), a1)
                for p, q in itertools.combinations_with_replacement(row_modes, 2)]
        cols = [((0, r), (0, s))
                for r, s in itertools.combinations_with_replacement(col_modes, 2)]
        report = gram(rows, cols, ((2,), (-2,)), a1, cfg)
        text = json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))
        assert _sha(text) == digest, (row_modes, col_modes)


def test_kernel_report_bytes():
    for name, digest in KERNEL_REPORTS.items():
        _, report = run(name, RunConfig())
        assert _sha(dump_report(report)) == digest, name
