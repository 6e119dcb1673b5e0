"""Golden bytes of suite reports.

The digests pin the cartan suite reports (block inverse of T), two Gram
reports (determinant and leading-order nullity), the three seeded Gram
blocks of the benchmark's gram-distinct workload, and the default-config
kernels and serre reports (the serialized exchange kernel q_sigma and the
six cubic-relation coefficient kernels), the kernels report at K=12 and
the full term table of the kernel ODE pair at K=12 byte for byte.  A change that alters the report schema on purpose updates
them here.
"""

import hashlib
import itertools
import json

from qcurrents.cartan import cartan_by_name
from qcurrents.cli import RunConfig, dump_report, run
from qcurrents.geometry import CurveConfig
from qcurrents.kernels import solve_kernel_ode
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
# the kernels suite at K=12, window -14:14
DEEP_KERNEL_REPORT = (
    "693ad49b71a0e285029c960ef822108ade2098f183779c1c3f3574a4f05ffc38")
# solve_kernel_ode(12): sorted [name, exponents, coefficients] of u and v
ODE_PAIR_TABLE = (
    "37516317633841943e84c81c6e45191fa80101f410df45242ce23da5c95e19d3")
# degree-2 A1 blocks: (row modes, column modes) -> sha256 of to_json()
GRAM_REPORTS = {
    ((-2, 0), (-1, 1)):   # nondegenerate, det -4
        "64851b1924a0a32de3a582b0cd6c0648d8e6f70f2d0b2fcab5df1a7cca9595a8",
    ((-2, 1), (0, 1)):    # singular, leading-order nullity 2
        "77bba609cfd4365bb89cfd868b1ac35819ace2c995aacfbaa0977a587e7fc701",
}

# the benchmark's gram-distinct blocks (A1, K=4, max_mode=10): the modes of
# seeds 1, 2, 3 -> sha256 of json.dumps(to_json(), sort_keys=True)
GRAM_DISTINCT_REPORTS = {
    (-6, -5, -4, -2, -1, 0, 3, 5):
        "b7a03396ed24717bd782b97db1c31a8df623818466c2cd4fc3a9618776971fce",
    (-6, -5, -3, -2, -1, 0, 4, 5):
        "c77a1379c93ba821c5962330b1937cc2bce1fb03fea255b022ea7196f65c49a4",
    (-6, -5, -2, -1, 0, 3, 4, 5):
        "c5ae111b9f4931b014c6a54b7998fc8d3c45316fb93aa4d110a049f0cd33d745",
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


def test_gram_distinct_report_bytes():
    a1 = cartan_by_name("A1")
    cfg = CurveConfig(name="rational", K=4, max_mode=10)
    for modes, digest in GRAM_DISTINCT_REPORTS.items():
        pairs = list(itertools.combinations_with_replacement(modes, 2))
        rows = [star(embed_generator(0, p, a1, cfg.K),
                     embed_generator(0, q, a1, cfg.K), a1) for p, q in pairs]
        report = gram(rows, [((0, r), (0, s)) for r, s in pairs],
                      ((2,), (-2,)), a1, cfg,
                      row_labels=[f"e[{p}]*e[{q}]" for p, q in pairs],
                      col_labels=[f"f[{r}]f[{s}]" for r, s in pairs])
        assert report.to_json()["kernel_dim"] == 15
        assert _sha(json.dumps(report.to_json(), sort_keys=True)) == digest


def test_kernel_report_bytes():
    for name, digest in KERNEL_REPORTS.items():
        _, report = run(name, RunConfig())
        assert _sha(dump_report(report)) == digest, name


def test_deep_kernel_report_bytes():
    _, report = run("kernels", RunConfig(K=12, window=(-14, 14)))
    assert _sha(dump_report(report)) == DEEP_KERNEL_REPORT


def test_ode_pair_table_bytes():
    pair = solve_kernel_ode(12)
    rows = sorted([name, list(m), hs.to_json()]
                  for name, kf in (("u", pair.green_coeff),
                                   ("v", pair.prefactor_log))
                  for m, hs in kf.terms.items())
    assert _sha(json.dumps(rows, separators=(",", ":"))) == ODE_PAIR_TABLE
