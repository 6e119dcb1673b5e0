"""The benchmark's workloads: inputs from a seed, the timed call, the oracle.

Each workload has three steps:

* `prepare(seed)` imports qcurrents and builds and validates the inputs;
  its duration is the set-up time.
* `call(inputs)` is the timed region: from the call until the report or
  result exists.
* `outcome(inputs, result, seed)` runs outside the timed region and returns
  (output digest, output bytes, list of problems); an empty list means the
  output passed its oracle.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

WORKLOADS = ("verify-all", "kernels-deep", "gram-distinct")

# gram-distinct: every seed draws 8 distinct modes from [-6, 6) with the
# same multiset of |mode| values, so each seed's block has the same window
# sizes (the cost of `pair` grows with the largest |mode| it sees) and only
# the signs, hence the pairings themselves, change with the seed
GRAM_FIXED_MODES = (0, -5, 5, -6)
GRAM_SIGNED_MODES = (1, 2, 3, 4)
GRAM_K = 4
PRODUCT_RULE_SAMPLES = 12


def prepare(workload: str, seed: int):
    if workload == "verify-all":
        from qcurrents import cli
        return cli, "verify-all", cli.RunConfig().validate()
    if workload == "kernels-deep":
        from qcurrents import cli
        return cli, "kernels", cli.RunConfig(K=12, window=(-14, 14)).validate()
    if workload == "gram-distinct":
        from qcurrents import cartan, geometry
        modes = gram_modes(seed)
        config = geometry.CurveConfig(name="rational", K=GRAM_K, max_mode=10)
        return modes, cartan.cartan_by_name("A1"), config
    raise ValueError(f"unknown workload {workload!r}")


def call(workload: str, inputs):
    if workload == "gram-distinct":
        return gram_block(*inputs)
    cli, subcommand, config = inputs
    status, report = cli.run(subcommand, config)
    return status, report, cli.dump_report(report)


def outcome(workload: str, inputs, result, seed: int):
    if workload == "gram-distinct":
        modes, cartan, config = inputs
        text = json.dumps(result.to_json(), sort_keys=True)
        problems = product_rule_problems(result, modes, cartan, config,
                                         sample_entries(modes, seed))
    else:
        status, report, text = result
        problems = []
        if status != 0:
            problems.append(f"exit status {status}")
        passed = report.get("pass", report.get("report", {}).get("pass"))
        if passed is not True:
            problems.append(f"report pass is {passed!r}")
    data = text.encode()
    return hashlib.sha256(data).hexdigest(), len(data), problems


# -- gram-distinct ---------------------------------------------------------


def gram_modes(seed: int):
    rng = random.Random(seed)
    signed = [m * rng.choice((-1, 1)) for m in GRAM_SIGNED_MODES]
    return sorted(GRAM_FIXED_MODES + tuple(signed))


def gram_labels(modes):
    return list(itertools.combinations_with_replacement(modes, 2))


def gram_block(modes, cartan, config):
    """Degree-2 A1 block: rows e[p]*e[q], columns f[r]f[s], p <= q, r <= s."""
    from qcurrents import pairing, shuffle
    K = config.K
    pairs = gram_labels(modes)
    rows = [shuffle.star(shuffle.embed_generator(0, p, cartan, K),
                         shuffle.embed_generator(0, q, cartan, K), cartan)
            for p, q in pairs]
    cols = [((0, r), (0, s)) for r, s in pairs]
    return pairing.gram(rows, cols, ((2,), (-2,)), cartan, config,
                        row_labels=[f"e[{p}]*e[{q}]" for p, q in pairs],
                        col_labels=[f"f[{r}]f[{s}]" for r, s in pairs])


def sample_entries(modes, seed: int):
    n = len(gram_labels(modes))
    rng = random.Random(f"product-rule/{seed}")
    return [(rng.randrange(n), rng.randrange(n))
            for _ in range(PRODUCT_RULE_SAMPLES)]


def product_rule_entry(p, q, word, cartan, config):
    """<e[p] * e[q], word> from the Hopf product rule: the sum over the
    word's splittings of delta_B weight times the two degree-1 pairings."""
    from qcurrents import pairing, series, shuffle
    K = config.K
    a = shuffle.embed_generator(0, p, cartan, K)
    b = shuffle.embed_generator(0, q, cartan, K)
    total = series.HSeries.zero(K)
    for w1, w2, weight in pairing.delta_B(word, cartan, config):
        if (pairing.word_degree(w1, cartan.rank) != a.degrees
                or pairing.word_degree(w2, cartan.rank) != b.degrees):
            continue
        total = total + (weight * pairing.pair(a, w1, cartan, config)
                         * pairing.pair(b, w2, cartan, config))
    return total


def product_rule_problems(report, modes, cartan, config, entries):
    pairs = gram_labels(modes)
    problems = []
    for i, j in entries:
        p, q = pairs[i]
        r, s = pairs[j]
        expected = product_rule_entry(p, q, ((0, r), (0, s)), cartan, config)
        got = report.matrix[i][j]
        if got.coeffs != expected.coeffs:
            problems.append(f"entry ({i},{j}) <e[{p}]*e[{q}], f[{r}]f[{s}]> "
                            f"is {got} but the product rule gives {expected}")
    return problems
