"""Seeded inputs and operation lists for the benchmark's workloads.

Each workload is a list of operations run one after another by a single
caller (a closed loop). Pass ``i`` of a run with seed ``s`` draws its inputs
from ``numpy.random.default_rng((s, i))``, writes them as the files the CLI
reads, and returns the operations that consume them. The program only ever
sees those generated files (or, for the two library-only curves, arrays the
benchmark built from them).

Inputs are seeded relabelings of fixed base models: a permutation of
symbols for pmfs, random whitening bases around a fixed canonical spectrum
for Gaussian models. Every seed therefore poses a problem of the same
difficulty and the same closed-form answer, while the solver still meets
a different input file on every pass.
"""

import json
from dataclasses import dataclass

import numpy as np

import checks

#: solver settings passed explicitly by every discrete operation, so the
#: numbers do not change with the host's CPU count
THREADS = 2
SOLVER_SEED = 7
SOLVER_FLAGS = ["--threads", str(THREADS), "--seed", str(SOLVER_SEED)]

LONG_GAMMA = 0.05
TOY_A0 = 0.1
DSBS_A0 = (0.05, 0.1, 0.2)
CURVE_GRID = np.linspace(0.0, 0.36, 9)
GAUSS_POINTS = 200
SAMPLE_ROWS = 5000
SAMPLE_DIM = 20
CCA_K = 5


@dataclass
class Op:
    """One operation: a CLI argv or a library call, plus its output check."""

    label: str
    argv: list | None = None
    call: object = None
    check: object = None
    #: report path of a --no-meta CLI op, whose rerun must write identical bytes
    nometa_out: str | None = None


def _base_pmf(seed, shape, alpha):
    size = int(np.prod(shape))
    return np.random.default_rng(seed).dirichlet(np.full(size, alpha)).reshape(shape)


#: the fixed base models that every seed relabels. The 4x4 base is the
#: Dirichlet(0.5) draw of generator seed 2: across relabelings its solve time
#: keeps an interquartile spread near 12% of the median, where seed 0's draw
#: (one cell below 1e-4) swings by 37% and would hide a 10% change.
LONG_BASE = _base_pmf(2, (4, 4), 0.5)
MULTI_BASE = _base_pmf(1, (2, 2, 2), 1.0)


def relabel(pmf, rng):
    """Permute the symbols of every axis and, for pairs, maybe swap the axes."""
    for axis, card in enumerate(pmf.shape):
        pmf = np.take(pmf, rng.permutation(card), axis=axis)
    if pmf.ndim == 2 and rng.random() < 0.5:
        pmf = pmf.T
    return np.ascontiguousarray(pmf)


def dsbs_pmf(a0):
    return np.array([[(1 - a0) / 2, a0 / 2], [a0 / 2, (1 - a0) / 2]])


def write_pmf(path, pmf):
    names = ["x", "y"] if pmf.ndim == 2 else [f"x{i + 1}" for i in range(pmf.ndim)]
    lines = [",".join(names + ["p"])]
    for idx in np.ndindex(*pmf.shape):
        lines.append(",".join([str(i) for i in idx] + [repr(float(pmf[idx]))]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _spd_with_sqrt(rng, n):
    """Random SPD matrix with eigenvalues in [0.5, 2] and its symmetric root."""
    q = _orthogonal(rng, n)
    eig = rng.uniform(0.5, 2.0, n)
    return (q * eig) @ q.T, (q * np.sqrt(eig)) @ q.T


def spectrum(n, top, decay):
    return top * decay ** np.arange(n)


def gaussian_model(rng, rho):
    """Covariance blocks whose canonical correlations are exactly rho."""
    n = rho.size
    k_x, root_x = _spd_with_sqrt(rng, n)
    k_y, root_y = _spd_with_sqrt(rng, n)
    u = _orthogonal(rng, n)
    v = _orthogonal(rng, n)
    k_xy = root_x @ ((u * rho) @ v.T) @ root_y
    return {"k_x": k_x, "k_y": k_y, "k_xy": k_xy, "roots": (root_x, root_y), "uv": (u, v)}


def write_cov(path, model):
    payload = {key: model[key].tolist() for key in ("k_x", "k_y", "k_xy")}
    path.write_text(json.dumps(payload), encoding="utf-8")


def gaussian_samples(rng, model, rho, rows):
    """Paired samples: per-component correlated pairs mapped out of whitened space."""
    n = rho.size
    a = rng.standard_normal((rows, n))
    b = rho * a + np.sqrt(1.0 - rho * rho) * rng.standard_normal((rows, n))
    u, v = model["uv"]
    root_x, root_y = model["roots"]
    return a @ u.T @ root_x, b @ v.T @ root_y


def write_samples(path, data, prefix):
    header = ",".join(f"{prefix}{i}" for i in range(data.shape[1]))
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def _cli(argv, out, check, label, nometa=False):
    argv = list(argv) + ["--out", str(out)]
    if nometa:
        argv.append("--no-meta")
    return Op(label=label, argv=argv, check=check, nometa_out=str(out) if nometa else None)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def discrete_long(rng, work, lib):
    """Wide latent alphabet (card_w 17): the engine's array arithmetic dominates."""
    pmf = relabel(LONG_BASE, rng)
    pmf_path = work / "long.csv"
    write_pmf(pmf_path, pmf)
    out = work / "long.json"
    toy_out = work / "toy17.json"
    return [
        _cli(
            ["discrete", "--pmf", str(pmf_path), "--gamma", str(LONG_GAMMA), *SOLVER_FLAGS],
            out,
            lambda code: checks.check_discrete(code, out, pmf, LONG_GAMMA),
            "discrete 4x4 gamma=0.05",
        ),
        _cli(
            ["toy", "--a0", str(TOY_A0), "--card-w", "17", *SOLVER_FLAGS],
            toy_out,
            lambda code: checks.check_toy(code, toy_out, TOY_A0),
            "toy card_w=17",
            nometa=True,
        ),
    ]


def discrete_short(rng, work, lib):
    """Many narrow solves: per-call overhead and the M-source axes dominate."""
    ops = []
    toy_out = work / "toy4.json"
    ops.append(
        _cli(
            ["toy", "--a0", str(TOY_A0), *SOLVER_FLAGS],
            toy_out,
            lambda code: checks.check_toy(code, toy_out, TOY_A0),
            "toy card_w=4",
        )
    )
    for a0 in DSBS_A0:
        pmf = relabel(dsbs_pmf(a0), rng)
        path = work / f"dsbs{a0}.csv"
        write_pmf(path, pmf)
        out = work / f"dsbs{a0}.json"
        oracle = checks.dsbs_wyner(a0)
        ops.append(
            _cli(
                ["discrete", "--pmf", str(path), "--gamma", "0", *SOLVER_FLAGS],
                out,
                lambda code, out=out, pmf=pmf, oracle=oracle: checks.check_discrete(
                    code, out, pmf, 0.0, oracle
                ),
                f"discrete dsbs a0={a0}",
                nometa=a0 == DSBS_A0[-1],
            )
        )
    multi = relabel(MULTI_BASE, rng)
    multi_path = work / "multi.csv"
    write_pmf(multi_path, multi)
    multi_out = work / "multi.json"
    ops.append(
        _cli(
            ["discrete", "--pmf", str(multi_path), "--gamma", "0", "--multi", *SOLVER_FLAGS],
            multi_out,
            lambda code: checks.check_discrete(code, multi_out, multi, 0.0),
            "discrete 2x2x2 --multi",
        )
    )
    curve_pmf = relabel(dsbs_pmf(TOY_A0), rng)
    opts = lib.SolverOptions(seed=SOLVER_SEED, threads=THREADS)

    def curve():
        joint = lib.model.validate_discrete(curve_pmf)
        return lib.discrete_ci.ci_curve_discrete(joint, CURVE_GRID, opts)

    ops.append(
        Op(
            label="ci_curve_discrete dsbs 9 points",
            call=curve,
            check=lambda rows: checks.check_discrete_curve(rows, curve_pmf, CURVE_GRID),
        )
    )
    return ops


#: fixed canonical spectra of the Gaussian models (the seed draws the bases)
SPECTRA = {50: spectrum(50, 0.97, 0.92), 100: spectrum(100, 0.97, 0.95)}
RHO_SAMPLES = spectrum(SAMPLE_DIM, 0.9, 0.8)
#: (dimension, gamma as a share of the total information, --version, --units)
GAUSS_CASES = [
    (50, 0.25, "cond-exp", "nats"),
    (50, 0.6, "map", "bits"),
    (100, 0.25, "marginal", "nats"),
    (100, 0.6, "cond-exp", "nats"),
]


def gaussian(rng, work, lib):
    """Every Gaussian layer does work; the discrete engine does none."""
    ops = []
    models = {}
    for dim, rho in SPECTRA.items():
        models[dim] = gaussian_model(rng, rho)
        write_cov(work / f"cov{dim}.json", models[dim])
    for i, (dim, share, version, units) in enumerate(GAUSS_CASES):
        rho = SPECTRA[dim]
        gamma = share * float(checks.gaussian_info(rho).sum())
        out = work / f"gauss{i}.json"
        curve = work / f"gauss{i}.csv"
        ops.append(
            _cli(
                [
                    "gaussian", "--cov", str(work / f"cov{dim}.json"),
                    "--gamma", repr(gamma), "--version", version, "--units", units,
                    "--curve", str(curve), "--curve-points", str(GAUSS_POINTS),
                ],
                out,
                lambda code, out=out, gamma=gamma, curve=curve, rho=rho: checks.check_gaussian(
                    code, out, gamma, curve, GAUSS_POINTS, rho
                ),
                f"gaussian {dim}-d {version} {units}",
            )
        )
    sample_model = gaussian_model(rng, RHO_SAMPLES)
    x, y = gaussian_samples(rng, sample_model, RHO_SAMPLES, SAMPLE_ROWS)
    x_path, y_path = work / "x.csv", work / "y.csv"
    write_samples(x_path, x, "x")
    write_samples(y_path, y, "y")
    cca_out = work / "cca.json"
    ops.append(
        _cli(
            ["cca", "--x", str(x_path), "--y", str(y_path), "-k", str(CCA_K)],
            cca_out,
            lambda code: checks.check_cca(code, cca_out, CCA_K, SAMPLE_ROWS),
            f"cca samples {SAMPLE_ROWS}x({SAMPLE_DIM}+{SAMPLE_DIM})",
            nometa=True,
        )
    )
    sample_gamma = 0.5
    sample_out = work / "gauss_samples.json"
    ops.append(
        _cli(
            ["gaussian", "--x", str(x_path), "--y", str(y_path), "--gamma", str(sample_gamma)],
            sample_out,
            lambda code: checks.check_gaussian(code, sample_out, sample_gamma),
            "gaussian samples cond-exp",
        )
    )
    grid = np.linspace(0.0, float(checks.gaussian_info(SPECTRA[100]).sum()), GAUSS_POINTS)
    m100 = models[100]

    def curve():
        joint = lib.model.validate_gaussian(m100["k_x"], m100["k_y"], m100["k_xy"])
        return lib.gaussian_ci.ci_curve(joint, grid)

    ops.append(
        Op(
            label="ci_curve 100-d 200 points",
            call=curve,
            check=lambda rows: checks.check_gaussian_curve(rows, SPECTRA[100], grid),
        )
    )
    return ops


WORKLOADS = {
    "discrete-long": discrete_long,
    "discrete-short": discrete_short,
    "gaussian": gaussian,
}


def build_pass(name, seed, index, work, lib):
    """Write pass ``index``'s inputs under ``work`` and return its operations."""
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng((seed, index))
    return WORKLOADS[name](rng, work, lib)

