"""The benchmark's four workloads: seeded task lists with an oracle check each.

A workload is a cycle of tasks of fixed composition (kind -> count).  The
seed draws every continuous parameter (couplings, sources, seeds, scale
labels) and the order of the cycle, never the composition, so two seeds
cost the same to within the spread of the drawn parameters.  Each task
calls phi4lab through module attributes looked up at call time, so the
layer wrappers of a traced run see every call, and returns after checking
its outputs; a failed check is recorded on the task's Checker.

Why these workloads, the layer each one is home to, and the
configurations left out are written down in README.md next to this file.
"""

import math

import numpy as np

import oracles

# Tasks per cycle at full size.  The tail percentile is the highest one with
# at least ten tasks of a cycle beyond it: 100 (K - 10) / K, p75 for K = 40.
# Every composition puts that percentile, and the median, inside a group of
# tasks of similar cost rather than on the edge between two groups.
COMPOSITIONS = {
    "series": {"series_j1": 27, "series_j1_family": 11, "series_j2": 2},
    "stability": {"nongaussianity_gh12": 8, "nongaussianity_gh16": 14, "envelope": 12,
                  "nongaussianity_gh20": 6},
    "fields": {"field_128sq_h1": 12, "field_128sq_h2": 10, "field_8cube_h1": 12,
               "field_128sq_h3": 2, "tail_8sq_h1": 1, "tail_8sq_h2": 1,
               "field_128sq_h4": 1, "field_8cube_h2": 1},
    "rgflow": {"flow_ref_j1": 22, "flow_16_j1": 12, "flow_ref_j2": 5, "flow_64_j1": 1},
}

# The self-test's small cycles: cheap kinds only, twelve tasks.
TINY_COMPOSITIONS = {
    "series": {"series_j1": 10, "series_j1_family": 2},
    "stability": {"nongaussianity_gh12": 11, "envelope": 1},
    "fields": {"field_128sq_h1": 10, "tail_8sq_h1": 1, "field_8cube_h1": 1},
    "rgflow": {"flow_ref_j1": 12},
}

# (n, p, r) families checked against the Isserlis oracle: at most 8
# half-lines and 4 external legs, so the relabeling search stays small.
FAMILIES = [(1, 0, 2), (1, 0, 4), (1, 1, 2), (0, 2, 2), (2, 0, 0), (1, 1, 0),
            (0, 3, 2), (0, 2, 4), (1, 2, 0)]
# (n, r) of the coupling-and-external graphs whose cluster trees are checked,
# as in the cluster-identity acceptance test; the identities count couplings
# and external legs only, so graphs with mass vertices are not drawn.
CLUSTER_POOL = [(1, 0), (1, 2), (1, 4), (2, 0), (2, 2)]
TREES_PER_BATCH = 40
TAIL_B_GRID = np.linspace(0.5, 3.0, 11)
TAIL_CHECKED_SAMPLES = 3


class Checker:
    """Collects the names of failed checks of one task.

    With ``skew`` set, the first check compares against a deliberately
    wrong reference, which the self-test uses to see failures counted.
    """

    def __init__(self, skew=False):
        self.failed = []
        self._skew = skew

    def _take_skew(self):
        skew, self._skew = self._skew, False
        return skew

    def close(self, name, value, reference, rel, floor=0.0):
        reference = np.asarray(reference, float)
        if self._take_skew():
            reference = reference + 1e-3 * (np.abs(reference) + 1.0)
        if not oracles.close(value, reference, rel, floor):
            self.failed.append(name)

    def true(self, name, ok):
        if self._take_skew():
            ok = not ok
        if not ok:
            self.failed.append(name)


class Context:
    """Specs and oracle values shared by the tasks of one workload."""

    def __init__(self, lib):
        self.lib = lib
        LatticeSpec = lib.lattice_propagator.LatticeSpec
        # the reference 4-site lattice of the acceptance tests
        self.ref = LatticeSpec(d=2, L=0.25, m=4.0, gamma=math.sqrt(2), N=2)
        self.ref_C = oracles.propagator_matrix(self.ref, 0, self.ref.N)


# --- series ------------------------------------------------------------------

def _series_task(ctx, lam, f, j, family, clusters, tree_seed):
    ref, C = ctx.ref, ctx.ref_C

    def task(chk):
        fg = ctx.lib.feynman_graphs
        cts = fg.counterterms(ref, lam, nu_order=j)
        with_f = fg.logZ_series(ref, lam, f, j, cts=cts).coefficients
        vacuum = fg.logZ_series(ref, lam, None, j, cts=cts).coefficients
        c0, c1 = oracles.gaussian_shift_coefficients(C, f, ref)
        u = ref.a ** ref.d * (C @ f)
        cancelled = 6 * C[0, 0] * float(np.sum(u ** 2)) / len(f)
        chk.close("gaussian_shift_order0", with_f[0], c0, 1e-12)
        # rounding scale: the vacuum families cancelled by nu and the
        # 6 C_00 u^2 terms cancelled by the mass counterterm
        vacuum_scale = float(np.max(np.abs(cts.nu_poly)))
        chk.close("gaussian_shift_order1", with_f[1], c1, 1e-9,
                  1e-10 * cancelled + 1e-13 * vacuum_scale)
        chk.close("vacuum_cancels", vacuum, 0.0, 0.0, 1e-12 * vacuum_scale + 1e-300)
        if family is not None:
            _family_check(ctx, chk, family, f)
            _cluster_batch(ctx, chk, clusters, tree_seed)
    return task


def _family_check(ctx, chk, family, f):
    """One (n, p, r) family summed by the engine against the Isserlis oracle.

    The engine aggregates every labeled matching into topologies and sums
    integrated values at lambda = mu = 1; the oracle is the Gaussian moment
    of the same vertex product with the source folded into one extra site.
    """
    fg, ref, C = ctx.lib.feynman_graphs, ctx.ref, ctx.ref_C
    n, p, r = family
    kinds = ["coupling"] * n + ["mass"] * p + ["external"] * r
    counts = {}
    elements = []
    for kind in kinds:
        elements.append(fg.GraphElement(kind, counts.get(kind, 0)))
        counts[kind] = counts.get(kind, 0) + 1
    elements = tuple(elements)
    half = [(v, s) for v, el in enumerate(elements) for s in range(el.half_lines)]
    graphs = [fg.FeynmanGraph(elements=elements, pairing=m)
              for m in fg.enumerate_matchings(half)]
    kernel = ctx.lib.lattice_propagator.covariance_cumulative(ref, ref.N)
    total = sum(mult * fg.integrated_value(g, kernel, f, lam=1.0, mu=1.0)
                for g, _, mult in fg.aggregate_topologies(graphs))
    engine = total * (-1) ** (n + p + r) * math.factorial(n) * math.factorial(p) \
        * math.factorial(r)
    w = ref.a ** ref.d
    sites = ref.n_sites
    ext = np.zeros((sites + 1, sites + 1))
    ext[:sites, :sites] = C
    ext[:sites, sites] = ext[sites, :sites] = C @ f * w
    ext[sites, sites] = f @ C @ f * w * w
    oracle = 0.0
    for pos in np.ndindex(*([sites] * (n + p))):
        flat = [pos[v] for v in range(n) for _ in range(4)]
        flat += [pos[n + v] for v in range(p) for _ in range(2)]
        flat += [sites] * r
        oracle += fg.wick_oracle(flat, ext) * w ** (n + p)
    chk.close(f"isserlis_{n}{p}{r}", engine, oracle, 1e-10, 1e-14)


def _cluster_batch(ctx, chk, clusters, tree_seed):
    """Cluster trees of connected (n, 0, r) graphs under random scale labels
    must satisfy both exact integer identities."""
    fg, pc = ctx.lib.feynman_graphs, ctx.lib.power_counting
    n, r = clusters
    graphs = fg.enumerate_connected(n, 0, r)
    rng = np.random.default_rng(tree_seed)
    bad = 0
    for _ in range(TREES_PER_BATCH):
        g = graphs[int(rng.integers(len(graphs)))]
        N = int(rng.integers(2, 7))
        scales = tuple(int(s) for s in rng.integers(1, N + 1, len(g.pairing)))
        if not pc.verify_identities(pc.build_clusters(pc.ScaledGraph(g, scales, N))).ok:
            bad += 1
    chk.true("cluster_identities", bad == 0)


def _series_tasks(ctx, rng, kind, i):
    j = 2 if kind == "series_j2" else 1
    family = FAMILIES[i % len(FAMILIES)] if kind == "series_j1_family" else None
    clusters = CLUSTER_POOL[i % len(CLUSTER_POOL)]
    lam = float(rng.uniform(0.005, 0.1))
    f = rng.uniform(-1.0, 1.0, ctx.ref.n_sites)
    return _series_task(ctx, lam, f, j, family, clusters, int(rng.integers(2 ** 63)))


# --- stability ---------------------------------------------------------------

def _stability_tasks(ctx, rng, kind, i):
    sl = ctx.lib.stability_lab
    LatticeSpec = ctx.lib.lattice_propagator.LatticeSpec
    # Couplings in [0.02, 0.1] and one-signed sources keep the verdict and the
    # kappa4 sign away from their edges: below lam = 0.02 the lambda^2
    # envelope shrinks under the MC error, and a source nearly orthogonal to
    # the low modes makes the fourth cumulant vanish into rounding.
    lam = float(rng.uniform(0.02, 0.1))
    f = tuple(rng.uniform(0.2, 1.0, 4))
    if kind == "envelope":
        box = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=1)
        cfg = sl.ExperimentConfig(spec=box, lam=lam, f=f, j=1, n_samples=8000,
                                  seed=int(rng.integers(2 ** 63)), gh_nodes=12)

        def task(chk):
            res = ctx.lib.stability_lab.stability_envelope(cfg, [1, 2, 3])
            methods = [res["reports"][N].extras["method"] for N in (1, 2, 3)]
            chk.true("methods", methods == ["exact-quadrature", "MC", "MC"])
            chk.true("inside_envelope", res["inside"])
        return task
    gh = int(kind.rsplit("gh", 1)[1])
    cfg = sl.ExperimentConfig(spec=ctx.ref, lam=lam, f=f, j=1, gh_nodes=gh)

    def task(chk):
        res = ctx.lib.stability_lab.nongaussianity(cfg)
        chk.true("kappa4_negative", res["kappa4"] < 0)
    return task


# --- fields ------------------------------------------------------------------

def _field_task(ctx, spec, h, seed, B):
    def task(chk):
        fs = ctx.lib.field_sampler
        lp = ctx.lib.lattice_propagator
        layers = [fs.sample_layer(spec, k, seed) for k in range(1, spec.N + 1)]
        fld = fs.assemble(layers)
        regions = fs.classify_regions(fld, h, B)
        _, norms = fs.layer_norm_profile(layers[h - 1], level=h)
        again = fs.sample_layer(spec, h, seed)
        chk.true("resample_bit_identical", np.array_equal(again.values, layers[h - 1].values))
        bands = sum(lp.covariance_band(spec, k).values for k in range(1, spec.N + 1))
        cumulative = lp.covariance_cumulative(spec, spec.N).values
        chk.close("bands_telescope", bands, cumulative, 0.0,
                  1e-12 * float(np.max(np.abs(cumulative))))
        phi = np.zeros(spec.shape)
        for k in range(h):
            phi = phi + layers[k].values
        if spec.d == 2:
            X = phi / math.sqrt(h)
        else:
            X = phi * spec.gamma ** (-(spec.d - 2) * h / 2.0)
        chk.true("D1_count", len(regions.D1) == int(np.sum(np.abs(X) > B * h ** 4)))
        chk.true("R_count", len(regions.R) == sum(1 for v in norms if v > B * h ** 2))
    return task


def _tail_task(ctx, spec, h, seed, picks):
    def task(chk):
        fs = ctx.lib.field_sampler
        res = fs.tail_stats(spec, h, TAIL_B_GRID, n_samples=1000, seed=seed)
        maxima = res["maxima"]
        # in d = 2 the norm has no increment part, so the largest cube norm
        # is the largest |z| over the whole lattice
        direct = [float(np.max(np.abs(fs.sample_layer(spec, h, seed + i).z))) for i in picks]
        chk.true("maxima_recomputed", [float(maxima[i]) for i in picks] == direct)
        counts = [row["count"] for row in res["rows"]]
        chk.true("exceedance_counts", counts == [int(np.sum(maxima > B)) for B in TAIL_B_GRID])
    return task


def _fields_tasks(ctx, rng, kind, i):
    LatticeSpec = ctx.lib.lattice_propagator.LatticeSpec
    fs = ctx.lib.field_sampler
    h = int(kind.rsplit("_h", 1)[1])
    seed = int(rng.integers(2 ** 31))
    if kind.startswith("tail_8sq"):
        spec = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=3)
        picks = [int(k) for k in rng.choice(1000, TAIL_CHECKED_SAMPLES, replace=False)]
        return _tail_task(ctx, spec, h, seed, picks)
    if kind.startswith("field_128sq"):
        spec = LatticeSpec(d=2, L=8.0, m=1.0, gamma=2.0, N=4)
    else:
        spec = LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=3)
    B = fs.field_threshold(float(rng.uniform(0.01, 0.1)), float(rng.uniform(0.3, 1.0)))
    return _field_task(ctx, spec, h, seed, B)


# --- rgflow ------------------------------------------------------------------

def _wick_line(chk, name, V, spec, c, prefactor, constant):
    """Order-1 terms of V against prefactor * a^d sum_x :phi_x^4:_c.

    Degree 4 and 2 must be diagonal with entries prefactor * w * (1, -6c),
    and the order-1 constant must equal ``constant``.
    """
    n, w = spec.n_sites, spec.a ** spec.d
    scale = abs(prefactor) * w * max(1.0, 6 * abs(c))
    for degree, coeff in ((4, 1.0), (2, -6.0 * c)):
        ker = np.asarray(V.terms[(1, degree)])
        diag = ker[(np.arange(n),) * degree]
        chk.close(f"{name}_deg{degree}_diag", diag, prefactor * w * coeff, 1e-10, 1e-13 * scale)
        # largest off-diagonal entry, one slab at a time: no copy of the tensor
        off = 0.0
        for x in range(n):
            slab = np.abs(ker[x])
            slab[(x,) * (degree - 1)] = 0.0
            off = max(off, float(slab.max()))
        chk.close(f"{name}_deg{degree}_local", off, 0.0, 0.0, 1e-13 * scale)
    chk.close(f"{name}_constant", V.terms.get((1, 0), 0.0), constant, 1e-10,
              1e-13 * abs(prefactor) * w * n * max(1.0, c * c))


def _three_way(ctx, chk, spec, lam, j, C00):
    """flow_constant, the difference-kernel E(j, 0) and the order-j series
    agree pairwise; order 1 is 3 C_00^2, the Wick-ordered quartic's mean."""
    lib = ctx.lib
    cts = lib.feynman_graphs.counterterms(spec, lam, nu_order=0)
    flow = lib.effective_potential.flow_constant(spec, lam, None, j, cts)
    series = lib.feynman_graphs.logZ_series(spec, lam, None, j, cts=cts).coefficients
    E0 = np.asarray(lib.effective_potential.field_independent_part(
        spec, j, 0, lam, None, cts, per_order=True))
    worst = max(np.max(np.abs(flow - series)), np.max(np.abs(E0 - series)),
                np.max(np.abs(flow - E0)))
    chk.true("three_way_agreement", worst <= 1e-8 * float(np.max(np.abs(series))))
    chk.close("order1_constant", flow[1], 3.0 * C00 ** 2, 1e-10)
    return cts


def _rgflow_tasks(ctx, rng, kind, i):
    lam = float(rng.uniform(0.005, 0.1))
    ref = ctx.ref
    LatticeSpec = ctx.lib.lattice_propagator.LatticeSpec
    if kind == "flow_ref_j2":
        return lambda chk: _three_way(ctx, chk, ref, lam, 2, ctx.ref_C[0, 0])
    if kind in ("flow_ref_j1", "flow_16_j1"):
        spec = ref if kind == "flow_ref_j1" else LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=2)
        # c_low[h] = C^(<=h)(0), the Wick variance left after integrating to h
        c_low = [0.0] + [oracles.propagator_matrix(spec, 0, h)[0, 0]
                         for h in range(1, spec.N + 1)]

        def task(chk):
            ep = ctx.lib.effective_potential
            _three_way(ctx, chk, spec, lam, 1, c_low[spec.N])
            V = ep.wick_quartic_potential(spec, spec.N, c_low[spec.N])
            for h in range(spec.N, 0, -1):
                V = ep.truncated_integrate(V, 1)
                low = c_low[h - 1]
                _wick_line(chk, f"wick_line_h{h - 1}", V, spec, low, 1.0,
                           3 * low ** 2 * spec.a ** spec.d * spec.n_sites)
        return task
    spec = LatticeSpec(d=3, L=1.0, m=1.0, gamma=2.0, N=2)
    C00 = oracles.propagator_matrix(spec, 0, spec.N)[0, 0]
    c_low = oracles.propagator_matrix(spec, 0, spec.N - 1)[0, 0]

    def task(chk):
        ep = ctx.lib.effective_potential
        cts = _three_way(ctx, chk, spec, lam, 1, C00)
        V = ep.truncated_integrate(ep.bare_potential(spec, None, cts, lam, 1), 1)
        w, n = spec.a ** spec.d, spec.n_sites
        _wick_line(chk, "wick_line_step", V, spec, c_low, -1.0,
                   3 * w * n * (C00 ** 2 - c_low ** 2))
        split = ep.relevant_split(V, lam)
        coeffs = split.coefficients
        chk.close("lambda_eff", coeffs["lambda_eff"], lam, 1e-10)
        chk.close("mu_local", coeffs["mu_bar"] * coeffs["sigma"] ** 2, -6 * lam * c_low, 1e-10)
    return task


BUILDERS = {"series": _series_tasks, "stability": _stability_tasks,
            "fields": _fields_tasks, "rgflow": _rgflow_tasks}


def build(workload, seed, lib, tiny=False):
    """The seeded cycle of one workload: a list of (kind, task) in run order."""
    composition = (TINY_COMPOSITIONS if tiny else COMPOSITIONS)[workload]
    rng = np.random.default_rng(seed)
    ctx = Context(lib)
    tasks = [(kind, BUILDERS[workload](ctx, rng, kind, i))
             for kind, count in composition.items() for i in range(count)]
    return [tasks[i] for i in rng.permutation(len(tasks))]
