import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import phi4lab
from phi4lab import LatticeSpec, counterterms
from phi4lab.cli import main

import dense_potential as dense


REF_ARGS = ["--gamma", str(math.sqrt(2)), "--box", "0.25", "--mass", "4",
            "--cutoff", "2"]
GEOMETRY = ["--dim", "--gamma", "--mass", "--box", "--cutoff"]
# the flags besides --out and --check that each subcommand reads
FLAGS = {
    "propagator": [*GEOMETRY, "--format"],
    "sample": [*GEOMETRY, "--lambda", "--seed", "--format"],
    "graphs": [*GEOMETRY, "--lambda", "--order", "--format"],
    "powercount": ["--dim"],
    "rgflow": [*GEOMETRY, "--lambda", "--order"],
    "stability": [*GEOMETRY, "--lambda", "--order", "--seed", "--samples"],
}


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


class TestPlumbing:
    def test_unknown_subcommand_is_usage_error(self, runner):
        assert runner.invoke(main, ["bogus"]).exit_code == 2

    def test_unknown_flag_is_usage_error(self, runner):
        assert runner.invoke(main, ["propagator", "--frobnicate"]).exit_code == 2

    @pytest.mark.parametrize("command, flags", list(FLAGS.items()))
    def test_help_lists_the_flags_read(self, runner, command, flags):
        result = run_ok(runner, [command, "--help"])
        listed = re.findall(r"^\s+(--[\w-]+)", result.output, re.MULTILINE)
        assert sorted(listed) == sorted([*flags, "--out", "--check", "--help"])

    @pytest.mark.parametrize("command, flag", [("propagator", "--lambda"), ("sample", "--order"),
                                               ("graphs", "--seed"), ("powercount", "--cutoff"),
                                               ("rgflow", "--samples"), ("stability", "--format")])
    def test_flag_a_command_does_not_read_is_usage_error(self, runner, command, flag, tmp_path):
        result = runner.invoke(main, [command, flag, "1", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert not (tmp_path / "manifest.json").exists()

    def test_settable_flag_values(self):
        # 12 flags on each of six subcommands were 72 settable values
        assert sum(len(cmd.params) for cmd in main.commands.values()) == 51

    def test_bad_geometry_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["propagator", "--box", "0.7",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2

    def test_manifest_written_with_hash_and_versions(self, runner, tmp_path):
        run_ok(runner, ["propagator", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "propagator"
        assert len(manifest["spec"]["hash"]) == 16
        assert "numpy" in manifest["versions"]

    def test_csv_format(self, runner, tmp_path):
        run_ok(runner, ["propagator", "--format", "csv", "--out", str(tmp_path)])
        assert (tmp_path / "kernel.csv").exists()


class TestSubcommands:
    def test_propagator_check_passes(self, runner, tmp_path):
        run_ok(runner, ["propagator", "--cutoff", "3", "--check",
                        "--out", str(tmp_path)])

    def test_sample_is_reproducible(self, runner, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_ok(runner, ["sample", "--seed", "5", "--check", "--out", str(a)])
        run_ok(runner, ["sample", "--seed", "5", "--out", str(b)])
        assert (a / "layers.json").read_text() == (b / "layers.json").read_text()

    def test_graphs_check(self, runner, tmp_path):
        run_ok(runner, ["graphs", *REF_ARGS, "--order", "2", "--check",
                        "--out", str(tmp_path)])
        cts = json.loads((tmp_path / "counterterms.json").read_text())
        assert cts["mu_poly"][1] < 0

    def test_powercount_d3_catalog_has_chain(self, runner, tmp_path):
        result = run_ok(runner, ["powercount", "--dim", "3", "--check",
                                 "--out", str(tmp_path)])
        catalog = json.loads((tmp_path / "catalog.json").read_text())
        chain = [e for e in catalog if e["name"] == "chain"][0]
        assert chain["rho"] == 0.0 and chain["rho_bar"] == 0.5
        assert "chain" in result.output
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "powercount"
        assert manifest["params"] == {"dim": 3}
        assert "spec" not in manifest
        assert "numpy" in manifest["versions"]

    def test_rgflow_check_and_dump(self, runner, tmp_path):
        run_ok(runner, ["rgflow", *REF_ARGS, "--order", "2", "--lambda", "0.05",
                        "--check", "--out", str(tmp_path)])
        flow = json.loads((tmp_path / "flow.json").read_text())
        scales = [entry["scale"] for entry in flow]
        assert scales == [2, 1, 0]

    def test_rgflow_writes_no_cancelled_kernels(self, runner, tmp_path):
        # two quartic copies with no line between them would give a "2,8"
        # kernel of norm 0.0 at scale 1: no connected pattern has 8 free legs
        run_ok(runner, ["rgflow", *REF_ARGS, "--order", "2", "--out", str(tmp_path)])
        terms = json.loads((tmp_path / "flow.json").read_text())[1]["terms"]
        assert "2,8" not in terms and min(terms.values()) > 0.0

    def test_rgflow_order_three_check(self, runner, tmp_path):
        # default 4-site lattice (d=2, L=1, gamma=2, N=1)
        run_ok(runner, ["rgflow", "--cutoff", "1", "--order", "3", "--check",
                        "--out", str(tmp_path)])

    def test_rgflow_default_order_two_check(self, runner, tmp_path):
        run_ok(runner, ["rgflow", "--order", "2", "--check", "--out", str(tmp_path)])

    @pytest.mark.parametrize("args", [REF_ARGS, []], ids=["ref", "default"])
    def test_rgflow_order_one_norms_match_dense_engine(self, runner, tmp_path, args):
        # at order 1 each (order, degree) has one one-vertex block, whose
        # largest |coefficient| is the dense kernel's largest |entry|
        run_ok(runner, ["rgflow", *args, "--order", "1", "--out", str(tmp_path)])
        flow = json.loads((tmp_path / "flow.json").read_text())
        spec = LatticeSpec(d=2, L=1.0, m=1.0, gamma=2.0, N=2) if not args else \
            LatticeSpec(d=2, L=0.25, m=4.0, gamma=math.sqrt(2), N=2)
        V = dense.bare_potential(spec, None, counterterms(spec, 0.05, nu_order=1), 0.05, jmax=1)
        for entry in flow[:-1]:
            want = {f"{o},{k}": norm for (o, k), norm in V.kernel_norms().items()}
            assert entry["terms"].keys() == want.keys()
            for key, norm in want.items():
                assert entry["terms"][key] == pytest.approx(norm, rel=1e-12)
            V = dense.truncated_integrate(V, 1)

    def test_rgflow_infeasible_exits_3(self, runner, tmp_path):
        # 32^3 sites: a two-vertex block would hold 32768^2 > 5e7 coefficients
        start = time.perf_counter()
        result = runner.invoke(main, ["rgflow", "--dim", "3", "--cutoff", "5", "--order", "2",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 3
        assert not (tmp_path / "flow.json").exists()
        assert time.perf_counter() - start < 5

    def test_stability_check(self, runner, tmp_path):
        run_ok(runner, ["stability", *REF_ARGS, "--lambda", "0.05", "--samples", "10",
                        "--check", "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "stability.json").read_text())
        assert payload["inside"] is True
        # exact quadrature draws no samples; the manifest records its nodes per
        # mode, in ascending mode weight, and their product
        params = json.loads((tmp_path / "manifest.json").read_text())["params"]
        assert params["method"] == "exact-quadrature"
        assert params["node_counts"] == [4, 4, 4, 32]
        assert params["quadrature_nodes"] == 32 * 4 ** 3
        assert "samples" not in params

    def test_stability_mc_manifest(self, runner, tmp_path):
        result = run_ok(runner, ["stability", "--lambda", "0", "--samples", "10",
                                 "--out", str(tmp_path)])
        # the MC estimators run the requested count, and the manifest records it
        assert result.stderr == ""
        params = json.loads((tmp_path / "manifest.json").read_text())["params"]
        assert params["method"] == "MC"
        assert params["samples"] == 10
        assert "samples_requested" not in params
        assert "quadrature_nodes" not in params and "node_counts" not in params

    def test_stability_odd_samples_exits_2(self, runner, tmp_path):
        # MC draws come in antithetic pairs, so the count must be even
        result = runner.invoke(main, ["stability", "--samples", "1001", "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "n_samples" in result.stderr

    def test_stability_oversized_grid_exits_3(self, runner, tmp_path):
        # a box of side 2 in d = 3: MC on its 512 sites, and the C_j
        # calibration on the coarsest lattice of the box, 64 sites, is a
        # 32 x 4^63-node grid refused by the node cap
        start = time.perf_counter()
        result = runner.invoke(main, ["stability", "--dim", "3", "--box", "2",
                                      "--lambda", "0.05", "--out", str(tmp_path)])
        assert result.exit_code == 3
        assert "32^1 x 4^63" in result.stderr
        assert time.perf_counter() - start < 30

    def test_stability_d3_runs_on_the_grid(self, runner, tmp_path):
        # 8 sites take 32 nodes on the zero mode and 4 on the others
        run_ok(runner, ["stability", "--dim", "3", "--cutoff", "1", "--lambda", "0.05",
                        "--check", "--out", str(tmp_path)])
        params = json.loads((tmp_path / "manifest.json").read_text())["params"]
        assert params["method"] == "exact-quadrature"
        assert params["node_counts"] == [4] * 7 + [32]
        assert params["quadrature_nodes"] == 32 * 4 ** 7
        assert json.loads((tmp_path / "stability.json").read_text())["fourth_cumulant"]

    def test_stability_gaussian_control(self, runner, tmp_path):
        result = run_ok(runner, ["stability", *REF_ARGS, "--lambda", "0",
                                 "--check", "--out", str(tmp_path)])
        assert "inside True" in result.output


# (arguments, exit code): each guard refuses with 3 before its large
# allocation, a configuration error exits 2, and the largest accepted
# neighbours of the refused runs finish
BOUNDARY = [
    (["stability", "--dim", "3", "--cutoff", "5"], 3),
    (["rgflow", "--dim", "3", "--cutoff", "5", "--order", "2"], 3),  # 32768^2 block entries
    (["rgflow", "--dim", "3", "--cutoff", "3", "--order", "3"], 3),  # 512^3 block entries
    (["graphs", "--order", "4"], 3),  # MAX_ORDER
    (["rgflow", "--order", "4"], 3),
    (["stability", "--dim", "3", "--box", "2"], 3),  # a 32 x 4^63-node calibration grid
    (["stability", "--cutoff", "7"], 3),  # MC on 16384 sites: a 16384^2 mode basis
    (["propagator", "--cutoff", "1"], 2),  # too few displacement classes to fit
    (["propagator", "--box", "0.7"], 2),
    (["graphs", "--dim", "3", "--cutoff", "4"], 0),
    # the source-free series sums translation-reduced patterns by FFT: no
    # dense matrix on 16384 or 32768 sites at any order
    (["graphs", "--dim", "2", "--cutoff", "7"], 0),
    (["graphs", "--dim", "2", "--cutoff", "7", "--order", "2"], 0),
    (["graphs", "--dim", "2", "--cutoff", "7", "--order", "3"], 0),
    (["graphs", "--dim", "3", "--cutoff", "5"], 0),
    (["graphs", "--dim", "3", "--cutoff", "5", "--order", "2"], 0),
    (["graphs", "--dim", "3", "--cutoff", "5", "--order", "3"], 0),
    (["rgflow", "--dim", "3", "--cutoff", "3", "--order", "2"], 0),
    (["rgflow", "--dim", "3", "--cutoff", "4", "--order", "1"], 0),
    # order-1 rgflow reports local couplings only: no d = 3 pair matrix on 32768 sites
    (["rgflow", "--dim", "3", "--cutoff", "5", "--order", "1"], 0),
    (["stability"], 0),  # MC on 16 sites, C_j calibrated on 4
    (["stability", "--dim", "3", "--cutoff", "1"], 0),  # the 32 x 4^7-node grid on 8 sites
    (["stability", "--dim", "3"], 0),  # MC on 64 sites, C_j calibrated on 8
    # MC on 4096 sites: the closed-form 4096^2 mode basis, no eigensolver
    (["stability", "--cutoff", "6"], 0),
    (["stability", "--dim", "3", "--cutoff", "4"], 0),
]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


@pytest.mark.parametrize("args, code", BOUNDARY, ids=[" ".join(a) for a, _ in BOUNDARY])
def test_exit_code_under_a_1_gib_address_space(args, code, tmp_path):
    # a fresh process with its address space capped at 1 GiB: an allocation
    # that a guard missed fails there instead of paging the machine
    src = str(Path(phi4lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "phi4lab.cli", *args, "--out", str(tmp_path)],
                          preexec_fn=_cap_address_space, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    if code:
        assert "Traceback" not in proc.stderr
