import json
import multiprocessing
import os
import time

import numpy as np
import pytest

from ekinv import harness, multigrid
from ekinv.cli import cli
from ekinv.composite import CompositeForward, DecodedBlock, ForwardError
from ekinv.config import load_config
from ekinv.eki import Ensemble, PackingLayout, SpanEnsemble, SpanMembers
from ekinv.forward import DarcyProblem, mollified_observations
from ekinv.grid import build_domain
from ekinv.param_maps import exp_values

# four members per chunk at n = 128, so nine members make three chunks, the
# last of one member
CHUNKED_DARCY = """
[experiment]
model_problem = darcy
parameterization = noncentered-hier
n_ensemble = 9
n_initializations = 1
out_dir = {out}

[eki]
max_outer_iterations = 2

[grid]
n_cells = 128

[observations]
n_obs = 16
"""


def chunked_darcy(tmp_path, name):
    path = tmp_path / f"{name}.ini"
    path.write_text(CHUNKED_DARCY.format(out=tmp_path / name), encoding="utf-8")
    return load_config(path)


def test_two_workers_give_the_inline_outputs_and_report_mean(tmp_path, cpus, pools):
    config = chunked_darcy(tmp_path, "run")
    setup, _, obs, seqs = harness._prepare(config)
    param = harness.build_parameterization(config, setup, obs)
    members = param.sample_initial(np.random.default_rng(seqs[0]))
    fwd = param.forward
    assert fwd.chunk == 4
    inline = fwd(members)
    inline_mean = fwd.report_mean
    cpus(2)
    with fwd.solving_in(harness.solve_workers(config)):
        pooled = fwd(members)
        assert len(multiprocessing.active_children()) == 2
    assert pools == [2]
    assert pooled.tobytes() == inline.tobytes()
    assert fwd.report_mean.tobytes() == inline_mean.tobytes()
    assert multiprocessing.active_children() == []


def test_a_pooled_run_writes_the_inline_files_and_leaves_no_worker(tmp_path, cpus, pools):
    cpus(1)
    inline = harness.run_experiment(chunked_darcy(tmp_path, "inline"))
    assert pools == []
    cpus(2)
    pooled = harness.run_experiment(chunked_darcy(tmp_path, "pooled"))
    assert pools == [2]
    assert multiprocessing.active_children() == []
    assert pooled["initializations"][0]["stop_reason"] == "max-iterations"
    assert pooled["files"] == inline["files"]


def test_a_pooled_run_records_its_workers_page_faults_and_system_time(tmp_path, cpus):
    # outside the SHA-256 inventory, beside the wall times; the system time
    # may read zero where the kernel samples it per tick
    manifests = {}
    for n in (1, 2):
        cpus(n)
        manifests[n] = harness.run_experiment(chunked_darcy(tmp_path, f"cpus{n}"))
    (inline,), (pooled,) = (m["initializations"] for m in manifests.values())
    assert (inline["worker_minor_faults"], inline["worker_system_s"]) == (0, 0.0)
    assert pooled["worker_minor_faults"] > 0
    assert isinstance(pooled["worker_system_s"], float) and pooled["worker_system_s"] >= 0
    assert manifests[1]["files"] == manifests[2]["files"]


def two_initializations(tmp_path, name):
    config = chunked_darcy(tmp_path, name)
    config["experiment"]["n_initializations"] = 2
    return config


def test_every_cpu_count_writes_the_same_files_and_leaves_no_worker(tmp_path, cpus, pools,
                                                                    capsys):
    manifests = {}
    for n in (1, 2, 4):
        cpus(n)
        manifests[n] = harness.run_experiment(two_initializations(tmp_path, f"cpus{n}"))
        assert multiprocessing.active_children() == []
    assert {n: m["processes"] for n, m in manifests.items()} == {
        1: {"solve_workers": 1}, 2: {"solve_workers": 2}, 4: {"solve_workers": 3}}
    assert pools == [2, 2, 3, 3]   # one pool per initialization, which shuts it down
    assert [init["stop_reason"] for init in manifests[4]["initializations"]] == \
        ["max-iterations"] * 2
    assert manifests[1]["files"] == manifests[2]["files"] == manifests[4]["files"]
    assert cli(["report", str(tmp_path / "cpus4")]) == 0
    out = capsys.readouterr().out
    assert json.loads(out[out.index("{"):])["processes"] == {"solve_workers": 3}


def test_a_platform_that_cannot_fork_runs_in_one_process(tmp_path, cpus, pools, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    cpus(2)
    manifest = harness.run_experiment(two_initializations(tmp_path, "run"))
    assert [init["stop_reason"] for init in manifest["initializations"]] == \
        ["max-iterations"] * 2
    assert manifest["processes"] == {"solve_workers": 1}
    assert pools == []


def test_an_aborted_pooled_run_reads_as_inline_and_leaves_no_worker(tmp_path, cpus, pools,
                                                                    monkeypatch):
    build_parameterization = harness.build_parameterization

    def capped(*args):   # after the truth solve, which converges
        monkeypatch.setattr(multigrid, "MAX_ITERATIONS", 1)
        return build_parameterization(*args)

    monkeypatch.setattr(harness, "build_parameterization", capped)
    manifests = []
    for n in (1, 2):
        cpus(n)
        monkeypatch.setattr(multigrid, "MAX_ITERATIONS", 100)
        manifests.append(harness.run_experiment(chunked_darcy(tmp_path, f"cpus{n}")))
        assert multiprocessing.active_children() == []
    assert pools == [2]
    (inline,), (pooled,) = (m["initializations"] for m in manifests)
    assert pooled["stop_reason"] == "aborted"
    assert pooled["message"].startswith(
        "forward evaluation failed: member 0, solve: MG-PCG did not converge within 1 iterations")
    assert pooled["message"] == inline["message"]


def test_a_run_that_raises_leaves_no_worker(tmp_path, cpus, pools, monkeypatch):
    def fails_after_one_evaluation(ensemble, forward_map, *args, **kwargs):
        forward_map(ensemble.members)
        raise KeyError("stop")

    monkeypatch.setattr(harness, "run_inversion", fails_after_one_evaluation)
    cpus(2)
    with pytest.raises(KeyError, match="stop"):
        harness.run_experiment(chunked_darcy(tmp_path, "run"))
    assert pools == [2]
    assert multiprocessing.active_children() == []


def test_solve_workers_use_the_cpus_and_stop_at_the_chunks(tmp_path, cpus):
    config = chunked_darcy(tmp_path, "run")   # three chunks
    cpus(1)
    assert harness.solve_workers(config) == 1
    cpus(8)
    assert harness.solve_workers(config) == 3
    config["experiment"]["n_initializations"] = 4   # run one at a time
    assert harness.solve_workers(config) == 3
    cpus(2)
    assert harness.solve_workers(config) == 2
    config["experiment"]["n_ensemble"] = 4   # one chunk
    assert harness.solve_workers(config) == 1
    config["experiment"]["n_ensemble"] = 200   # four chunks of the 1D grid's 65 members
    config["experiment"]["model_problem"] = "source1d"
    config["grid"]["n_cells"] = 1000
    assert harness.solve_workers(config) == 1


def test_the_estimate_counts_a_chunk_per_solve_worker(tmp_path, cpus):
    config = chunked_darcy(tmp_path, "run")
    cpus(1)
    one = harness.memory_estimate(config)
    cpus(2)
    two = harness.memory_estimate(config)
    assert two == dict(one, **{"solve workers": 2 * one["forward chunk"]})


@pytest.mark.parametrize("n", [32, 64, 128])
def test_the_forward_chunk_counts_the_plan_a_chunk_solve_keeps(tmp_path, n):
    config = chunked_darcy(tmp_path, "run")
    config["grid"]["n_cells"] = n
    setup, _, obs, seqs = harness._prepare(config)
    param = harness.build_parameterization(config, setup, obs)
    param.forward(param.sample_initial(np.random.default_rng(seqs[0])))
    plan = setup.solver._plan(1)
    assert plan.members == min(9, param.forward.chunk)
    assert harness.memory_estimate(config)["forward chunk"] >= plan.nbytes


def constant_forward(solver=None, to_kappa=lambda values: values):
    """A Darcy forward map whose member j is the constant field
    to_kappa(member[0, j]), three members a chunk: {0, 1, 2}, {3, 4, 5},
    {6, 7}."""
    domain = build_domain(2, [6.0, 6.0], [16, 16])

    def constant(block):
        return np.repeat(block[:1].T, domain.n_interior, axis=1)

    fwd = CompositeForward(
        decode_block=lambda M: DecodedBlock(domain, to_kappa(constant(M)), constant(M)),
        solver=solver or DarcyProblem(domain).solve,
        obs=mollified_observations(domain, 2, sigma=0.5))
    fwd.chunk = 3
    return fwd


@pytest.mark.parametrize("J, chunk, blocks", [
    (50, 4, [(0, 16), (16, 32), (32, 48), (48, 50)]),
    (50, 16, [(0, 16), (16, 32), (32, 48), (48, 50)]),
    (50, 6, [(0, 18), (18, 36), (36, 50)]),   # 6 does not divide 16: three whole chunks
    (200, 65, [(0, 65), (65, 130), (130, 195), (195, 200)]),
])
def test_an_evaluation_forms_each_block_of_whole_chunks_once(J, chunk, blocks, monkeypatch):
    rng = np.random.default_rng(J + chunk)
    layout = PackingLayout(blocks=(("a", 11), ("b", 3)))
    U0, A = rng.standard_normal((layout.dim, J)), rng.standard_normal((J, J))
    members = SpanEnsemble(Ensemble(U0, layout), A, (1.0, 1.0)).members
    formed = []
    form = SpanMembers._form

    def spy(self, start, stop):
        formed.append((start, stop))
        return form(self, start, stop)

    monkeypatch.setattr(SpanMembers, "_form", spy)
    fwd = constant_forward()
    fwd.decode_block = lambda M: DecodedBlock(None, M.T, M.T)
    fwd.chunk = chunk
    for cols, block in fwd.decoded_chunks(members):
        first, stop = next(b for b in blocks if b[0] <= cols[0] and cols[-1] < b[1])
        # a block's members are its own product, not a chunk's
        formed_block = np.vstack([U0[:11] @ A[:, first:stop], U0[11:] @ A[:, first:stop]])
        assert block.report.T.tobytes() == \
            formed_block[:, cols.start - first:cols.stop - first].tobytes()
    assert formed == blocks


def error_of(fwd, members, workers):
    with fwd.solving_in(workers):
        with pytest.raises(ForwardError) as info:
            fwd(members)
    assert multiprocessing.active_children() == []
    return str(info.value)


def fails_to_converge_at(value):
    solve = DarcyProblem(build_domain(2, [6.0, 6.0], [16, 16])).solve

    def solver(kappas):
        if value in kappas[:, 0]:
            raise multigrid.ConvergenceError(list(kappas[:, 0]).index(value), 100, 3e-7)
        return solve(kappas)
    return solver


def test_a_member_that_fails_in_a_worker_reads_as_inline():
    members = np.arange(1.0, 9.0)[None, :]
    fwd = constant_forward(fails_to_converge_at(5.0))
    assert error_of(fwd, members, 2) == error_of(fwd, members, 1) == (
        "member 4, solve: MG-PCG did not converge within 100 iterations (relative residual "
        "3.000e-07 above 1e-10)")

    members[0, 6] = -1.0   # a MemberError of the conductivity check, in the third chunk
    fwd = constant_forward()
    assert error_of(fwd, members, 2) == error_of(fwd, members, 1) == (
        "member 6, solve: conductivity must be strictly positive")


def test_a_member_that_fails_to_solve_reads_before_a_later_one_that_fails_to_decode():
    members = np.log(np.arange(1.0, 9.0))[None, :]
    members[0, 7] = 701.0   # beyond the exp map's range
    fwd = constant_forward(fails_to_converge_at(2.0), to_kappa=exp_values)
    assert error_of(fwd, members, 2) == error_of(fwd, members, 1) == (
        "member 1, solve: MG-PCG did not converge within 100 iterations (relative residual "
        "3.000e-07 above 1e-10)")
    members[0, 1] = 0.0   # nothing fails to solve now
    assert error_of(fwd, members, 2) == error_of(fwd, members, 1)
    assert error_of(fwd, members, 2).startswith("member 7, decode: exp map")


@pytest.mark.parametrize("late_decode_s", [0.0, 0.3])
def test_a_dead_worker_aborts_the_evaluation_naming_its_chunk(late_decode_s):
    # a late decode submits the third chunk to a pool already broken
    def dies(kappas):
        os._exit(1)

    fwd = constant_forward(dies)
    decode_block = fwd.decode_block

    def late(block):
        if block[0, 0] > 6:
            time.sleep(late_decode_s)
        return decode_block(block)

    fwd.decode_block = late
    assert error_of(fwd, np.arange(1.0, 9.0)[None, :], 2).startswith(
        "members 0-2, solve: A process in the process pool was terminated abruptly")
