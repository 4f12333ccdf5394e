import json

import numpy as np
import pytest

from ekinv import harness, multigrid
from ekinv.cli import cli

TINY_DARCY = """
[experiment]
model_problem = darcy
parameterization = noncentered-hier
n_ensemble = 6
n_initializations = 2
out_dir = {out}

[eki]
max_outer_iterations = 2

[grid]
n_cells = 16

[observations]
n_obs = 16
"""


def tiny_darcy(tmp_path, name):
    path = tmp_path / f"{name}.ini"
    path.write_text(TINY_DARCY.format(out=tmp_path / name), encoding="utf-8")
    return harness.load_config(path)


def test_serial_and_parallel_runs_write_identical_files(tmp_path, monkeypatch):
    builds = []
    build_model_setup = harness.build_model_setup

    def counted(config):
        builds.append(config)
        return build_model_setup(config)

    monkeypatch.setattr(harness, "build_model_setup", counted)
    serial = harness.run_experiment(tiny_darcy(tmp_path, "serial"))
    assert len(builds) == 1
    parallel = harness.run_experiment(tiny_darcy(tmp_path, "parallel"), parallel=2)
    assert [init["stop_reason"] for init in serial["initializations"]] == \
        ["max-iterations"] * 2
    assert len(serial["files"]) > 2
    assert serial["files"] == parallel["files"]


def test_solver_failure_reaches_the_manifest(tmp_path, monkeypatch):
    # the truth solve converges; the cap then drops to one iteration
    build_parameterization = harness.build_parameterization

    def capped(*args):
        monkeypatch.setattr(multigrid, "MAX_ITERATIONS", 1)
        return build_parameterization(*args)

    monkeypatch.setattr(harness, "build_parameterization", capped)
    manifest = harness.run_experiment(tiny_darcy(tmp_path, "capped"))
    for init in manifest["initializations"]:
        assert init["stop_reason"] == "aborted"
        assert init["n_records"] == 0
        assert init["message"].startswith(
            "forward evaluation failed: member 0, solve: MG-PCG did not converge "
            "within 1 iterations (relative residual ")

    # an initialization that aborts before its first record made no iterations
    assert cli(["report", str(tmp_path / "capped")]) == 0
    summary = (tmp_path / "capped" / "summary.csv").read_text(encoding="utf-8")
    assert summary.splitlines()[1:] == ["0,aborted,0,,", "1,aborted,0,,"]


def test_cli_exit_codes(tmp_path, capsys):
    tiny_darcy(tmp_path, "valid")
    assert cli(["validate", str(tmp_path / "valid.ini")]) == 0
    assert cli(["validate", str(tmp_path / "missing.ini")]) == 1
    assert "cannot read config" in capsys.readouterr().err
    (tmp_path / "bad.ini").write_text("[experiment]\nmodel_problem = darcy\n"
                                      "parameterization = level-set\n", encoding="utf-8")
    assert cli(["validate", str(tmp_path / "bad.ini")]) == 1
    assert "[experiment] parameterization: must be one of" in capsys.readouterr().err
    assert cli(["frobnicate"]) == 2


def test_manifest_from_another_schema_fails_loudly(tmp_path):
    config = tiny_darcy(tmp_path, "folded").to_dict()
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"config": config}), encoding="utf-8")
    assert harness.config_from_manifest(manifest).to_dict() == \
        harness.ExperimentConfig(config).to_dict()

    config["experiment"]["parameterization"] = "level-set"
    manifest.write_text(json.dumps({"config": config}), encoding="utf-8")
    with pytest.raises(harness.ConfigError, match="parameterization"):
        harness.config_from_manifest(manifest)
    assert cli(["run", str(manifest), "--out-dir", str(tmp_path / "never")]) == 1
    assert not (tmp_path / "never").exists()

    config["experiment"]["parameterization"] = "plain"
    del config["grid"]["n_cells"]
    manifest.write_text(json.dumps({"config": config}), encoding="utf-8")
    with pytest.raises(harness.ConfigError, match=r"\[grid\] n_cells"):
        harness.config_from_manifest(manifest)


def test_field_cauchy_prior_samples_have_cauchy_increments(tmp_path):
    delta = 0.5
    path = tmp_path / "prior.ini"
    path.write_text(f"""
[experiment]
model_problem = source1d

[grid]
n_cells = 100

[field_hyper]
cauchy_delta = {delta}

[sample_prior]
mode = field-cauchy
n_samples = 120
""", encoding="utf-8")
    harness.sample_prior_fields(harness.load_config(path), tmp_path / "out")
    increments = []
    for s in range(120):
        v = np.loadtxt(tmp_path / "out" / f"field-cauchy_v_s{s}.csv", delimiter=",",
                       skiprows=1)[:, 1]
        jumps = np.diff(v)
        assert np.count_nonzero(jumps) == 19   # one increment per knot
        increments.append(jumps[jumps != 0])
    increments = np.concatenate(increments)
    # Cauchy(0, delta): P(|D| > 10 delta) = 1 - 2 arctan(10) / pi = 0.0635;
    # standard normal draws exceed 5 with probability 6e-7
    tail = np.mean(np.abs(increments) > 10 * delta)
    assert tail == pytest.approx(1 - 2 * np.arctan(10) / np.pi, abs=0.02)


# Every valid model x parameterization x coefficient_map, plus each plain
# prior, on tiny grids: (model_problem, parameterization, coefficient_map,
# plain_prior or None for auto).
MATRIX = [
    ("source1d", "plain", "identity", "scalar"),
    ("source1d", "plain", "identity", "field-gauss"),
    ("source1d", "plain", "identity", "field-cauchy"),
    ("source1d", "centered-hier", "identity", None),
    ("source1d", "noncentered-hier", "identity", None),
    ("source1d", "noncentered-field-gauss", "identity", None),
    ("source1d", "noncentered-field-cauchy", "identity", None),
    ("darcy", "plain", "exp", None),
    ("darcy", "plain", "exp", "field-gauss"),
    ("darcy", "centered-hier", "exp", None),
    ("darcy", "noncentered-hier", "exp", None),
    ("darcy", "plain", "level-set", None),
    ("darcy", "centered-hier", "level-set", None),
    ("darcy", "noncentered-hier", "level-set", None),
    ("darcy", "plain", "channel", None),
    ("darcy", "centered-hier", "channel", None),
    ("darcy", "noncentered-hier", "channel", None),
]
MATRIX_GRID = {"source1d": (40, 10), "darcy": (16, 16)}   # n_cells, n_obs


def case_name(case):
    return "-".join(part for part in case if part)


def matrix_config(tmp_path, model, parameterization, coefficient_map, plain_prior):
    n_cells, n_obs = MATRIX_GRID[model]
    text = f"""
[experiment]
model_problem = {model}
parameterization = {parameterization}
coefficient_map = {coefficient_map}
n_ensemble = 6
n_initializations = 2
out_dir = {tmp_path / "run"}

[eki]
max_outer_iterations = 2

[grid]
n_cells = {n_cells}

[observations]
n_obs = {n_obs}
"""
    if plain_prior:
        text += f"\n[prior]\nplain_prior = {plain_prior}\n"
    path = tmp_path / "config.ini"
    path.write_text(text, encoding="utf-8")
    return harness.load_config(path)


@pytest.mark.parametrize("case", MATRIX, ids=case_name)
def test_every_configuration_writes_its_golden_files_also_when_rerun(tmp_path, case):
    golden = GOLDEN_FILES[case_name(case)]
    manifest = harness.run_experiment(matrix_config(tmp_path, *case))
    assert [init["stop_reason"] for init in manifest["initializations"]] == \
        ["max-iterations"] * 2
    assert manifest["files"] == golden
    rerun = harness.config_from_manifest(tmp_path / "run" / "manifest.json")
    rerun["experiment"]["out_dir"] = str(tmp_path / "rerun")
    assert harness.run_experiment(rerun)["files"] == golden


# Manifest inventories (file -> SHA-256) of every matrix case, taken before
# the parameterizations were built from one table.
GOLDEN_FILES = {
    "source1d-plain-identity-scalar": {
        "init_00/mean_field.bin": "7f82ee1f7f53eb26a8042c5e8216993f8a11751327e5f9fae7e39690b91d29d6",
        "init_00/records.csv": "f753605bce0753e201be4c7d828f06de9640bf58b97fc7e47dc3ffd99ed91f22",
        "init_00/snapshot_iter_000.bin": "b92e3d36e495708165742e744971c904789e7b33420bc0e97347d9a445f3f987",
        "init_00/snapshot_iter_001.bin": "82d6b1fd6ee571fce6463497efebad491a73368b6902973d826f63ab2a8c7003",
        "init_00/snapshot_iter_002.bin": "7f82ee1f7f53eb26a8042c5e8216993f8a11751327e5f9fae7e39690b91d29d6",
        "init_01/mean_field.bin": "21136b1f961abea9f852fb27a2c6d1cbc9f798765d98691bfed1e130574edb41",
        "init_01/records.csv": "8d7a1614b0f1902991a5ecbdfd9330278ccb2e7245b4c5589396da14436b01d2",
        "init_01/snapshot_iter_000.bin": "667f7f0c3fe4bb07044e5df0782d648f31dadb1a2f6413cface8a29afaba1bea",
        "init_01/snapshot_iter_001.bin": "5ec9feacfbc9a6bc1341a172ebdc50be21fbb8abaa64c64149498aea85a01b1a",
        "init_01/snapshot_iter_002.bin": "21136b1f961abea9f852fb27a2c6d1cbc9f798765d98691bfed1e130574edb41",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-plain-identity-field-gauss": {
        "init_00/mean_field.bin": "85935cd1565b7340c730f87eeec1faf6b6469470fb469a2d080c056b3f8d55b0",
        "init_00/records.csv": "811dc7608e4a7e671c5545abb3a2d9890a2c9319a99d926594277b897a198727",
        "init_00/snapshot_iter_000.bin": "01b551505e04d2916b0b693a23bf7077eb513dcfb80c524813075adb8adb7bb4",
        "init_00/snapshot_iter_001.bin": "b4f7302dbd3c5781ae897afa82b1042baa2bd77916595233263aaf92410d3f87",
        "init_00/snapshot_iter_002.bin": "85935cd1565b7340c730f87eeec1faf6b6469470fb469a2d080c056b3f8d55b0",
        "init_01/mean_field.bin": "81603fab541edce9c9e6b20de242c18e0a0deb0ed03162f287058d057d908f2a",
        "init_01/records.csv": "4ed6912420e5d6a814eee5237b49b3de811f8473a7f8bca2f0ab5a9d8ea5fb90",
        "init_01/snapshot_iter_000.bin": "ab570158c1000e6d2657102e22cd5e3b61ae445932850b33985c101fa621b5e1",
        "init_01/snapshot_iter_001.bin": "f2e7a33f7fc33c3782091f6ee36e3d61097596f8457c08f48b948b853c55129f",
        "init_01/snapshot_iter_002.bin": "81603fab541edce9c9e6b20de242c18e0a0deb0ed03162f287058d057d908f2a",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-plain-identity-field-cauchy": {
        "init_00/mean_field.bin": "5600402218ea0505fcd3c80d5b0b0360779a429282430485671311a7e5802867",
        "init_00/records.csv": "92988fb45e2f1eadd59ba49e797d4f72d42b4057247adcce0672991bd20746f8",
        "init_00/snapshot_iter_000.bin": "89f7fd2e8aedf33fce903c1947f7220bc1f67770ade9a4aaf0c6ddc72c855531",
        "init_00/snapshot_iter_001.bin": "8f55fb06a12e33c875ca2cf958d18953b5885b2f821622095c9ac4cf9c706d32",
        "init_00/snapshot_iter_002.bin": "5600402218ea0505fcd3c80d5b0b0360779a429282430485671311a7e5802867",
        "init_01/mean_field.bin": "28d76976ce59f0e85361f295f2e77fb56e043cfa20048684ad37eb9ff2b8ddad",
        "init_01/records.csv": "7b861c2f5f7eb797084c3bf37f2f43472a4b5ff24ebd86ee0e55bf5387920bd8",
        "init_01/snapshot_iter_000.bin": "ac18124a2c06e857bad314db5c73b50943d7af3b31dedd3b8ad9ebc0c4b2d342",
        "init_01/snapshot_iter_001.bin": "098162d1d6bc7c31922f16ea4de4b65bba191d2742a407a381be50009b9be953",
        "init_01/snapshot_iter_002.bin": "28d76976ce59f0e85361f295f2e77fb56e043cfa20048684ad37eb9ff2b8ddad",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-centered-hier-identity": {
        "init_00/hypers.csv": "7a8f3a45818e2bda909d53ed40074c885a11d60484e57911ff0cb3a0f7a9fbdb",
        "init_00/mean_field.bin": "9c0391824a09827940a124d292652fbe99affffb0bc829ef49a16e304bfe59a0",
        "init_00/records.csv": "fb22f46a51b2d625e1c7757aa02fe782ba730d3484a4b6f09d03deb894c30cd7",
        "init_00/snapshot_iter_000.bin": "f11860aac6e4c3097afbd835c5e475a8854154d756964f30a3f9235052a11d9a",
        "init_00/snapshot_iter_001.bin": "cb6ca5d1ba61e961e88f12fdf038453393168ada6a218e8e628e56a665ea73ba",
        "init_00/snapshot_iter_002.bin": "9c0391824a09827940a124d292652fbe99affffb0bc829ef49a16e304bfe59a0",
        "init_01/hypers.csv": "3497d763759143df3836cdbef143a639e40988baacc3299116688f06f42d7cfe",
        "init_01/mean_field.bin": "9766f1316c94e1a79583d9312dc006642132e03521add50ea936698e08f59237",
        "init_01/records.csv": "34a0a8c3aaca5a33037b2f729a08bf0cfaef5a949afca993f7085a76e12c0527",
        "init_01/snapshot_iter_000.bin": "d483cc8483be8a17ebc06e32c22526c8548e070e2c3c8b48e3fdb4f5e21932a3",
        "init_01/snapshot_iter_001.bin": "d36461898fe3ad4d1b3474a1f884810c06bd3891e147961ce62e333930058162",
        "init_01/snapshot_iter_002.bin": "9766f1316c94e1a79583d9312dc006642132e03521add50ea936698e08f59237",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-noncentered-hier-identity": {
        "init_00/hypers.csv": "1d8ebffcc5d4803b49bb2f67192928c6362d6b1a17bea7ab35ddf61c27879dc5",
        "init_00/mean_field.bin": "e442350d5fb1ffad8c8ca8f938cc51ab4fe4598bb4d1fb8aafdca04ecf6a25c6",
        "init_00/records.csv": "72fae7f6d1bebd434ab6258ad1803fce6114bbc92a03c195e718ffd68d22ec1c",
        "init_00/snapshot_iter_000.bin": "880aa3c2b8de613426d8dcb0e730cf632a1c856182798adf47d15c51392d2cbc",
        "init_00/snapshot_iter_001.bin": "e4f2ca1bd25150cc750fbeeb5e02c887e317da448c3f83776c215783db1c6865",
        "init_00/snapshot_iter_002.bin": "e442350d5fb1ffad8c8ca8f938cc51ab4fe4598bb4d1fb8aafdca04ecf6a25c6",
        "init_01/hypers.csv": "678e0b421dc934f5e326e038f7c430990c714d7b3407ac427318b00e326d7a9a",
        "init_01/mean_field.bin": "3acb7e89de87e7602a890998696d1929a9831a335bc42517f33f2ca4e46aaf55",
        "init_01/records.csv": "77db1bf643ba136f182cb68d0690c9f17366d6bdf10f209e7ca84983fa739944",
        "init_01/snapshot_iter_000.bin": "44afc73e02d8714ca52a006498674edef40e297b84c5b9eb7a5d8f99e1e7efd5",
        "init_01/snapshot_iter_001.bin": "dd55c0ccfc779c98905f447c883a91526b2f7a69813c8992fd526e58efa44464",
        "init_01/snapshot_iter_002.bin": "3acb7e89de87e7602a890998696d1929a9831a335bc42517f33f2ca4e46aaf55",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-noncentered-field-gauss-identity": {
        "init_00/mean_field.bin": "18df3a77891b3751de217ce5b122ed9502bb4fe6c4732c6cc87285cb37e247ef",
        "init_00/records.csv": "39fff3699a91b184cbd129f88b120600ab899d8d2ddf131ed3112c108d43b083",
        "init_00/snapshot_iter_000.bin": "42486f68f563a850f28f26ad06d21efcad31258afb400760170b6f1d55e0500a",
        "init_00/snapshot_iter_001.bin": "35a7396051a81bb69d1ec082739b1acaae30c1c6df3f852c26170957dfa9e8ef",
        "init_00/snapshot_iter_002.bin": "18df3a77891b3751de217ce5b122ed9502bb4fe6c4732c6cc87285cb37e247ef",
        "init_01/mean_field.bin": "59a235f3b6a47416e6dbce811be85a7b0e6053e74069b5b4a3106cdf75f8a263",
        "init_01/records.csv": "4066c40a0dd340e9719be9b011a881eb2b7185c2648b3a3efcccd44aa046f73e",
        "init_01/snapshot_iter_000.bin": "be8ceb3ee3a70c60f53429871930d4d70972fe68aeddeb327e7975f7ae75a3bb",
        "init_01/snapshot_iter_001.bin": "3f91535bb928709504451c1aa2008e324e7d93be47f5999ddeb19d3495ef728e",
        "init_01/snapshot_iter_002.bin": "59a235f3b6a47416e6dbce811be85a7b0e6053e74069b5b4a3106cdf75f8a263",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "source1d-noncentered-field-cauchy-identity": {
        "init_00/mean_field.bin": "8c5ced0b24bd3bf183b2ea4d9832d968be420f40151a017eee03bd5ec9e59f46",
        "init_00/records.csv": "1f98c40cbd8470e2c2126fca657cf4581c64a2b0465a5d23cb3864c4d0903ed6",
        "init_00/snapshot_iter_000.bin": "2d3706f92db6a7d251a741864e6c78702a2cdd2da263428ee1bc7c3f02e9ef77",
        "init_00/snapshot_iter_001.bin": "e3237d9b1eeea4d0fb0f5f61521935a257eb6dfa254ab1eb56a821133214c28e",
        "init_00/snapshot_iter_002.bin": "8c5ced0b24bd3bf183b2ea4d9832d968be420f40151a017eee03bd5ec9e59f46",
        "init_01/mean_field.bin": "dba1a567d03c43df6e217fc9c3b6106f5ae63034fdcdc2ca489d04ecddcf1c82",
        "init_01/records.csv": "72c5c1313c2a290666c3e059b18c4c55b4de758924f7483314d0bf65caec7d72",
        "init_01/snapshot_iter_000.bin": "60083ec0123f40997c2a87a679be424842405e3d4c85ef7d582e22b48a15d5c0",
        "init_01/snapshot_iter_001.bin": "b191109950aefc624be0401b45954ed262ab7a5516986c73b9af0849e30f85f1",
        "init_01/snapshot_iter_002.bin": "dba1a567d03c43df6e217fc9c3b6106f5ae63034fdcdc2ca489d04ecddcf1c82",
        "observations.csv": "b121cbe4085c0bce61ad820e9dd942c387facfeaf36657dffd9951d59ed7e941",
        "truth_field.bin": "b9d32deaf809c063ae0f4c9de34bc8feaaf6cef726d242ff52b306a5166a3350",
    },
    "darcy-plain-exp": {
        "init_00/mean_field.bin": "618884530f3f1cf3b4c1eb359b18fd10a5ec1ade964135e049d7ae72e1b990e8",
        "init_00/records.csv": "c267cea5931c3601884f1ee5504b6f5f6cc4f726a5fa1222b5547081e8f74f45",
        "init_00/snapshot_iter_000.bin": "9f1cecfa218e000a927625b6551cc271742b53112f82d59ddfa6ee7305d0beef",
        "init_00/snapshot_iter_001.bin": "5a109b2c7a58b5c4256182a8e10993e0d39c8cb26850e28b2bbd00fddb511cc2",
        "init_00/snapshot_iter_002.bin": "618884530f3f1cf3b4c1eb359b18fd10a5ec1ade964135e049d7ae72e1b990e8",
        "init_01/mean_field.bin": "538a8100fff36ac2cf8166cc9416e5ce6f2b3e0ce1d041bed9e29b5a87d03112",
        "init_01/records.csv": "46e6e0b42e8f6be1edc3561797546b0d78b3aee0578a578d073c8155cf15e98b",
        "init_01/snapshot_iter_000.bin": "c67182c20ade0048beda934731837e520a85013ab1f3de1f9f235777e9c72fc1",
        "init_01/snapshot_iter_001.bin": "530b26ebb5684f4431c28ba494d4c42b05abb23cd3148adac23a71890a9ca98d",
        "init_01/snapshot_iter_002.bin": "538a8100fff36ac2cf8166cc9416e5ce6f2b3e0ce1d041bed9e29b5a87d03112",
        "observations.csv": "55861e4e698629cfb12e034baa3af3147c44f540baef721fc13fae754eca0265",
        "truth_field.bin": "64ccfc3392dc1e665c5027cc3e70a3cb01c4f0149bd1d27476f2ee3968213450",
    },
    "darcy-plain-exp-field-gauss": {
        "init_00/mean_field.bin": "b1a4af610334bbaf256fac35bd768eee3ec8164cb8d72cda71ce1d2d5c37509f",
        "init_00/records.csv": "039c1e4848041c27cbd68d42d2e415915ecd48ddb5969e1dd2d57e8c2f02666f",
        "init_00/snapshot_iter_000.bin": "7560ebc32d15ab3532876c00a6752f73950bc558b811d0d6e6368d614bc137bd",
        "init_00/snapshot_iter_001.bin": "4a94f92ca5089b73d01caeab5c794e48a6846f66bd3cc750331836a0c69c88f6",
        "init_00/snapshot_iter_002.bin": "b1a4af610334bbaf256fac35bd768eee3ec8164cb8d72cda71ce1d2d5c37509f",
        "init_01/mean_field.bin": "d73287ef69069e1771657479f902a62293a1391c7e189670620ec4b2b97629fb",
        "init_01/records.csv": "e82c84f4dac1bc211ecc7ecdd624bf0c7f3fa801f9ed50ecf8029e8a423ef705",
        "init_01/snapshot_iter_000.bin": "8ab6723a8d8dcbad341ad7c50258358e17b06dd4e5bd01923b8fbaf08955df21",
        "init_01/snapshot_iter_001.bin": "0c14e33c9b9bfdf4e0b362de90add752dd65c1c7949964508789660d98dacb7d",
        "init_01/snapshot_iter_002.bin": "d73287ef69069e1771657479f902a62293a1391c7e189670620ec4b2b97629fb",
        "observations.csv": "55861e4e698629cfb12e034baa3af3147c44f540baef721fc13fae754eca0265",
        "truth_field.bin": "64ccfc3392dc1e665c5027cc3e70a3cb01c4f0149bd1d27476f2ee3968213450",
    },
    "darcy-centered-hier-exp": {
        "init_00/hypers.csv": "6548bc754691b2745c3d1757b3532308056acb999046607728791b06182e94e0",
        "init_00/mean_field.bin": "a8e15bdc5e14dd78111321aaa58de42ff952ab7f243f57377c996e3a183cc562",
        "init_00/records.csv": "7875a7a156128beeb307fab0b54cc7128be5cf9f9c9d34a2e6090ba47983fa1e",
        "init_00/snapshot_iter_000.bin": "4ddbc7bf6da5566e575ec71ffc0cf065c1a83f1099bb05609811463148b1e81e",
        "init_00/snapshot_iter_001.bin": "980d812254709b4c760d07b1708cf0f93c081cab748dc85d67d496ed2059f3ea",
        "init_00/snapshot_iter_002.bin": "a8e15bdc5e14dd78111321aaa58de42ff952ab7f243f57377c996e3a183cc562",
        "init_01/hypers.csv": "849120405b1b4b91b41c8fec9255207afe4893b523c9fb5b848b9adcb2f60dbf",
        "init_01/mean_field.bin": "93139a1f24e31202c23abc4150dde479ec1938de23b200265fe15b96d5c00103",
        "init_01/records.csv": "9bd9aa6e68c9b9819d790aa0f7990a26d6a5bd8f763bac850aeda91c339a7088",
        "init_01/snapshot_iter_000.bin": "cda2820f0789f89f49ac665a6deb454f9b7c7a31888cb524d040b15e383ca100",
        "init_01/snapshot_iter_001.bin": "c6c10e4640b8b0daf2f8827dd9cad3c79775d471bdeb0ffe3ace623a8c659d2b",
        "init_01/snapshot_iter_002.bin": "93139a1f24e31202c23abc4150dde479ec1938de23b200265fe15b96d5c00103",
        "observations.csv": "55861e4e698629cfb12e034baa3af3147c44f540baef721fc13fae754eca0265",
        "truth_field.bin": "64ccfc3392dc1e665c5027cc3e70a3cb01c4f0149bd1d27476f2ee3968213450",
    },
    "darcy-noncentered-hier-exp": {
        "init_00/hypers.csv": "fc49427853545ceda91e6f1e108fe005434bc4e37e1709c08c7caae930d7edfe",
        "init_00/mean_field.bin": "77de85b6e7d725bb8f46d9f6dd8cebdc6936d02c0a08efb0f4a613efcb9a74a8",
        "init_00/records.csv": "5d7a44e5bc54e49dc8fd15f1df1aa50f9c20ab27faa2cccf0812b22f96c4a940",
        "init_00/snapshot_iter_000.bin": "c2b938e164daed70c57770096a9464c9dab6f1439ccf84ea1918a3b7d5d1a867",
        "init_00/snapshot_iter_001.bin": "f01de4c45d9a5dc119e5136b64b65fa927bc3f18dc750d7a736dcdde01f4e8a7",
        "init_00/snapshot_iter_002.bin": "77de85b6e7d725bb8f46d9f6dd8cebdc6936d02c0a08efb0f4a613efcb9a74a8",
        "init_01/hypers.csv": "4db5a5eefd34e0efb9278e481eb70f6da9bca3177aa145ac849ce5984d94a043",
        "init_01/mean_field.bin": "3680e7e51b2a63ea4929e3874d2a3ef217ef20e33a64dd74b3cf276f7ed8a7b4",
        "init_01/records.csv": "56b2eb2baebd3fe512614c356b015d7153720faf5f11d722593544469590e299",
        "init_01/snapshot_iter_000.bin": "229df3099742af594a6d78239d1d3b668951692a1068fc9bc9a7a5ce86458f36",
        "init_01/snapshot_iter_001.bin": "b9e2bc1670fada6559c28b802b2bca5d970957bf9bc356891e708d8294307bb8",
        "init_01/snapshot_iter_002.bin": "3680e7e51b2a63ea4929e3874d2a3ef217ef20e33a64dd74b3cf276f7ed8a7b4",
        "observations.csv": "55861e4e698629cfb12e034baa3af3147c44f540baef721fc13fae754eca0265",
        "truth_field.bin": "64ccfc3392dc1e665c5027cc3e70a3cb01c4f0149bd1d27476f2ee3968213450",
    },
    "darcy-plain-level-set": {
        "init_00/mean_field.bin": "38d4af87f6f4e3022473d57c8cc9fb08f3797fd007142bab1d7c0dc4369afae4",
        "init_00/records.csv": "6a237be6ef9795cfdffb3f32842e46dcfd44f76702660faf6eb46cad12adc339",
        "init_00/snapshot_iter_000.bin": "f474d56b848c34dafbcfd181e41644a7f1fc97fc6c2aee30896e90e271126203",
        "init_00/snapshot_iter_001.bin": "8a79fc02bc4c7a32909330d3aaee67b088329e65c95f733f86631e39b6dc63e7",
        "init_00/snapshot_iter_002.bin": "38d4af87f6f4e3022473d57c8cc9fb08f3797fd007142bab1d7c0dc4369afae4",
        "init_01/mean_field.bin": "e76fdfd68944913d7d37958adf76946681858c994ea3a8cb48bca1f78fb80482",
        "init_01/records.csv": "4c4467540db13b82e24735c7df8d7c8c07379b8402aa1496379533936b683057",
        "init_01/snapshot_iter_000.bin": "cff4202bc9c6fb9b4ac733e2343f0bb267a4155eaeedb253636bfdeebb5c81b1",
        "init_01/snapshot_iter_001.bin": "a0c4a7b76d7df63decd4075b295d453db0d3cee49e900c0fc9e3caa13c6ddc8c",
        "init_01/snapshot_iter_002.bin": "e76fdfd68944913d7d37958adf76946681858c994ea3a8cb48bca1f78fb80482",
        "observations.csv": "13aee8248fd3a0b3694ecd2c51dda1586584e306c51ea65eef0d04938ebb51d1",
        "truth_field.bin": "44bf406e7d2fc577d15af6ea26ea415b6070b292a171cc479be0c71aac2ec7c1",
    },
    "darcy-centered-hier-level-set": {
        "init_00/hypers.csv": "e66a8335a1d5f1207239a341de9a9326fb8ae5752792186ce05ddbf52b8fab06",
        "init_00/mean_field.bin": "894d72535bd0e30ea86dffd31c580593f9e0ff1ee7fb537242e8988c819a3f1b",
        "init_00/records.csv": "e52d50846bba591f3f51faf7dde9bf96288cefc83fa4727910871a87c17d7628",
        "init_00/snapshot_iter_000.bin": "7d04f28e9445c25b4c9191222aa011f13cfd9515ab44d269f521979c801781fe",
        "init_00/snapshot_iter_001.bin": "ae1f717d1f06dff54e75912bb6686084b1fadd3074b105f6ef0a01f86f948d62",
        "init_00/snapshot_iter_002.bin": "894d72535bd0e30ea86dffd31c580593f9e0ff1ee7fb537242e8988c819a3f1b",
        "init_01/hypers.csv": "56e08153a28330f0ea549f93d6ca9ee4a893dd33e77988ac4f98ccbe2cd68992",
        "init_01/mean_field.bin": "3c8cb89cf9b9360278456fcb40254f73d5d640a95d1827adbbffbfbc634a0ed5",
        "init_01/records.csv": "8f0b3baee3b9e3302bc250608053646f95d63625ee603c8bda437dfbfa910aa7",
        "init_01/snapshot_iter_000.bin": "1c5c673b855e563be4271e10798e0121c1e124d918dc3ea51bfff7743b573996",
        "init_01/snapshot_iter_001.bin": "7aa36c001df667faacaa4425fbc481341a5562f82d23c66947d529754c674ed8",
        "init_01/snapshot_iter_002.bin": "3c8cb89cf9b9360278456fcb40254f73d5d640a95d1827adbbffbfbc634a0ed5",
        "observations.csv": "13aee8248fd3a0b3694ecd2c51dda1586584e306c51ea65eef0d04938ebb51d1",
        "truth_field.bin": "44bf406e7d2fc577d15af6ea26ea415b6070b292a171cc479be0c71aac2ec7c1",
    },
    "darcy-noncentered-hier-level-set": {
        "init_00/hypers.csv": "d2d782dc1657a7c47bd46c1eb16f0c6d06934ab3dd698c43d008eabd11e2cb4b",
        "init_00/mean_field.bin": "05f93b03ce96ee72a829cdc74d7dbf3c62c2395cb8d3cb40482ca156634152da",
        "init_00/records.csv": "ca81c9fa60dd186b104f8497f3ec36a1c02eafe9878509b94409e26e495ff687",
        "init_00/snapshot_iter_000.bin": "7b04b4c15f74fa34e485e0abda3c0c766cdc7ef6c8cf373539798684eb5f3768",
        "init_00/snapshot_iter_001.bin": "105461c58f4716dcba2990c4651f11bee9a17cd2123b002ea77741e04ba29bad",
        "init_00/snapshot_iter_002.bin": "05f93b03ce96ee72a829cdc74d7dbf3c62c2395cb8d3cb40482ca156634152da",
        "init_01/hypers.csv": "afe04e61f997148697998747b9d6238bef321362b734a529b4dc9ce1d85fe56d",
        "init_01/mean_field.bin": "0b334cf3bcfdde92fd660a7b1b5031328128be3c54a9c25806ab9bdee93484d5",
        "init_01/records.csv": "ccc22c764b9b5c1d4a9e09f4c65ea1a8c0ebbec7545ea9b375325d990238fe44",
        "init_01/snapshot_iter_000.bin": "3523705427d32734945f45e1b09596b35ef5330cf94284c8da8edeb9b4ddf812",
        "init_01/snapshot_iter_001.bin": "7452a4e6b1bac0b78ad125192d739389938ea90dd5b6b19522efcc31f0fd4c46",
        "init_01/snapshot_iter_002.bin": "0b334cf3bcfdde92fd660a7b1b5031328128be3c54a9c25806ab9bdee93484d5",
        "observations.csv": "13aee8248fd3a0b3694ecd2c51dda1586584e306c51ea65eef0d04938ebb51d1",
        "truth_field.bin": "44bf406e7d2fc577d15af6ea26ea415b6070b292a171cc479be0c71aac2ec7c1",
    },
    "darcy-plain-channel": {
        "init_00/mean_field.bin": "8be39186524571bdf5e8687ac196a104496fb51d28710b1b25d4f6276e5e1b9c",
        "init_00/records.csv": "dbc93e62647cd0d3345c174b367c42db5305ffcea0f963b5dfc7c1e6b72e12ce",
        "init_00/snapshot_iter_000.bin": "1ae4f19957b838faf5c8ba3240f969eb4308064dbcaec92c4d12ef107d8942a2",
        "init_00/snapshot_iter_001.bin": "b7369f1907817458a3fc36802a1a8ff6768145fa41b98bdf24241e1c67a8a7bb",
        "init_00/snapshot_iter_002.bin": "8be39186524571bdf5e8687ac196a104496fb51d28710b1b25d4f6276e5e1b9c",
        "init_01/mean_field.bin": "3056ae828926382ffc4a10fdb8a01968c0c57faf94a073fcbf93c7300bf89d40",
        "init_01/records.csv": "653bd3c5c565f6c372894bc29835af9ca1213f4fb645746c8fc4d5bad659cdc9",
        "init_01/snapshot_iter_000.bin": "2f022475cd33e3d14d46e0388218a5af3b32272142cb46254f15146b45581b9a",
        "init_01/snapshot_iter_001.bin": "46159214152a6760806cac5dbd073779119d0cdfa88f12d56c440c0f59d4c8a3",
        "init_01/snapshot_iter_002.bin": "3056ae828926382ffc4a10fdb8a01968c0c57faf94a073fcbf93c7300bf89d40",
        "observations.csv": "00f436ad5f1f46fd400b38271acf5d7bb6091d86575f532281f5d12306b065c5",
        "truth_field.bin": "83b8ae84489d6cb8c3486aa7836b2986e7f855670d3722d5ac8ed5d77cdeb3d5",
    },
    "darcy-centered-hier-channel": {
        "init_00/hypers.csv": "5606649fbf0ae7373782757be4d017ccddfd9d7056b3606b9ffae3c9143c6ed5",
        "init_00/mean_field.bin": "8be39186524571bdf5e8687ac196a104496fb51d28710b1b25d4f6276e5e1b9c",
        "init_00/records.csv": "dbc93e62647cd0d3345c174b367c42db5305ffcea0f963b5dfc7c1e6b72e12ce",
        "init_00/snapshot_iter_000.bin": "1ae4f19957b838faf5c8ba3240f969eb4308064dbcaec92c4d12ef107d8942a2",
        "init_00/snapshot_iter_001.bin": "b7369f1907817458a3fc36802a1a8ff6768145fa41b98bdf24241e1c67a8a7bb",
        "init_00/snapshot_iter_002.bin": "8be39186524571bdf5e8687ac196a104496fb51d28710b1b25d4f6276e5e1b9c",
        "init_01/hypers.csv": "e7f159e3c058484f39bae554d5a5d72560f1ff620aed7e0a4a36f611d88123f2",
        "init_01/mean_field.bin": "3056ae828926382ffc4a10fdb8a01968c0c57faf94a073fcbf93c7300bf89d40",
        "init_01/records.csv": "653bd3c5c565f6c372894bc29835af9ca1213f4fb645746c8fc4d5bad659cdc9",
        "init_01/snapshot_iter_000.bin": "2f022475cd33e3d14d46e0388218a5af3b32272142cb46254f15146b45581b9a",
        "init_01/snapshot_iter_001.bin": "46159214152a6760806cac5dbd073779119d0cdfa88f12d56c440c0f59d4c8a3",
        "init_01/snapshot_iter_002.bin": "3056ae828926382ffc4a10fdb8a01968c0c57faf94a073fcbf93c7300bf89d40",
        "observations.csv": "00f436ad5f1f46fd400b38271acf5d7bb6091d86575f532281f5d12306b065c5",
        "truth_field.bin": "83b8ae84489d6cb8c3486aa7836b2986e7f855670d3722d5ac8ed5d77cdeb3d5",
    },
    "darcy-noncentered-hier-channel": {
        "init_00/hypers.csv": "2b3f18feab52442722580af1b6b8c9d1a7301dfb1c1552b64fc24e6afb5a2957",
        "init_00/mean_field.bin": "e88b2c4fa0bda3bc49e714a50be87457c3b33ba231cbd658b2a182357fe139e0",
        "init_00/records.csv": "6dc921154b9f1482141b81f991b8faf23d691282cf29eeb5004772454b70c274",
        "init_00/snapshot_iter_000.bin": "ba7bc8deb275a7b6454399ba4b0601cd0610221ead048839ab82d96be7072d2a",
        "init_00/snapshot_iter_001.bin": "23af548ef1431e231b85d2a41791e30d96342a891d7a8cf9d6d224b08bac8050",
        "init_00/snapshot_iter_002.bin": "e88b2c4fa0bda3bc49e714a50be87457c3b33ba231cbd658b2a182357fe139e0",
        "init_01/hypers.csv": "77f16d62940df9260ef92a12e41dd25626fcc1044b472a3161bf18e21e875181",
        "init_01/mean_field.bin": "8b649498a2f992525ff14bb0852368719638ddd1eab28712bebf42fcaef30a89",
        "init_01/records.csv": "7396dfbd2114e272d3fdadef6e3c3e6dc95cca45bc6fe35421196a6fa2fdf7f1",
        "init_01/snapshot_iter_000.bin": "7501032850cfc713e832502bffa0a4685554cfba384c52348f60bdcf040b3ca6",
        "init_01/snapshot_iter_001.bin": "88fce9cbc0bf4e8ccf102bde4d0b8b018a9def9e88b01d07ce6f07123363c44c",
        "init_01/snapshot_iter_002.bin": "8b649498a2f992525ff14bb0852368719638ddd1eab28712bebf42fcaef30a89",
        "observations.csv": "00f436ad5f1f46fd400b38271acf5d7bb6091d86575f532281f5d12306b065c5",
        "truth_field.bin": "83b8ae84489d6cb8c3486aa7836b2986e7f855670d3722d5ac8ed5d77cdeb3d5",
    },
}
