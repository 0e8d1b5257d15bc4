"""Seeded output bytes, pinned by SHA-256 digest.

A seed fixes every byte a sampler writes: the `riesz` and `sample` CLI
files and stdout, and the `riesz.sample`, `telescopic.sample` and
`walks.sample_paths` arrays. The digests below were taken from the
per-symbol loop samplers that the array versions replaced, so these tests
check the array versions against that code, not against themselves. The
`walks.sample_paths` digests were taken before its evolution-measure
helpers were rewritten around the telescoping identity, and the
`thermo.markov_measure` digests before the base measure became a
finite-state source.
"""

import hashlib

import numpy as np
import pytest

from multifract import cli, riesz, telescopic, thermo, walks


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def arrays_digest(arrays) -> str:
    """One digest over a sequence of integer arrays, lengths included."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        assert a.dtype == np.int64
        h.update(len(a).to_bytes(8, "little"))
        h.update(a.astype("<i8").tobytes())
    return h.hexdigest()


ORDER1_M3 = telescopic.BaseMeasure.markov(
    m=3,
    order=1,
    initial=np.array([0.2, 0.3, 0.5]),
    kernel=np.array([[0.1, 0.6, 0.3], [0.5, 0.25, 0.25], [0.3, 0.3, 0.4]]),
)
ORDER2_M2 = telescopic.BaseMeasure.markov(
    m=2,
    order=2,
    initial=np.array([0.1, 0.2, 0.3, 0.4]),
    kernel=np.array([[0.5, 0.5], [0.2, 0.8], [0.7, 0.3], [0.9, 0.1]]),
)
ORDER1_M2_JSON = '{"m": 2, "order": 1, "initial": [0.3, 0.7], "kernel": [[0.9, 0.1], [0.4, 0.6]]}'
LAWS = {
    "uniform2": telescopic.BaseMeasure.uniform(2),
    "uniform3": telescopic.BaseMeasure.uniform(3),
    "order1": ORDER1_M3,
    "order2": ORDER2_M2,
}

RIESZ_CLI = {
    # (d, b, n, seed): (--out file digest, stdout digest)
    (2, 0.5, 1_000_000, 5): (
        "e2378089774b49a4029870d7f8fe07a96bf8fd7d1bf5c3731ee5cbd9dff822ea",
        "01105ed470fc34223b7989a0ca5937987cc35384277d301083824d50e25b4bc8",
    ),
    (3, -0.3, 100_003, 1): (
        "d8def26b63d911ce206d2cfe91a51ac67e2deda3fdd6205135e3339eaade0c3f",
        "842128ab0bb21d50191876d8ed6b5a88ba370345088fb2b0fcf59ba010106dc7",
    ),
    (1, 1.0, 7, 2): (
        "b6dc15fc2864c5840922a9493717f57f2a77a6ef1d598072d5dfc35618a43597",
        "a739390ea6899ee265ebe973a47f7f83595464a6660c572f6a93a0ec11381f2b",
    ),
    (5, 0.2, 12_345, 3): (
        "96c41cc85ef33a3cac6012180bf10e2b0eea0933e5b65592c46b84bcbf3ac15b",
        "7206e14f4c3ecb688c22c3105fe938ae5ca207636f3204ff8611ac99acdd4a9b",
    ),
}


@pytest.mark.parametrize("d, b, n, seed", sorted(RIESZ_CLI))
def test_riesz_cli_bytes(tmp_path, capsys, d, b, n, seed):
    out = tmp_path / "path.txt"
    argv = ["riesz", "--d", str(d), "--b", str(b), "--n", str(n), "--seed", str(seed),
            "--out", str(out)]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    assert (sha256(out.read_bytes()), sha256(stdout.encode())) == RIESZ_CLI[(d, b, n, seed)]


SAMPLE_CLI = {
    # (measure, m, q, n, seed): --out file digest
    ("uniform", 2, 2, 1_000_000, 7): "af437e99c16ac49de417e4ebf90d3f6e7a1d3a00926b03684fdca071fd83d399",
    ("uniform", 3, 3, 100_003, 2): "29b10f63795e190b89192b02d1a23654c8806319c6b3c450e75f3768b930589a",
    # one character 0-9a-z per symbol: "b" is 11, so every file decodes
    ("uniform", 12, 2, 20_000, 4): "f0eba7d98023b77b502942ada458b343a3a9b8f68fd7e788df4e269437b6df5d",
    ("order1.json", 2, 2, 100_003, 9): "75ef1f6bfcfc3af83acdcb06297a35a425d43f99108d7399022f3d41c04624b7",
}


@pytest.mark.parametrize("measure, m, q, n, seed", sorted(SAMPLE_CLI))
def test_sample_cli_bytes(tmp_path, measure, m, q, n, seed):
    if measure != "uniform":
        law = tmp_path / measure
        law.write_text(ORDER1_M2_JSON)
        measure = str(law)
    out = tmp_path / "path.txt"
    argv = ["sample", "--measure", measure, "--m", str(m), "--q", str(q), "--n", str(n),
            "--seed", str(seed), "--out", str(out)]
    assert cli.main(argv) == 0
    assert sha256(out.read_bytes()) == SAMPLE_CLI[(measure.rsplit("/", 1)[-1], m, q, n, seed)]


def test_sample_cli_stdout(capsys):
    assert cli.main(["sample", "--measure", "uniform", "--n", "10", "--seed", "1"]) == 0
    assert capsys.readouterr().out == "0001001000\n"
    assert cli.main(["sample", "--measure", "uniform", "--m", "12", "--n", "6", "--seed", "1"]) == 0
    assert capsys.readouterr().out == "090402\n"


TELESCOPIC_NS = (1, 2, 3, 4, 5, 7, 64, 1000, 99_999)
TELESCOPIC = {
    # (law, q): digest of the paths for every n in TELESCOPIC_NS and seeds 0, 11
    ("order1", 2): "a0d2c7d131dd2d8e09dcc845937cc70abd90dadabdb8edaf4cd102400536ab88",
    ("order1", 3): "5b7d122086b386607db61492702fc72cceb8592883518143553a2b6a0e39f2d0",
    ("order1", 5): "322aac4fc545ee16b07b5c056358eabd2378ea95d2546d9a8d59b0d338104f6a",
    ("order2", 2): "66df82772cc7782b8da5cd8d24c057362bf6574cc0308e02484bb09b916b3654",
    ("order2", 3): "eddb4f3fd839218e9af193b00c13b31b0edf440c6e9ffff734c24b311b2d4c68",
    ("order2", 5): "146ef4f34acd3a193146c098d9c8064af87a93e1a24512ca200dc6581d969a16",
    ("uniform2", 2): "e246fdcc67d4a5ade1c60e7d82deb84a03ae0c2c18711e90ee7f668a9cc6dcaa",
    ("uniform2", 3): "698d5229c8eb0c2ee629949b18b2f14b6149dc178bbb38f9bf5e8c6dc82c7e72",
    ("uniform2", 5): "ca729fba58a3737661b438849637f7f21a213377289420da066d58eaa35d7549",
    ("uniform3", 2): "84d38337b1583c728c02c782594f18548d31574ceb49c51d024abe2dac4ad579",
    ("uniform3", 3): "e66edf44055d2152e1f8e447370e0941aed6291f212f7fc4dbb930ef25f931c0",
    ("uniform3", 5): "f607358b0c99d0af991e921b6071d1b7cad15815674543c57c08d9ffd9df4725",
}


@pytest.mark.parametrize("law, q", sorted(TELESCOPIC))
def test_telescopic_sample_arrays(law, q):
    measure = telescopic.TelescopicMeasure(base=LAWS[law], q=q)
    paths = (telescopic.sample(measure, n, seed).symbols for n in TELESCOPIC_NS for seed in (0, 11))
    assert arrays_digest(paths) == TELESCOPIC[(law, q)]


def markov_laws():
    """The Markov laws of three fixed points, built the way `sample --potential` builds them."""
    indicator = thermo.indicator_potential(2, 2)
    seeded = thermo.Potential(m=3, q=2, d=3, table=np.random.default_rng(3).uniform(-1, 1, (3, 3, 3)))
    return {
        "indicator": thermo.markov_measure(indicator, thermo.solve_pressure_slope(indicator, 0.5)),
        "rademacher": thermo.markov_measure(thermo.rademacher_potential(2, 3), 0.7),
        "seeded": thermo.markov_measure(seeded, -1.3),
    }


MARKOV_NS = (1, 2, 3, 7, 1000, 99_999)
MARKOV = {
    # (law, q): digest of the paths for every n in MARKOV_NS and seeds 0, 11
    ("indicator", 2): "c3a591c5e6b18279ac72ba2c21a4a0e8926b006b81ff8470de1052cff760ffd0",
    ("indicator", 3): "f28da4fb02af84a5a6107a9b74a23df175fb31ba8429cd6cc0d8cb46e22151b4",
    ("rademacher", 2): "3216af5956aa707601cea8f967c56828f5ab9c7a1a005d5fef9575c38426ef32",
    ("rademacher", 3): "efbedf26a8911cb00b387184ca88d96c64b639d31deba4cde557ce3271ecc6f7",
    ("seeded", 2): "2a30f08edb50beaf9e926329c0de7835d9a157d33da176b61e36cdee7844e3b1",
    ("seeded", 3): "daf29bdf54433c5d4eabf2f4a2a713721f777bc77898f928765e1a6842ad711f",
}


@pytest.mark.parametrize("law, q", sorted(MARKOV))
def test_markov_measure_sample_arrays(law, q):
    measure = telescopic.TelescopicMeasure(base=markov_laws()[law], q=q)
    paths = (telescopic.sample(measure, n, seed).symbols for n in MARKOV_NS for seed in (0, 11))
    assert arrays_digest(paths) == MARKOV[(law, q)]


RIESZ_NS = (1, 2, 3, 7, 1000, 100_003)
RIESZ = {
    # d: digest of the paths for every b in (0.5, -0.3, 1, 0), n in RIESZ_NS and seeds 0, 11
    1: "b79d6865563509bd1772be174d57e0dd69d2fd4a7e32095ae587622176ed8d77",
    2: "78492080e9360ac44fd3258c76a3006850870ad3cac4da8308d59e92403204a7",
    3: "f65c77a3cdc2591fc357a5534a8ae0fa84dd2e87182131102458afbd1c144997",
    5: "3ade03affe30670696a6e9a390321a18254f7a670670aa065a0be897d1e23c34",
}


@pytest.mark.parametrize("d", sorted(RIESZ))
def test_riesz_sample_arrays(d):
    paths = (
        riesz.sample(riesz.WalshRieszMeasure(d, b), n, seed)
        for b in (0.5, -0.3, 1.0, 0.0)
        for n in RIESZ_NS
        for seed in (0, 11)
    )
    assert arrays_digest(paths) == RIESZ[d]


WALK_DRAWS = ((1, 1, 0), (7, 3, 11), (300, 20, 7), (1000, 100, 11))
WALKS = {
    # (system, s): digest of every row drawn for each (n, paths, seed) in WALK_DRAWS
    ("case1", (0.8,)): "01857dfc220618e182c43b3bc8c88610c43f5b2f4635515ad6117042493e2e7a",
    ("case2", (0.5, -0.2)): "099ec8e02e6c6e97c3d2f642e7b777729562bf902039725dca5f33d696993cda",
    ("case2", (0.1, 0.2)): "bd376bdbdf9a4b826b0344dcf893c8394226b22d4a0e2d8176f3ed54774d79ae",
}


@pytest.mark.parametrize("system, s", sorted(WALKS))
def test_walk_sample_paths_arrays(system, s):
    walk = getattr(walks, system)()
    rows = (
        row
        for n, paths, seed in WALK_DRAWS
        for row in walks.sample_paths(walk, s, n, paths, seed)
    )
    assert arrays_digest(rows) == WALKS[(system, s)]
