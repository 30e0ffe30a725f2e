"""Golden outputs: sha256 of the `vodsim run` CSV table and of the
`--ledger-out` per-slot table, for every strategy in four regimes.

A refactor of the engine, strategy or metrics code must leave every digest
unchanged; a change that alters results on purpose updates them and says why.
"""

import hashlib

import pytest

from vodsim import cli

POISSON = ["--rho", "0.995", "--capacity", "40"]
TRACE = ["--trace", "{trace}"]
REGIMES = {
    # finite capacity, freezing playback
    "poisson_freeze": (POISSON, "freeze"),
    # finite capacity, skipping playback
    "poisson_skip": (POISSON, "skip"),
    # unlimited capacity: the allocators' short-circuit path
    "trace_unlimited": (TRACE + ["--capacity", "unlimited"], "freeze"),
    # capacity capped at 95% of sc's unlimited peak, skipping playback
    "trace_capped_skip": (
        TRACE + ["--capacity", "unlimited", "--target-fraction", "0.95"], "skip"
    ),
}

# (csv sha256, ledger sha256), recorded before the columnar engine rewrite;
# poisson_freeze-eb's csv re-pinned for the sort-free level fill.
GOLDEN = {
    ("poisson_freeze", "sc"): (
        "a052b053bb4c7635a65543075185a349ed3fbf16b2f89afaa3c1299f16575373",
        "d02f61656abbfc2c229695c25f271f5580a23370d8af1566144994b422443858",
    ),
    ("poisson_freeze", "sc+"): (
        "f8cc4e9aa3b9c25fc26d87fd15dd3d31c35cf7e198c43caeb34ce02fa49d0310",
        "cdd1257f50856d3262065ced3c8d4537681e568e4eff33e2c094ae1f98eb69ba",
    ),
    ("poisson_freeze", "be"): (
        "07a4b8e5f20a3326d80bd7359a1ec41da53477cb04dc643c4966e4e4b9d9cf8c",
        "6170debdf6c579b0f3fc089cc4922355a48e97a1b8ef153c0651374e8f1222c5",
    ),
    ("poisson_freeze", "eb"): (
        "963b197e49f1a34a7f494b0c4ea0c0152a0befd75db716477e1ace863db62707",
        "bf8c640038d5e4fa8c7feba238b539d151c5d89066f7ac41f41e66ab567f93e3",
    ),
    ("poisson_freeze", "ew"): (
        "77d9072bff36148b3bc7ff7e495e118ee11f878d4a5d53ebe71510a2bfaf2151",
        "c88d08e70f3c2552107cfae2ac78a0d0d615465dc40f7fd52152de9060754f40",
    ),
    ("poisson_freeze", "bb"): (
        "dd19cf3d5939623f7e3a329d5d544e9c2b784b1cacbd8757335a0115c540c8ab",
        "4f02edd25e9fd6a359cb70de179c8c379d52a37bd23bc9dc4aad5d36c83c43f8",
    ),
    ("poisson_skip", "sc"): (
        "03127a241e78e6287c070bc659ffc7b24c739f3c3b036e1c42aad79f4c4636f2",
        "1b285a0c1da1c09f932bc86624840bd7436e23a76189bb97bc71f182ee09d4dd",
    ),
    ("poisson_skip", "sc+"): (
        "6f7145b4b3dd387d9e9400757bc3154fa8d05a40cee20b7be49d36a8c1bd3ead",
        "b209acacefe2c6f3e976bc1f18f9d48e275ea4372dbf690cbc094bdd890a8c39",
    ),
    ("poisson_skip", "be"): (
        "2a2cc8b71857000d0f34eee0bdfa1e3d4257a7ae8d5d7aa67d49b89cd6e2c4e2",
        "4855bd62d10c33b4321a4179c06660a3560de45a5cc907fd80dbe740b5304084",
    ),
    ("poisson_skip", "eb"): (
        "ee50ac33cce3a33407258b49650c94b4d4d3d7069a2fcab0f6e74f5d96da10e5",
        "5631209947a43867f5cc45bc0cb73593f8bc5e7d4e726c8321ad743932f6b5b9",
    ),
    ("poisson_skip", "ew"): (
        "0635ade0dc9cd756f021193a377e0d5a94dcd3f2dc96dd58a943b9a205965244",
        "3dd033d8325e0f482d0d4a4aac2876591ef78dbfa522b341c577b4b87ca3174c",
    ),
    ("poisson_skip", "bb"): (
        "0b054f539b5af43f9991a5a066ad3e6cd05738f3dc9ad46cb1caae306c6226bb",
        "c5171616af67629e15bc8c532740a6e72625cc42a728b740e88131b6d6ebb2e8",
    ),
    ("trace_unlimited", "sc"): (
        "017872fbc7d38926d526c27e5941e5769e3e3a288774d6e829c4e277c1ef3b6f",
        "2c5b626c421fff1ab316fead14697632d1a62ef561aba763363a7cb8b33e7113",
    ),
    ("trace_unlimited", "sc+"): (
        "c7c5aa3f27ad2e05b3d6a17ce365fa761d22d68c6e9f2a7bd8d4f4305b1ca993",
        "5ed97924b742907a71f347511d93c07f424155870ee817a324229d4230742a0f",
    ),
    ("trace_unlimited", "be"): (
        "6e31b33ba4c2efa536a7077a5eab7f406388f38984a740256ffc6f5c0b716562",
        "cc6084ea8b0216ca3dca7bd8ac5c4bd46ea7310b7c98a1b6e1764dc4848247c1",
    ),
    ("trace_unlimited", "eb"): (
        "711dd06abb9f6b91533a635b8b8082a1424d9ab3639b85a1f17a68b0d43e57db",
        "cc6084ea8b0216ca3dca7bd8ac5c4bd46ea7310b7c98a1b6e1764dc4848247c1",
    ),
    ("trace_unlimited", "ew"): (
        "eb31c66e19266d7d6be8a149e40fa0d7a44776e2b8f2190f1ab63f28750d1911",
        "cc6084ea8b0216ca3dca7bd8ac5c4bd46ea7310b7c98a1b6e1764dc4848247c1",
    ),
    ("trace_unlimited", "bb"): (
        "2b9d2329cf9c9a008d56cf598ae4eff7db7362179affe3a05cd420935bc0b8dc",
        "c1a47bd345d5d15045b7be6004f6acacd27a6a6775b36c184f9649885aa3b43b",
    ),
    ("trace_capped_skip", "sc"): (
        "7ec4870d0a76427193df2f48dfa7aa5420a9999df879410bbf53edf7ceb27ab6",
        "16920b65742db8ace810179cd3489f361f7fc1a19e948b5bea5a5a759988dbdf",
    ),
    ("trace_capped_skip", "sc+"): (
        "3ddf9d1038014859ac4e229effd68a42c43a00dc86994791c7530a52e3de63f9",
        "a74d731407d47e1e7543239f6805fbb8d382c26a2b1bc2db5b7414a9bc5e2c1d",
    ),
    ("trace_capped_skip", "be"): (
        "a0c3c2286988b3f2a9ab7a4785af6596034f7f0026f59c5423bfd377d6f48c4c",
        "5d2222375ca3f2db47c00e46ed9b97f21b82fccc916e0d1ca7b298348f7adf1d",
    ),
    ("trace_capped_skip", "eb"): (
        "0de1918f00ad19b1761ea48155a1e87eba0e37d6bbde09a3821bdde29e46b3a5",
        "c4a48ecb81bff9850ef3e48ce782d0f3775a4af2463e998dacc84a311214e56c",
    ),
    ("trace_capped_skip", "ew"): (
        "3b0de01da96b725c071426dcce0f49268dac96ca4afc325fb8c3fd29728e8628",
        "0acd307b4f340bc9df90e7119259241eead979d8ccc18f5849a0c6f5e84c95bb",
    ),
    ("trace_capped_skip", "bb"): (
        "4e2dee37358d60d5c17827345f856b78dc39acdba7f410aa82553edfa8da256a",
        "f919d273e56e333b505d2d1bf4f0ccf55b6563ea78eda0ce2889fcc6386871b1",
    ),
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(tmp_path, regime: str, strategy: str) -> tuple[str, str]:
    args, playback = REGIMES[regime]
    trace = tmp_path / "trace.txt"
    trace.write_text("".join(f"{(7 * i) % 4}\n" for i in range(900)))
    config = tmp_path / "sim.cfg"
    config.write_text(f"playback_model = {playback}\n")
    out, ledger = tmp_path / "out.csv", tmp_path / "ledger.csv"
    argv = ["run", "--strategy", strategy, "--config", str(config),
            "--video-length", "60", "--duration", "900", "--warmup", "120",
            "--seed", "7", "--out", str(out), "--ledger-out", str(ledger)]
    argv += [a.format(trace=trace) for a in args]
    assert cli.main(argv) == 0
    return _sha(out), _sha(ledger)


@pytest.mark.parametrize("regime,strategy", sorted(GOLDEN))
def test_golden_digests(tmp_path, regime, strategy):
    assert _digests(tmp_path, regime, strategy) == GOLDEN[regime, strategy]
