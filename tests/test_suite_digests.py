"""Every suite's CSV, elapsed_ms removed, is pinned byte for byte (seed 1).

The digests were recorded from the suite implementations before they became
row generators; a change that alters any emitted byte other than the timing
column fails here.  The vc-plane digest at q = 5 was recorded from the
one-set-at-a-time VC search, before the bit-sliced trace kernel replaced it.
"""

import csv
import hashlib
import io

import pytest

from fqincidence.errors import EvenCharacteristic
from fqincidence.harness import ExperimentConfig, run_suite, split_prime_power

CSV_SHA256 = {
    ("calibration", 3): "c3e988beabb6aa58633560e03105d2c38f0bc6424570bd9e4eb78a3b5b2c088a",
    ("oracle-equivalence", 3): "3ab437eaa946b8377f04e29e087e906138e2721d928bce6de9ca31e5333e160e",
    ("preset-audit", 3): "fbc7ea4e83e3dbf52e0342d0a5e7317613fdb4806fb305dd6c733ea6750f0d74",
    ("q3mod4-geometry", 3): "e7df5d1de72b0fd5a731ac0c37f25a49f2636bbe53c2f18e970551f585558763",
    ("reduction-identity", 3): "c2a73cc300c0666c5d5a8239edc2896ac732c2adcf18612799a598132dffb2f6",
    ("regular-subset", 3): "0382837f08d99b915935eb40f491910dee80b1e461545b3f37bc6ff6f5731465",
    ("trace-pairs", 3): "7bddc0421115710c97aa23170c89ba6c1bb9bfcbbb7fc1a19b237450e95172b3",
    ("unconditional", 3): "72c9882dd5c3fa74b5ca35e3e8208574a2a2afa2e8b561ae9eaa6e6c9c81a399",
    ("vc-plane", 3): "25952f2e599b55c4e5a596da3e6c5962caf85fe25302d79f677d61dadb492e34",
    ("vinh-plane", 3): "12b3007b2fdb2f1146719adc335705ebdcfaba78099ca0571922a91db3749878",
    ("calibration", 4): "885580ca3972e77c461050963ec714189e5d48e9a10ba345c42d69ee61a1dbdc",
    ("oracle-equivalence", 4): "72939af77e21f7a4890195259eb778672990c642ad3c98841c2fdf836cd06ae7",
    ("preset-audit", 4): "c4b6a16631ec7b92bbcdf322a062910a3a348514a8376479c7dfef10d7390d9e",
    ("reduction-identity", 4): "e36b981c53d1e24b0faaa2347675152ecb6b1ea13f0705ef7c8bbee15e511c7c",
    ("regular-subset", 4): "9017a035eaf64ac6d1e24cd71ffe25552f13852f71c0d09d0571975ce71230cb",
    ("trace-pairs", 4): "2fc1380b6ae0d43a8053e7a8efeb86de0f231959177f7cc83cf276e785f87af7",
    ("vc-plane", 4): "55eddab7271e662eda6b253870b223f16b828711841489e5b728db99ef788a04",
    ("vinh-plane", 4): "994f14a065246b880a2f09543af4191a272a35f24f69a40997a505c40e18d7be",
    ("calibration", 5): "b41d0ed33cf3df7958a4765022570974dd7653aaec2ed27e88b32a8c3c07353b",
    ("oracle-equivalence", 5): "b7a80467da53bf2d1660e1bc329f8159ed99470750bb3c7d6a088fa86da9c90a",
    ("preset-audit", 5): "6bec72f8029f97ff263fcb3cf32f1f59d158152d22eededdc61aeb4a78cfdded",
    ("q3mod4-geometry", 5): "fa011d9a87fadb828537215efc782ef8cc9fce147685ee0f7c4c60d0ca926bc8",
    ("reduction-identity", 5): "aaef4c6bccc1f20a119d2ce614d6abfdef71f8447cb0803b3b8121d084863b2b",
    ("regular-subset", 5): "2de2b90c1e91e7c63861de635ac903b9c3fedc8a4683739264ffdff7e3548b4c",
    ("trace-pairs", 5): "d9372c7ad98babf875da94b68d639ecfcb77f744701521888b7fe468ba962a8b",
    ("unconditional", 5): "14c4bb28e0d1b7f300e1e0072827dfc98088bbda0a2a871a03210d10b5330af8",
    ("vinh-plane", 5): "d845e0f10a6144c69e34b9a0638fa81164a53ff9a2a0f5eb0c0bd962412fc143",
    ("vc-plane", 5): "e8cd11e1edfc090c5972c49be3b7ab92a6667ad2b9c4635762366a7c24a89dca",
}


def _csv_digest(path) -> str:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("elapsed_ms")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row[:drop] + row[drop + 1:])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _config(suite, q, out=None):
    p, n = split_prime_power(q)
    return ExperimentConfig(p=p, n=n, suite=suite, seed=1, out=out)


@pytest.mark.parametrize("suite,q", sorted(CSV_SHA256))
def test_suite_csv_bytes_pinned(tmp_path, suite, q):
    out = tmp_path / "suite.csv"
    run_suite(_config(suite, q, str(out)))
    assert _csv_digest(out) == CSV_SHA256[suite, q]


@pytest.mark.parametrize("suite", ["unconditional", "q3mod4-geometry"])
def test_odd_q_suites_reject_q4(tmp_path, suite):
    out = tmp_path / "suite.csv"
    with pytest.raises(EvenCharacteristic):
        run_suite(_config(suite, 4, str(out)))
    assert not out.exists()
