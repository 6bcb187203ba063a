"""Byte pins of the command line: one fixed in-process chain over every
subcommand at d ≤ 7, with the SHA-256 of each call's stdout and of the file
it writes.

A change that alters output bytes on purpose updates the pins (print the
current ones with ``PYTHONPATH=src python3 tests/test_cli_bytes.py``) and
says so.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

from mubsic.cli import run

# A fixed d = 3 density matrix (Hermitian to the last bit, unit trace).
RHO3 = {
    "dim": 3,
    "entries": [
        [0.5, 0.0], [0.125, 0.0625], [0.0, 0.0],
        [0.125, -0.0625], [0.3, 0.0], [0.0, 0.03125],
        [0.0, 0.0], [0.0, -0.03125], [0.2, 0.0],
    ],
}

# argv (run in a scratch directory) -> (exit code, stdout SHA-256, SHA-256 of
# the --out file or None).  Steps run in this order; later steps read the
# files of earlier ones.
PINS = {
    "mub build --d 5 --out bases.json": (
        0,
        "10e1183fbaca2cf0db1839eaf8d4aee8b034049fa76dbe34114e39f13e0ac145",
        "05a818ed72e42890b44ce2584b9323c35d3ced2c5ff2752c9aa162d540444c16",
    ),
    "mub verify --d 5": (
        0,
        "659a5846379fb2bcab59ec2bf41cf4a6cc766f41ebea5ae2ab44ca23014463bd",
        None,
    ),
    "mub verify --d 7 --tol 1e-20": (
        1,
        "2b86324f9f33654a6005725793b642e117e03884ab41ef11a88d9b7c6879f752",
        None,
    ),
    "plane build --d 3 --kind dapg --export json --out dapg3.json": (
        0,
        "dd7c996d5a1c36d16a5418e074219d92562830ab660bc70497c2ad680f072df7",
        "53c82438cb0d4959e29a5a4e3f4b20abab4ecf88de184a8656d57cf684abace9",
    ),
    "plane build --d 3 --kind dapg --export dot --out dapg3.dot": (
        0,
        "dd7c996d5a1c36d16a5418e074219d92562830ab660bc70497c2ad680f072df7",
        "bf72b8058198bdbb1f325e177cc4b274967ad1bf9e9828e36e74515bbde6ee01",
    ),
    "plane build --d 3 --kind apg --export json --out apg3.json": (
        0,
        "2702f7e5bd6e0ec6e3dbfbc040f0c727a8e7295ffe00fa4c831eab97ca9bcba9",
        "9f81ee0f806f0ee424cfecee6068436e3e1397f1b6e1c762ef28a102e77ecc19",
    ),
    "plane build --d 3 --kind apg --export dot --out apg3.dot": (
        0,
        "2702f7e5bd6e0ec6e3dbfbc040f0c727a8e7295ffe00fa4c831eab97ca9bcba9",
        "2f4dfaa672f5231d71e8f9474be5f2f0bd5d0bff9624a9ecf5a894f5b2ef2068",
    ),
    "plane verify --d 5": (
        0,
        "a78477157f44679c58ed9ab4d201cf0c1316328102fcbb7ff887b35ff7dccfd0",
        None,
    ),
    "plane verify --d 5 --kind apg": (
        0,
        "28a1edd487b238758b8fcfebb377e48864491654cbb058868e293518b349f662",
        None,
    ),
    "frame from-mub --d 3 --out points3.json": (
        0,
        "a184868087a4831b0b88e015b37813bc052eefd23aebb00a1ae0cf216c97ba3f",
        "3edb5c6e35fff3dbf4d338f9867e1ab45437189031986e7f853da56ceaa1dd7b",
    ),
    "frame bridge --points points3.json --out lines3.json": (
        0,
        "eccf200d979c8f9743460514b8cf29e03f7423fe23c3f366325b09229eac4a4f",
        "3ba8b080e4ad3f80a762b90478a897252b95e7ec847f8cd1cf5dd6d49bf537db",
    ),
    "frame verify --points points3.json --lines lines3.json": (
        0,
        "c67b0cfe6e4547f22791b17800fbee29a11a84589d4bdb1595a870e4a41c7954",
        None,
    ),
    "frame from-mub --d 7 --out points7.json": (
        0,
        "dfcda5d923872a0bb390db10e6485cc15cccd88884634a08bfa893a21b51bc91",
        "873eea3165396dfd4892ee0fb864b9b7bdf562d86e51a460a96fe41e87260e31",
    ),
    "frame bridge --points points7.json --out lines7.json": (
        0,
        "894619bed471cf11fee3d8f6195f5e85837c8bbc4ea939e798c04600b7430654",
        "9197d4a9f8d689d007c77be83b794bf01be12cea6442c886b39c86ad15e8fcc3",
    ),
    "frame verify --points points7.json --lines lines7.json": (
        0,
        "cfea540a7b283929a483be8a39887b5a846f5698bf2bffc7a4db2984a4ee7bc5",
        None,
    ),
    "frame from-hg --d 5 --out hg5.json": (
        0,
        "ba8a44021b295589d4ffbfac092fc7006c54042f2591a7ca363c1387dbcb6358",
        "a9c5ea735696ed5fe7825c919ed18b58a9a3dddc0ee62912291c42382093240a",
    ),
    "frame verify --points hg5.json": (
        0,
        "4118fc7f18c35b8a734a5183b1e01466f95b0d8f3c7e948b5ea4aa0e8ad8a169",
        None,
    ),
    "quasiprob --rho rho3.json --points points3.json --out quasi3.json": (
        0,
        "793235835949c09fb995e9e5af75b4b7eba31c5923b5dc1feabc0ec2b9cb2ea9",
        "5eb9d75695174c6adb9916fdd4fe0b678561d763238caf2952a1be25ac88120e",
    ),
    "sic generate --builtin qubit --out family2.json": (
        0,
        "591aedbbfcf79a647d5a7f252f5182ca38e454eab6d429433d4487c3bde0ea45",
        "a7b7d4c4892cf954eba7a68c6b5e8714cdf91aab253d2db1abcd3cac2460525e",
    ),
    "sic generate --builtin qutrit --out family3.json": (
        0,
        "e9e1492252904fd575a93f341d045a85df3899406b08dbaba3ee6fdc4750f8f8",
        "8111e7599622cb5a224ef15ef74c5436c809f918dab5882e040e6eeddd078f18",
    ),
    "sic search --d 5 --seed 7 --restarts 200 --out fiducial5.json": (
        0,
        "ea3d68b7c47d1cd1dfdf67793b2851822766a69babc31edd5d5d3847386e1a71",
        "b741f1e432ab0faa1089de21bb3a51bd8072ea0a7869c3911113cc0c739acfdb",
    ),
    "sic generate --fiducial fiducial5.json --out family5.json": (
        0,
        "a0bb090fc01903765b5982f0d683195b35120157da253f95096153a54bff63de",
        "43ac1583fdaa0241c736d8d86aad62aa788a71d45ebc4a5305100ad51019e54e",
    ),
    "sic verify --in family5.json": (
        0,
        "659a5846379fb2bcab59ec2bf41cf4a6cc766f41ebea5ae2ab44ca23014463bd",
        None,
    ),
    "sic spectra --in family5.json --out spectra5.csv": (
        0,
        "5058cc42879f6d7eb275ed1db3f16ffc1319af9a6c6e0b0e389d32f930bc08ce",
        "9d49193d6de7b6c9683e273774a53bbbec0a3245281e0d8707947241c66fb589",
    ),
    "sic group --in spectra5.csv --tol 1e-4 --out groups5.json": (
        0,
        "462f271af61128e4d74ec1acb735b7634a5c5cbd14d8e3d56d68358834da0ed8",
        "233833066a1e3994e27743163502e324d82c3ca2d56f3467315796208ea4b68a",
    ),
    "sic search --d 7 --seed 3 --restarts 200 --out fiducial7.json": (
        0,
        "a5a164f581a10c49d8479bcd4980482e6c70080a75b0662a58566c76cdaf38d7",
        "0fa723678e3257ca69577252d05e24ed5e61b3f026a629107fba592a661e2919",
    ),
    "sic generate --fiducial fiducial7.json --out family7.json": (
        0,
        "53bbed301ab69d9e418d0ee3bf3146593486bcda181645b50e927ceead2b98db",
        "825da8c89c57df4c5db57c6f0546308b5c48ce5314b0e65bb5a69dcd1561da98",
    ),
    "sic verify --in family7.json": (
        0,
        "7027dd27a6b2de34b86bfc86fbccbd72b797979aeb87ad3334a0d8c4bc6b80da",
        None,
    ),
    "sic spectra --in family7.json --out spectra7.csv": (
        0,
        "7b14460f4318500460c671c6e0c99b1bb2bdcf0a390fa2faa991f1f40723b6c4",
        "8fa993e1cbe283a9699fdf3e4a1aeb26e48b29d6a3c3ee2064d1361945095285",
    ),
    "sic group --in spectra7.csv --out groups7.json": (
        0,
        "e6e209f573cb544b98cbdc2fd8c94d4cd7a74cc2fc30640566527952f6a4a755",
        "36d1c6fc8b5c286a71d4dd6077bb79d26435acc623497be3f5bdba8083801a44",
    ),
    "sic solve-prob --d 3": (
        0,
        "0074c1920efd716f05d5085b8514af61422bcd4e4c0e17cca3dace0cc479f42a",
        None,
    ),
    "sic solve-prob --d 5 --seed 11 --restarts 8": (
        0,
        "915b3307b6aa1e75c4567b26ea8b4d48eb6d7153b3bd6916d773dd7e83aaea0c",
        None,
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_chain(workdir: str) -> dict:
    """Run every pinned argv in ``workdir``; the same table shape as PINS."""
    with open(os.path.join(workdir, "rho3.json"), "w") as fh:
        json.dump(RHO3, fh)
    got = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for line in PINS:
            argv = line.split()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = run(argv)
            assert err.getvalue() == "", (line, err.getvalue())
            artifact = None
            if "--out" in argv:
                with open(argv[argv.index("--out") + 1], "rb") as fh:
                    artifact = _sha(fh.read())
            got[line] = (rc, _sha(out.getvalue().encode()), artifact)
    finally:
        os.chdir(cwd)
    return got


def test_cli_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("MUBSIC_TOL", raising=False)
    got = run_chain(str(tmp_path))
    for line, pin in PINS.items():
        assert got[line] == pin, line


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for line, pin in run_chain(tmp).items():
            print(f"    {json.dumps(line)}: (")
            for value in pin:
                print(f"        {json.dumps(value).replace('null', 'None')},")
            print("    ),")
