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
        "33220b389db73ddd2989867fac31256c3581ba87037e13cafb0c282b84c57aa7",
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
        "ff388bc150d497016a7b279bc21a6eb5014d6f2507b0ba819c982772cb3e116a",
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
        "647b741e978b0f71d2a95175b66dc219d6cd6ae9276d11061928eeeadc0473e7",
    ),
    "sic generate --builtin qubit --out family2.json": (
        0,
        "591aedbbfcf79a647d5a7f252f5182ca38e454eab6d429433d4487c3bde0ea45",
        "d3c035d1db50f4b4c1d8ba49e6d8ec8bf98cd77649cd7811319646e2a82fc890",
    ),
    "sic generate --builtin qutrit --out family3.json": (
        0,
        "bdd2e6f67e306fb3823bbecc0a9eeb133c22d1f732d5f3e15d49f6477634a7b9",
        "2a0e63bc34268e0f1c73defea43169bfc2ada7107769ee7d5ff33c168686151a",
    ),
    "sic search --d 5 --seed 7 --restarts 200 --out fiducial5.json": (
        0,
        "cd7e4d0d3d76d0b6433306525a8f3ddd17e96174387941e40a87a842170342b8",
        "65329d84ef8961e36d01e5caa79a2022e68a8edfd7ebeb457fd5493cea6833e7",
    ),
    "sic generate --fiducial fiducial5.json --out family5.json": (
        0,
        "a0bb090fc01903765b5982f0d683195b35120157da253f95096153a54bff63de",
        "d8ca430250f85687c344ab8716ddf56adeb51200e21db0af9f1fa39360235998",
    ),
    "sic verify --in family5.json": (
        0,
        "659a5846379fb2bcab59ec2bf41cf4a6cc766f41ebea5ae2ab44ca23014463bd",
        None,
    ),
    "sic spectra --in family5.json --out spectra5.csv": (
        0,
        "77a0af0a8b3ce9fb2803f08c6cb2b457409b9b2b62c8f2e5e445dbbf729a386f",
        "5f310dac85742adde656bff89fe99c9825fe235e3e4aca6bdb5a735e8b13057c",
    ),
    "sic group --in spectra5.csv --tol 1e-4 --out groups5.json": (
        0,
        "e119a90868bc0dab7716373e8357e09150aaf0f1b473e4609e17c3d830869fa2",
        "9c554735ef27a4d84bd6a0c9ca8f4549d778065d4f59799238087009229072cb",
    ),
    "sic search --d 7 --seed 3 --restarts 200 --out fiducial7.json": (
        0,
        "ca78bcba3a4ea36213f7fbfcb2cc6a0a82ed352a301a8337403014d1bac8e4fb",
        "693cc372b87dd842db201b831889a8942d847f4d332914e4a984678a83c3761a",
    ),
    "sic generate --fiducial fiducial7.json --out family7.json": (
        0,
        "082804acb427fcc3a1b3fe97e591beb3e118d90e0aa37564d39c61b378d450d3",
        "8fd1c82d2e3b3052f6fbce585a10dbf95b126d6a231e12a41f603fea085daaef",
    ),
    "sic verify --in family7.json": (
        0,
        "28eb8a53acc86f611e2357d542939b73c4e2ef1c101e625f2f9cd1d216ea1480",
        None,
    ),
    "sic spectra --in family7.json --out spectra7.csv": (
        0,
        "f062c255f938f3f7f570dd796faa3cca2982bdca99273b858662116fdf41c5e1",
        "48b31573db07dff379b9ce911090d4e4d0bd85e93a5dc6ece5b8fb2b9c45f26b",
    ),
    "sic group --in spectra7.csv --out groups7.json": (
        0,
        "369d8e69ae56b9edf99d036e336f82f5f38c17879a47def7fa3fb6e233ed9764",
        "d39c7bdf9c6a0dde97dcf2e1b327b68150e63e3052bece9be6286f6f94d032ee",
    ),
    "sic solve-prob --d 3": (
        0,
        "0074c1920efd716f05d5085b8514af61422bcd4e4c0e17cca3dace0cc479f42a",
        None,
    ),
    "sic solve-prob --d 5 --seed 11 --restarts 8": (
        0,
        "e873c4eda7e07346fbd7acae16fb49568e62c4ef83d44c1e4b365c821906c52f",
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
