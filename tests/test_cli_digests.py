"""Byte identity of the CLI on every bundled config.

Each case pins the exit code and the sha256 of standard output of one
command line: `language`, `matrix` (ell 1-3), `freqs`, `entropy`, `check` and
the three `sample` modes at a fixed seed, all in TSV, and in JSON where the
output holds no full-precision float (`language`, `matrix`, `check`), plus
larger TSV tables (`matrix --ell 5`, `freqs --ell 6`, `entropy --max-n 6`).  A
case that exits non-zero also pins its standard error, a guard or validation
message with no path or usage line in it.  Running this file as a script
prints the table for the code on the import path:

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import hashlib
import io
import os
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from unittest import mock

import pytest

from stochsub.cli import run

CONFIG_DIR = resources.files("stochsub") / "configs"

CONFIGS = ("deterministic_fibonacci", "dyck", "fibonacci", "non_expanding",
           "period_doubling", "zeta")
LETTER = {"dyck": "("}  # the letter `sample` iterates; "a" elsewhere
WORD = {"dyck": "()", "non_expanding": "b"}  # the word it counts; "ab" elsewhere

# (config, command line, STOCHSUB_GUARD_LIMIT) of the guard errors
GUARD_CASES = [
    ("fibonacci", "language --ell 6", "10"),
    ("zeta", "freqs --ell 6", "10"),
    ("period_doubling", "sample --letter a --n 8", "100"),
    ("dyck", "matrix --ell 2", "100"),
    ("dyck", "check", "10"),
    ("fibonacci", "check", "15"),
]


def cases():
    """(case id, config, argv after the subcommand's --config, guard limit)."""
    for name in CONFIGS:
        letter, word = LETTER.get(name, "a"), WORD.get(name, "ab")
        lines = ["language --ell 4", "language --ell 4 --format json"]
        for ell in (1, 2, 3):
            lines += [f"matrix --ell {ell}", f"matrix --ell {ell} --format json"]
        lines += ["freqs --ell 1", "freqs --ell 4", "entropy --max-n 4",
                  "check", "check --format json"]
        lines += ["matrix --ell 5", "freqs --ell 6", "entropy --max-n 6"]
        start = ["--letter", letter, "--seed", "7"]  # after the mode: ids stay apart
        argvs = [line.split() for line in lines] + [
            ["sample", "--n", "5", *start],
            ["sample", "--word", word, "--trials", "20", "--n", "4", *start],
            ["sample", "--tail-K", "1.5", "--trials", "20", "--n", "4", *start],
        ]
        for argv in argvs:
            yield f"{name}: {' '.join(argv)}", name, argv, None
    for name, line, limit in GUARD_CASES:
        yield f"{name}: {line} @ {limit}", name, line.split(), limit


def outcome(name, argv, limit):
    """(exit code, sha256 of stdout), and stderr where the code is not 0."""
    config = str(CONFIG_DIR / f"{name}.json")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop("STOCHSUB_GUARD_LIMIT", None)
        if limit is not None:
            os.environ["STOCHSUB_GUARD_LIMIT"] = limit
        code = run([argv[0], "--config", config, *argv[1:]])
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return (code, digest) if code == 0 else (code, digest, err.getvalue())


EXPECTED = {
    'deterministic_fibonacci: language --ell 4': (0, 'c9ae5182771d9edcb59a65482d5d5a84694fd9b529d30a9f290f1648a21811f0'),
    'deterministic_fibonacci: language --ell 4 --format json': (0, '77009238a11f14a3c4c5986a911f94e7f5ce837c4e1df5d8d118233dad32d0e6'),
    'deterministic_fibonacci: matrix --ell 1': (0, 'bfc25ca96a10d6c54286d7e87ff3b2762a94a82c2c7ad46e47e984a4f2404d2e'),
    'deterministic_fibonacci: matrix --ell 1 --format json': (0, '4ffe5c37f5047ef18a6046c150c13400815012224ee6b6963d9b7825f6360186'),
    'deterministic_fibonacci: matrix --ell 2': (0, '23d6cab934e97ae18f9b3a0121b0db9a57213c842b32032a6f4379f9eef7ae70'),
    'deterministic_fibonacci: matrix --ell 2 --format json': (0, 'f3a2891478b770e77aaf252dfbf3a47ff8fb3f17380aa8b0d9c94d132123b50b'),
    'deterministic_fibonacci: matrix --ell 3': (0, '890e7ca582087ca20ed7001737cb8865eb05bdb0fc6a54e18c222a0d8f224d12'),
    'deterministic_fibonacci: matrix --ell 3 --format json': (0, '79c89f90694b10cb8be4e9caec268cf8c3b000504992da044f7de2bbf7841270'),
    'deterministic_fibonacci: freqs --ell 1': (0, '10a4dfe2b988483154c4d14adecbae8327fbf4a4696ac38f18b2dbc9d1c34675'),
    'deterministic_fibonacci: freqs --ell 4': (0, '346b658c219aeb5bd1e682b5eddad73fbcc791ce8c966b4669b40eac44847ead'),
    'deterministic_fibonacci: entropy --max-n 4': (0, 'cfff8343fa0bd02e941493fb565669b46511cc283eb7d08549af94e7c2494706'),
    'deterministic_fibonacci: check': (0, '192ed5bbab15ec770d2c57dfffff5010472b30e6003600b91669453ae7707c80'),
    'deterministic_fibonacci: check --format json': (0, 'acc41896afa8a8e44902c079b654ad335c057244825ecc57db2607177779e430'),
    'deterministic_fibonacci: matrix --ell 5': (0, 'c6d678d1a113f53649292c1de673bce2f58c213673c607c0eccbb85d65be70f6'),
    'deterministic_fibonacci: freqs --ell 6': (0, '918cd179ee1145afe3d8c7d44106c2b999c0690076786d431d784abbed74ad58'),
    'deterministic_fibonacci: entropy --max-n 6': (0, 'ab32efae781ea5b9151df3fdbe95f53ec834cc1d1970db74b6630e44b6681be3'),
    'deterministic_fibonacci: sample --n 5 --letter a --seed 7': (0, 'b659dcb89197047ae0e741aadd2dd72497e9deb93492e7567f3b400e7bf7752b'),
    'deterministic_fibonacci: sample --word ab --trials 20 --n 4 --letter a --seed 7': (0, '67c52b6b417acd9bad14ea65d728887bb72fa6a704f7e487f88f04b4e0dc68c9'),
    'deterministic_fibonacci: sample --tail-K 1.5 --trials 20 --n 4 --letter a --seed 7': (0, 'e58cee37946e10d5aad8eaf6d5f7397d292f583f9c0a6246229d07891ed6fad0'),
    'dyck: language --ell 4': (0, 'a8dc1ad916e5508972cce3aea7d416e29eafc9786a78cd6ecca8e9f6afed39f6'),
    'dyck: language --ell 4 --format json': (0, '3774e7daaf0d5ebbf7ff40ddcaef0180dfe951dc6c9c19db0b3c673e1929b24e'),
    'dyck: matrix --ell 1': (0, '24026ea4c1de0068f5da0cea6a72b4c47b63852512037986c5498723ee0a1b88'),
    'dyck: matrix --ell 1 --format json': (0, '0ccc7dc77c03d584ec96912f160438314141ce9f610a6d33ede266f6b507d020'),
    'dyck: matrix --ell 2': (0, 'ff262f68aa0950e44e653ddff6b02cbdcc739d7e9b2b820bdfd86d2291f3b1e5'),
    'dyck: matrix --ell 2 --format json': (0, 'c07407532a5d2e2c1da2ff6dfcf196b808066145da6459ea3110589202b99fa8'),
    'dyck: matrix --ell 3': (0, '01c458f78b6dec0b7e5e39ade5ba9173c38e551676ab7f936ab7fca24d42a857'),
    'dyck: matrix --ell 3 --format json': (0, '0e8b83d0f846370a85988d663818db42c76b59a25f2f801a0438b9c5e252b46f'),
    'dyck: freqs --ell 1': (0, '97f14964ee9621d5d86cd457a5b41c7798bd63f8de0b8ed34f69fac982f005e9'),
    'dyck: freqs --ell 4': (0, '171638991013b0398a7be18f964e2fee35f1b064f1047d6d482c63c7add003ae'),
    'dyck: entropy --max-n 4': (0, 'f5d123b896e676f78a3376aae3e870314d9c721f303c027f78b36d1c276b22bd'),
    'dyck: check': (0, 'c36a28cb9ab3e4415acf818a384e98524495b1a6ba20803370c0e18e54f8d6a0'),
    'dyck: check --format json': (0, 'f98401905249193c57ea7471b447926220a21e60c92dea6eaa6dd4dac0d6516d'),
    'dyck: matrix --ell 5': (0, '3053521a80200913e7c5a493fc35d4506c758f80b543d7cd5a5ae7275893b96a'),
    'dyck: freqs --ell 6': (0, '5f3bb0dbf6311aa43558a4d6c66f1dd0836d85dd78298c06be9bdf144aaa3397'),
    'dyck: entropy --max-n 6': (0, 'bcfa7708c3d09244109f47293a59a37370c23edafd80cba14bbae4597fc119b4'),
    'dyck: sample --n 5 --letter ( --seed 7': (0, '21f7980bf427e6b4e94dcb5a8ba8f7df24eeeedd94542b4be1ae7d2187395b10'),
    'dyck: sample --word () --trials 20 --n 4 --letter ( --seed 7': (0, 'ced6da7143855ce3c36e5241743f51529d61d7c9a664f45b2d048bc6ab3b391b'),
    'dyck: sample --tail-K 1.5 --trials 20 --n 4 --letter ( --seed 7': (0, '1b5328e5375e0e6c7a57e3c581001ade85beb92f8c5d25d8e4ceb46bfb0161df'),
    'fibonacci: language --ell 4': (0, '5d7d024e0559f9421544c9fb6d2d20de45246fe87f53d44596a6fe42429b3478'),
    'fibonacci: language --ell 4 --format json': (0, '0509c73cb120e241ae1d3aa6aef1535ae349e80eca4bd6a39f1f98f62243f07b'),
    'fibonacci: matrix --ell 1': (0, 'bfc25ca96a10d6c54286d7e87ff3b2762a94a82c2c7ad46e47e984a4f2404d2e'),
    'fibonacci: matrix --ell 1 --format json': (0, '4ffe5c37f5047ef18a6046c150c13400815012224ee6b6963d9b7825f6360186'),
    'fibonacci: matrix --ell 2': (0, 'e48d5ff72748f33758b868b694b83d57408f7578cc99ceb91cfacf60e36ebc4d'),
    'fibonacci: matrix --ell 2 --format json': (0, 'eaacc1ee9dc869dfa33384783520ad08a6367d1635e5a4a3517bee0dff122a5e'),
    'fibonacci: matrix --ell 3': (0, 'd2f9f4ac86ab66085c3db9349b7f8fb9715e9e2b2beb843c1da6f936b5ea390f'),
    'fibonacci: matrix --ell 3 --format json': (0, '053adc13128c27c5949665843c0b24240833950cfb896b918ffa7d2f4862e009'),
    'fibonacci: freqs --ell 1': (0, '10a4dfe2b988483154c4d14adecbae8327fbf4a4696ac38f18b2dbc9d1c34675'),
    'fibonacci: freqs --ell 4': (0, '0869bcc3e736da225bac4a961dceaf289f0068c81579b8d18d7a0d3aeb05a106'),
    'fibonacci: entropy --max-n 4': (0, '47063180fe90814bfdc50573932e2c94c131718133637f92961a1813ca52f304'),
    'fibonacci: check': (0, 'dfc841d7cead6113c12cbc3adc42a5b9fa41702e09a0041168b56cae13f16a5d'),
    'fibonacci: check --format json': (0, '58cdad5331e9c5fc2266552375b54c28f83b4e506f81486b91b2f6fb21ed75ab'),
    'fibonacci: matrix --ell 5': (0, '98173c9d70ad33f3fad4006cca2ecaaaab9d80dc4f27d42f7d21ba601c760397'),
    'fibonacci: freqs --ell 6': (0, '95eba943265413ed2446995fd63e6d33ec0dfbbb233dd01c6118e680465728c5'),
    'fibonacci: entropy --max-n 6': (0, 'd7ab0d07f316dffe013aacb684f82d429c82967364daa0d71ab4972f5f2db2d9'),
    'fibonacci: sample --n 5 --letter a --seed 7': (0, 'eae1efb8e57f65ca8e3300384733578ba7e1e49b2d9fe9be1604da352eebf842'),
    'fibonacci: sample --word ab --trials 20 --n 4 --letter a --seed 7': (0, '8b51e8c85aedbbab42281b4ad9d5613858f35988bf5628ebe66e96685f21740c'),
    'fibonacci: sample --tail-K 1.5 --trials 20 --n 4 --letter a --seed 7': (0, 'e58cee37946e10d5aad8eaf6d5f7397d292f583f9c0a6246229d07891ed6fad0'),
    'non_expanding: language --ell 4': (0, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'non_expanding: language --ell 4 --format json': (0, '4ac4ce5bf0c9798f8e5e6cee28f0c654043d2b35389ee8e1f6053b62a0777adb'),
    'non_expanding: matrix --ell 1': (0, 'dac7314c3776655b45a089c2ca4f78bb665db351f78dd3aa2d44d86f255c27f0'),
    'non_expanding: matrix --ell 1 --format json': (0, '49b1e77ab108a9a31bb082592b7621e47a9d612865a83aabe24c232205e4e442'),
    'non_expanding: matrix --ell 2': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: induced matrices with ell > 1 require an expanding rule\n'),
    'non_expanding: matrix --ell 2 --format json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: induced matrices with ell > 1 require an expanding rule\n'),
    'non_expanding: matrix --ell 3': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: induced matrices with ell > 1 require an expanding rule\n'),
    'non_expanding: matrix --ell 3 --format json': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: induced matrices with ell > 1 require an expanding rule\n'),
    'non_expanding: freqs --ell 1': (0, 'ae7be494860246f07121bf1fd30d6fd1368115383320106779d7cdce4c01729f'),
    'non_expanding: freqs --ell 4': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: frequency vectors with ell > 1 require an expanding rule\n'),
    'non_expanding: entropy --max-n 4': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: frequency vectors with ell > 1 require an expanding rule\n'),
    'non_expanding: check': (0, 'c6a56df66512a7d9c12d58e72ffdf47d3f9bdfeac57d26ed1c00218101ffb13d'),
    'non_expanding: check --format json': (0, '6b30a353cd1ce39fc8de6744180639e2df370477fd744595c2a0710f47709352'),
    'non_expanding: matrix --ell 5': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: induced matrices with ell > 1 require an expanding rule\n'),
    'non_expanding: freqs --ell 6': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: frequency vectors with ell > 1 require an expanding rule\n'),
    'non_expanding: entropy --max-n 6': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: frequency vectors with ell > 1 require an expanding rule\n'),
    'non_expanding: sample --n 5 --letter a --seed 7': (0, '12225ce45753cf1a563acc5e2e4efbbcd73c85f8200af4915e1723ea92d83760'),
    'non_expanding: sample --word b --trials 20 --n 4 --letter a --seed 7': (0, '33b5fe7ed1376ba84a3d8ee514b63be1e79655a764eb5fe60b1120545048f538'),
    'non_expanding: sample --tail-K 1.5 --trials 20 --n 4 --letter a --seed 7': (0, 'be237c11673669c0a727d1982d46d8cb0c479baa8bc982f49d6afcc79190e629'),
    'period_doubling: language --ell 4': (0, '5d7d024e0559f9421544c9fb6d2d20de45246fe87f53d44596a6fe42429b3478'),
    'period_doubling: language --ell 4 --format json': (0, '0509c73cb120e241ae1d3aa6aef1535ae349e80eca4bd6a39f1f98f62243f07b'),
    'period_doubling: matrix --ell 1': (0, '88a046855bed76b33d3c0c403c84edbd04775ce4c8da10daa0f3d48eee59b489'),
    'period_doubling: matrix --ell 1 --format json': (0, '3ea803377d6f9bce186bc9275106576bddc2fdae7cc21dca279ca99396cd44c4'),
    'period_doubling: matrix --ell 2': (0, 'bcffeb344c2341ea7a8e5df32a8a5f0670bc006c0db2811b72d132c6adc3129e'),
    'period_doubling: matrix --ell 2 --format json': (0, 'c9ea5bced35bce8c8ee0cff5e02ea4bc8e16b2299cc8484eee0d3d96e88b3b42'),
    'period_doubling: matrix --ell 3': (0, 'af60fa9a7638ec54fe976a51ff048630bae3a3f77cc8fdc27fd42700fff9cf5c'),
    'period_doubling: matrix --ell 3 --format json': (0, 'd0bf026dbeee7f6b1af13261c1e2184677ded6a3f26c6115466fd2d11fad753e'),
    'period_doubling: freqs --ell 1': (0, '9ab55480a69ab993b6ff58e3457021f451e12c273d5f2c89e0abfcbc91603dac'),
    'period_doubling: freqs --ell 4': (0, 'd8f8da77c7e0189f28d87787cb17b305bb110a5acf22c15ab922477b76cd50ac'),
    'period_doubling: entropy --max-n 4': (0, '8744e478e15389bd11cf3f0bf637ebcee830b8d59af504b4ea6925ab8edbee41'),
    'period_doubling: check': (0, '3b159d92ec63ca26ae6ed468a8b48a108a9aa4d0891caa9fa2d9ece52e94a0c5'),
    'period_doubling: check --format json': (0, 'efde483cc69e2577911ae3bedc0fd3898410c0b15d560e6097b13ba8096a89f9'),
    'period_doubling: matrix --ell 5': (0, '1882a61963232100c8b5581877a47c13a7c1fa522d87723d9ccffd72979bb1c7'),
    'period_doubling: freqs --ell 6': (0, '53b57b5b4957d0263fbb23f86684c63da54d61c2b15c62793697d66e2c99f266'),
    'period_doubling: entropy --max-n 6': (0, '3ae5567002d4429118e83c0086bea19a42ec646c60fd12cf57321a81ed320e3a'),
    'period_doubling: sample --n 5 --letter a --seed 7': (0, '9934d8fdd4646e3217c2c347cf4e2983bec316a8370ccb9ec12ba3c24ef422a3'),
    'period_doubling: sample --word ab --trials 20 --n 4 --letter a --seed 7': (0, 'd3e69087523602f5f364a6d281515234255dd761611c57762f5a91b1928bb163'),
    'period_doubling: sample --tail-K 1.5 --trials 20 --n 4 --letter a --seed 7': (0, 'e58cee37946e10d5aad8eaf6d5f7397d292f583f9c0a6246229d07891ed6fad0'),
    'zeta: language --ell 4': (0, '3356d33faeb6a17f8e78afa5ba2b6c53a93e3c47ebc7f9798f2141a8d09d9eca'),
    'zeta: language --ell 4 --format json': (0, '94728fc4ba9d0f13677e60c8f08dd3d8a0b3795c01d31399554536b04f21bfdc'),
    'zeta: matrix --ell 1': (0, '12a1d7317acd67eadcffbd91f4372df2be53cca37994ce2808922143e0330f2a'),
    'zeta: matrix --ell 1 --format json': (0, 'bb3851a8ec20c14954eb95a7576c625f26764bb617d2aa240063322a88f7cd7c'),
    'zeta: matrix --ell 2': (0, 'b42bfb328c8e9b49695c70d41f4d82b4d0644e83f1a897ddf70b39ac44e8022a'),
    'zeta: matrix --ell 2 --format json': (0, '191abbe6e96154fcbb16931e000bb698aabef2a9bdb6c30c1ea671a76499b2e1'),
    'zeta: matrix --ell 3': (0, '0556065f7fe957b9c0156d645bf12748600219e7829995ff9b637940e627c5d4'),
    'zeta: matrix --ell 3 --format json': (0, 'ca1e8647a436f39f12cb0ae50e43b26a607e5f80c0ec5f58743a8efea353be1a'),
    'zeta: freqs --ell 1': (0, 'ae7be494860246f07121bf1fd30d6fd1368115383320106779d7cdce4c01729f'),
    'zeta: freqs --ell 4': (0, '09a9d798d111057c263cd5a823a7c96180d7fc00a2e7181a95bfb7e3fc497294'),
    'zeta: entropy --max-n 4': (0, 'ef9434424069238ce3c04c1da35a4c56427f50fbd2e600769f6ac562e9182fa7'),
    'zeta: check': (0, '77d5b5bede92e100ffbbb3347c05ccdaeeb7e3517bef64fc5d0e17e597fa783e'),
    'zeta: check --format json': (0, '3dcb30b6f77be4dd2c8bad12f9cc665800a1af85337088ed35d7b87f99d54385'),
    'zeta: matrix --ell 5': (0, 'c448afa6a9a345c92a2e9b41001768d7b9b751de407ff75ff0259f1aeb12e10b'),
    'zeta: freqs --ell 6': (0, '37525f7574426dd383380f7a23f82a22107a34162c37dd432122476c43d1349a'),
    'zeta: entropy --max-n 6': (0, '795c8e81f06696d3caebba739e17ba4fd4b731842fd94c76e48cd7afe5cac92e'),
    'zeta: sample --n 5 --letter a --seed 7': (0, 'bb73513150cd799e26fe186caedcdd247969b2cef669e45183643680787ed028'),
    'zeta: sample --word ab --trials 20 --n 4 --letter a --seed 7': (0, '791d773c964bc6c5627893e56e73c069707446b9afa100509167b1c483d91ea5'),
    'zeta: sample --tail-K 1.5 --trials 20 --n 4 --letter a --seed 7': (0, 'e58cee37946e10d5aad8eaf6d5f7397d292f583f9c0a6246229d07891ed6fad0'),
    'fibonacci: language --ell 6 @ 10': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: language enumeration exceeds guard 10 kernel states\n'),
    'zeta: freqs --ell 6 @ 10': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: language enumeration exceeds guard 10 kernel states\n'),
    'period_doubling: sample --letter a --n 8 @ 100': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: sampled word exceeds letter budget 100\n'),
    'dyck: matrix --ell 2 @ 100': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: induced matrix of 14 words exceeds guard 100 cells\n'),
    'dyck: check @ 10': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: language enumeration exceeds guard 10 kernel states\n'),
    'fibonacci: check @ 15': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: induced matrix of 4 words exceeds guard 15 cells\n'),
}


@pytest.mark.parametrize("case,name,argv,limit",
                         [pytest.param(*c, id=c[0]) for c in cases()])
def test_pinned(case, name, argv, limit):
    assert outcome(name, argv, limit) == EXPECTED[case]


if __name__ == "__main__":
    print("EXPECTED = {")
    for case, name, argv, limit in cases():
        print(f"    {case!r}: {outcome(name, argv, limit)!r},")
    print("}")
