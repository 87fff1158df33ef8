"""Golden stdout digests: the determinism contract checked in tier-1.

Each command is a README sample or a variant of one (extension fields,
the torus, the union comparison); the sha256 of its stdout was recorded
before the pointwise loci were moved onto one streaming kernel (the two
fibered-route runs of samples/plane-curves.cc before the fibered route
shared one Smith elimination across heads), and must not change while the
printed results stay the same.  Paths are relative to the repository root,
which the test makes the working directory.
"""

import hashlib
import os

import pytest

from jumploci.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

GOLDEN = [
    ("jumploci --complex samples/augmentation.cc --i 1 --d 1 --q 5",
     0, "72ecda56feeec894776a0d94b04110c75502b98298936c151caf7871426fcdaa"),
    ("supports --complex samples/augmentation.cc --i 1 --d 1 --q 5 --compare-v",
     0, "3751870fa020e0437a538fe488aae25d377cdba1e4a5b315d30d08999076c1dc"),
    ("resonance --cga samples/zero-pairing.cga --i 1 --d 1 --q 3",
     0, "add5aea1846d400c114433279e9528de46b5c36c681f6f247c5451a45b95e12a"),
    ("e1 --cga samples/exterior.cga --nu samples/identity-z2.nu --q 5 --format structured",
     0, "8c9368a2d9594d2e9304b5bdc8346367468e4dedd8cdc9d444ee85ca6b747416"),
    ("verify-cvres --cga samples/exterior.cga --nu samples/identity-z2.nu --i 1 --d 1 --q 3",
     0, "7402a98d41c2fafd4eec6857a8167ae7033b25cd60556a566d4dc748bb43e90e"),
    ("finiteness --cga samples/exterior.cga --nu samples/identity-z2.nu --k 2 --q 5",
     0, "6c7b578c4753950e18d647fd0d2de263613ca87da488c531721e301e633b0118"),
    ("alexander --presentation samples/trefoil.pres --nu samples/onto-z.nu",
     0, "0618c2b320b367cc62981cdcce97fc8e7f74d8c86ded08a2ca94f4b57f4af50a"),
    ("charvar --presentation samples/trefoil.pres --nu samples/onto-z.nu --i 1 --d 1 --q 7",
     0, "637ff565961d1fb827d014fb9030fbd8dbc2ee55fac9010387fb724bd68a7ce8"),
    ("genres-experiment --shape 1,2,1 --i 1 --trials 200 --q 5 --seed 0",
     0, "dbbe1729d205f0080775fb6ab8a68fd01649343cd68a9830893efa6772656b40"),
    ("validate --cga samples/exterior.cga --complex samples/koszul2.cc",
     0, "f1c3f838529af257ba02428fcabdb1c2774c396ec84c69efa2b64801ef06e6fb"),
    ("supports --complex samples/koszul2.cc --i 1 --d 1 --q 3 --ext 2 --compare-v",
     0, "668eb1f69b4f135a227e277998f4e84316701f17d96b1841441605498d5fec1f"),
    ("supports --complex samples/augmentation.cc --i 1 --d 1 --q 5 --ext 2 --compare-v --format structured",
     0, "83e033f684cfefae53b47f5071cbb69debafff0666a179e7c2a2d46275bea3df"),
    ("jumploci --complex samples/koszul2.cc --i 1 --d 1 --q 3 --ext 2 --torus",
     0, "6e6a556dcc192b37ed897dfd9587af6d5a9c8979d510b9b5da90ffcf80d4f272"),
    ("jumploci --complex samples/augmentation.cc --i 0 --d 1 --q 5 --torus --format structured",
     0, "aa487d8d1c59efd681e6fda2c703ee56f0af77ff887778f3bcd1ee06b960ebdd"),
    ("charvar --presentation samples/trefoil.pres --nu samples/onto-z.nu --i 1 --d 1 --q 7 --ext 2",
     0, "fc9456c9b5ab0f57ab40cb4247e803b30f89c82fbf031486fcfc34a04cc08e6f"),
    ("resonance --cga samples/exterior.cga --i 1 --d 1 --q 3 --ext 2",
     0, "f23fab3d1ca017c3d6889b5aa1b824e606819ffc86c5e9cb3799551e08d2a98a"),
    ("finiteness --cga samples/exterior.cga --nu samples/identity-z2.nu --k 1 --q 5",
     0, "3cbba564136b84b9db146733d098681b4a21bf19699e64b8b63496979d42b5bf"),
    ("resonance --cga samples/f4-pairing.cga --i 1 --d 1 --ext 2",
     0, "63db19d96f2a69ca0893dcbd27ade0417868b14ff86e28b0992fd8db0dafb99d"),
    # a complex that is not a cone, over fields large enough for the
    # fibered route, on the plane and on the torus
    ("jumploci --complex samples/plane-curves.cc --i 1 --d 1 --q 17",
     0, "961c050083eb90e62359106c33687151bb947874e8cbf45189b30a23a5b6ca8f"),
    ("jumploci --complex samples/plane-curves.cc --i 1 --d 1 --q 16 --torus",
     0, "248eed4563a51343f0f3bf4b93ca89ecde40582fecd85ec0a0915d75307b1fbe"),
    # the structured writer, recorded before it took each locus straight
    # from its point set: over F_16 the printed strings sort otherwise than
    # the field's ints, and two-tori.cga has a 4-dimensional A^1
    ("jumploci --complex samples/plane-curves.cc --i 1 --d 1 --q 17 --format structured",
     0, "92b07fb29fb28322c614bbd0aebf176075b39e6c05a1ae6769b17b7a1e4ed964"),
    ("jumploci --complex samples/plane-curves.cc --i 1 --d 1 --q 16 --torus --format structured",
     0, "af13f65d24282fca4d28abcd4cc7d8396c4d72100d95316e114fee1cdff24556"),
    ("resonance --cga samples/two-tori.cga --i 1 --d 2 --q 7 --format structured",
     0, "77402d38c5fc349b5ee7a0191a517a5c2fc5844802ad9ab0ff55efd91a45acef"),
    ("verify-cvres --cga samples/zero-pairing.cga --nu samples/identity-z2.nu --i 1 --d 1 --q 7 --format structured",
     0, "d8cd27008ba1805b773aac606052ddc671d708a8dd4e702fb5483de5fc26f366"),
    # the Koszul complex of x, y, z, graded by all of Z^3, recorded while
    # jump loci of graded complexes still went through the charts of P^2
    ("jumploci --complex samples/koszul3.cc --i 1 --d 1 --q 1009",
     0, "ecb18f94a788d4ec6afa566bb7e62e87240f194fc981fda197071c020c76b058"),
    ("jumploci --complex samples/koszul3.cc --i 1 --d 1 --q 1009 --torus --format structured",
     0, "9622329553e945833f4fc9eb80d4194612ab405adf32766995dd02ce50092b57"),
    # over the largest extension field _TABLE_CAP allows, recorded while
    # its tables were still built with one polynomial product per element
    ("jumploci --complex samples/koszul3.cc --i 1 --d 1 --q 131072",
     0, "3d5dfb5c8592db3cb30a1a01f7c77878d9e7c201223d203edcf7430931877af4"),
    # the graded page of the zero-pairing algebra, whose degree-1 locus is
    # the whole space, recorded while such a locus still took a route and
    # was printed through the sort of its points: the torus over F_16,
    # whose printed strings sort otherwise than its ints, and F_17^2
    ("jumploci --complex samples/zero-pairing-page.cc --i 1 --d 1 --q 16 --torus --format structured",
     0, "7f4ad1b0a2ff211b5063c21d3d98e7cf43b1d4a23d90b2690e116d9a1a92a0cf"),
    ("jumploci --complex samples/zero-pairing-page.cc --i 1 --d 1 --q 17",
     0, "98903443f7a7edefac63d4c063c041b7b9a458320e7382208945933cf87dd689"),
    # the graph algebra of the path on 4 vertices, whose R^1_1 is two
    # 3-planes of F^4 meeting in a plane, recorded while it was still
    # ranked one torus orbit at a time
    ("resonance --cga samples/path4.cga --i 1 --d 1 --q 7",
     0, "53bb636060d71530a3cf77c59ba1905f27a1e247963b0b2606dbd70805d83b4c"),
    ("resonance --cga samples/path4.cga --i 1 --d 1 --q 5 --ext 2",
     0, "59e5f56f691dcd4d326343f5f6531022dac72136f4af0dea9013831efc348250"),
    # the Koszul complex of x + u, y + 1 over F_4, whose one jump point
    # (u, 1) is printed through the inclusion of F_4 in F_16 and F_64,
    # recorded while that inclusion was still passed down as an argument
    ("jumploci --complex samples/koszul-f4.cc --i 1 --d 1 --ext 3",
     0, "eae38b8df6afd777e555e45ef57598a4a30afb7688b4948bc91aa0d84b352c2b"),
    ("jumploci --complex samples/koszul-f4.cc --i 1 --d 1 --ext 3 --torus --format structured",
     0, "a4cb38acf68f3a9257f112eb4df6aa980cbb5ff74eb36e2abedbd74f7ae31166"),
    ("supports --complex samples/koszul-f4.cc --i 1 --d 1 --ext 2 --compare-v",
     0, "8f8d888cb56f80aa01c1d3adc739ddb7fd41b1cbd41c5d1e6c3253fbdb28baca"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN,
                         ids=[g[0].split(" --")[0] + "-%d" % n
                              for n, g in enumerate(GOLDEN)])
def test_stdout_digest(command, code, digest, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
