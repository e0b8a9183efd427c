"""Every report-byte pin of the project, in one table.

A row names its producer, which returns the pinned text, and the SHA-256 of
that text.  The producers are the CLI's stdout (``nugrass.cli.main`` run in
this process, which must exit 0), ``Report.to_json()``, or the
``json.dumps`` form the row states.  A row marked ``fresh`` runs in its own
interpreter, twice: the warm call must repeat the cold bytes.  Every other
row runs in this process, once in table order and once more in reverse.

Tests elsewhere that need one of these digests look it up here.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import nugrass
from nugrass.action import sample_gl, verify_action_axioms, verify_action_gluing, verify_transitivity
from nugrass.atlas import verify_cocycle
from nugrass.cli import main
from nugrass.nulie import h_report


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Pin(NamedTuple):
    id: str
    make: Callable[[], str]
    sha256: str
    fresh: bool = False


def cli(command: str, sha256: str) -> Pin:
    """The stdout of ``nugrass command``."""
    argv = shlex.split(command)

    def make():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, f"nugrass {command} exited {code}"
        return out.getvalue()

    return Pin(command, make, sha256)


def sampled_group_points():
    rng = random.Random(25)
    pts = [sample_gl(m, n, r, rng) for m, n, r in ((1, 2, 2), (2, 3, 4), (2, 2, 3))]
    return json.dumps([p.to_dict() for p in pts] + [p.inv().to_dict() for p in pts]
                      + [(p * p.inv()).to_dict() for p in pts], sort_keys=True)


# The sampled suites, whose reports are pinned on 0|1(1|2), 1|1(2|2) and
# 2|1(3|2).  The cocycle runs audit 30 nu-triples: 1|1(2|2) and 2|1(3|2)
# have both undefined and sampled ones.
SUITES = {
    "cocycle": lambda d: verify_cocycle(*d, r=2, samples=2, seed=0, audit_nu_triples=30),
    "gluing": lambda d: verify_action_gluing(*d, r=2, samples=10, seed=0),
    "axioms": lambda d: verify_action_axioms(*d, r=2, samples=10, seed=0),
    "transitivity": lambda d: verify_transitivity(*d, r=2, count=10, seed=0),
}


def suite(name: str, dims: tuple, sha256: str) -> Pin:
    """Report.to_json() of a sampled suite."""
    return Pin(f"{name} {dims}", lambda: SUITES[name](dims).to_json(), sha256)


def commutant(dims: tuple, sha256: str, fresh: bool = False) -> Pin:
    """json.dumps(h_report(*dims), indent=2, sort_keys=True)."""
    return Pin(f"h_report {dims}",
               lambda: json.dumps(h_report(*dims), indent=2, sort_keys=True), sha256, fresh)


TABLE = [
    # CLI reports, chart labels and a symbolic transition
    cli("verify-cocycle -k 1 -l 1 -m 2 -n 2 --samples 2 --audit-nu-triples 24 --format json",
        "aa7eab00a715f9da801bc95abd744b0405bc37e6bc17e67ecc45503cf52fb81e"),
    cli("verify-action -k 0 -l 1 -m 1 -n 2 -r 2 --samples 5 --format json",
        "e2247a91d0f0529b7dc85c2fcc97cac69aae9dc79e7dc17bca364a1858e34032"),
    cli("atlas -k 2 -l 2 -m 3 -n 3 --format json",
        "c18b038e16ef94b16d120a468b1853fa3ef0b3d7c3a51055b942e0793536584d"),
    cli("atlas -k 1 -l 2 -m 2 -n 3",
        "ce93ecbad231af26a598958ebbc80b26f2b0489dfab34311508a4991031f6657"),
    cli('transition -k 1 -l 2 -m 2 -n 3 --from "{1}|{1,2}" --to "{2}|{2,3}" --format json',
        "f8a714a4530272d9f08e8b2e81a5109a232186566f62318999c0d44fd29d091b"),
    # outputs at r = 1, 3 and 5, where the Lambda_r product kernel is
    # generated for an r that neither the pins above nor the benchmark use
    cli("verify-cocycle -k 1 -l 1 -m 2 -n 2 -r 3 --samples 3 --format json",
        "1eb6a0d071d82e6341e78ab85270c8baf98eb047df0da6cb515f6f8df77a6ae4"),
    cli("verify-cocycle -k 0 -l 1 -m 1 -n 2 -r 1 --samples 5 --format json",
        "f98b7ac165054c49a4ac8e12f2950f6342a8754659a822d345ee21e9a774b1a5"),
    cli("verify-action -k 1 -l 1 -m 2 -n 2 -r 3 --samples 4 --format json",
        "31223c3a3e6454430f6b15352c17d49c76fe3488d18cd49c3e58512ac9d95a86"),
    cli("transitivity -k 1 -l 2 -m 2 -n 3 -r 3 --samples 4 --format json",
        "e22fc4701f59cbf90787de77d5df233620e35b57089f924f42d7cc007b726b46"),
    cli("transitivity -k 1 -l 1 -m 2 -n 2 -r 5 --samples 3 --format json",
        "e1056d25742a660e7e4ee9b445ebd2a3238cbd227bbea670de931f4e044d1d39"),
    # outputs at r = 4 on 1|2(2|3), the configuration of the benchmark's
    # action-r4 workload, where the kernel's parity branches carry the
    # products
    cli("verify-action -k 1 -l 2 -m 2 -n 3 -r 4 --samples 4 --format json",
        "d2edb1c4488eb7c152bb9697f13db48f28c5dbf430e07d00bb149069e95102f2"),
    cli("transitivity -k 1 -l 2 -m 2 -n 3 -r 4 --samples 4 --format json",
        "b9026fe7bbe578796c8c7f732fd3cdfc14022cca85238160422d81e98dd6ef41"),
    # outputs on 2|2(3|3), whose 4x4 pasting minors eliminate more than
    # one column on the integer rows of Lambda_r
    cli("verify-cocycle -k 2 -l 2 -m 3 -n 3 --samples 2 --format json",
        "c86a2d166242644154d4b14e71bdcbd86db7d5576247296629bbfd98cc589bce"),
    cli("verify-cocycle -k 2 -l 2 -m 3 -n 3 -r 4 --samples 1 --audit-nu-triples 12 --format json",
        "d03498d7d8b1458fc260f9d40824efe42d9083b81955fce92fa9df613d0ba710"),
    # acted outputs on 2|2(3|3): each acted point [X]P fills the 4x4
    # minor of its destination's plain pasting system
    cli("verify-action -k 2 -l 2 -m 3 -n 3 -r 2 --samples 3 --format json",
        "3a02ea19271d81201bca96b49f6cec4fa165d9f7d45389a47b0a8e113f2a0abc"),
    cli("transitivity -k 2 -l 2 -m 3 -n 3 -r 2 --samples 3 --format json",
        "54f2a765bdbff02faa4dfdd9335e188ef50615fcb489a8655acbba2bf2fdcb1a"),
    # outputs at r = 6, the widest kernel in the tests (64 slots, 729
    # products)
    cli("verify-action -k 0 -l 1 -m 1 -n 2 -r 6 --samples 3 --format json",
        "9233499fd04ba504454acc17dd62f612d3d9d993efeda209468efd1ee60de7ea"),
    cli("verify-cocycle -k 0 -l 1 -m 1 -n 2 -r 6 --samples 3 --format json",
        "b007c4ac922cda11ab4854e0246483348f1487ab27313954d478626090317347"),
    # nu-commutant reports, whose fundamental fields come from their
    # first-order formula
    cli("nulie -k 1 -l 2 -m 2 -n 3 --format json",
        "b9b8e9e279ae595ab333d7ebb37b232c4196d20ff1fc8d06c5d5dcc04fe9a288"),
    cli("nulie -k 0 -l 1 -m 1 -n 2 --format json",
        "04c40f23a3ca6a04ff4a813494c79ff76da2e13562d71d5cf9fa024dbe82cce3"),
    # gl(3|3), whose 18 odd basis elements bracket in pairs with the sign
    # of two odd fields, recorded before the bracket ran on each field's
    # support
    cli("nulie -k 2 -l 2 -m 3 -n 3 --format json",
        "62121bc0028e6f64773875d4001fd8829bcbaca0da7702aff5b6445a004c852a"),
    # Lambda_0 acts on integer numerator rows, as every Lambda_r does:
    # HopPlan.transition fills them and lambda_solve eliminates
    cli("transitivity -k 1 -l 2 -m 2 -n 3 -r 0 --samples 4 --format json",
        "5626fce525be27b9ac98b5434c524688c82a6c643c17a8658fd9a975bb776641"),
    cli("transitivity -k 2 -l 2 -m 3 -n 3 -r 0 --samples 3 --format json",
        "f99c194e8b8510eca8d29e375b1cd5880266a3c349ac47d563d15aa62fd91f76"),
    cli("transitivity -k 1 -l 1 -m 2 -n 2 -r 0 --samples 3 --format json",
        "63db14e6f00ed8eaf2e10d3b20263c91822c92c08a5fe1083ed039fbd9012387"),
    # a standard -> non-standard map with a divider move, and one whose
    # source has an odd unit, so a twisted column lands in the rows of
    # the pair's pasting system
    cli('transition -k 1 -l 2 -m 2 -n 3 --from "{1}|{2,3}" --to "{1,2}|{3}" --format json',
        "147f652d6993325dcf79e0fa42e1998dcabfeabf1564e97a5d48f9ac26182b37"),
    cli('transition -k 1 -l 2 -m 2 -n 3 --from "{1,2}|{1}" --to "{1,2}|{3}" --format json',
        "fd6613ead59375f2cb8f8cb12552d2e774a9a6671f625b696320425f4ea098a5"),
    # atlases without odd coordinates, where the nu-equivariance audit
    # gives way to a report note
    cli("verify-cocycle -k 1 -l 0 -m 2 -n 0 --samples 3 --format json",
        "a02bcdaf61ea27c51748c9fb170612b94d7c3b2d077f10440ec7e38a9608891a"),
    cli("verify-cocycle -k 0 -l 2 -m 0 -n 4 --samples 3 --format json",
        "8d1703d916a4dfd0b59e4e5d65dd06fc8b0fc4d3733841bde517e40698fcc7b2"),
    # text outputs, which every subcommand prints through the same
    # function as its JSON
    cli('transition -k 1 -l 2 -m 2 -n 3 --from "{1}|{1,2}" --to "{2}|{2,3}"',
        "20564dd18309f3a545bce298d612d76338d716ad4e4b01de8a339361070a8932"),
    cli("verify-cocycle -k 0 -l 1 -m 1 -n 2 --samples 3",
        "9ad119695506728b0712b424a2b6ebd3c53b8aff6803159fa539565d4d7693cd"),
    cli("verify-action -k 0 -l 1 -m 1 -n 2 --samples 3",
        "0c81e5615e2dabee9b1f4c547c74e6f6425d141c1efecaa148b1262de0fb7895"),
    cli("transitivity -k 1 -l 2 -m 2 -n 3 -r 2 --samples 3",
        "de435b51c2aa83436aa5c13d94fe344f77b3ac8d4e8eb8aad66b4b8d0b66b95d"),

    # the largest nu-commutant report, 2|2(3|3) with dim h = 2|0
    commutant((2, 2, 3, 3), "da92c9c75ee29dd4a37010b8b2fe70c67c6c820856b236a70022a3453cb8a3e8"),
    # the commutant with the most odd coordinates, beta = 9 on 0|3(3|3),
    # on 20 charts of which 19 are non-standard
    commutant((0, 3, 3, 3), "675bdf8e4ceba37777d6aa3b3db133c0677bc41424ec06233bc5b616567c8a02"),
    # sampled group points, their inverses and products
    Pin("sample_gl", sampled_group_points,
        "d26e8c4df7fc48fb4b849468109811b9d0d98297cdf37472ff1255098711d9ae"),

    # sampled suite reports, recorded before the sampled checks shared one
    # retry loop and one tally
    suite("cocycle", (0, 1, 1, 2), "ae23819147a5baf319870bc08be926465cf4fe0a59a2f95202d7084d8dd611dc"),
    suite("gluing", (0, 1, 1, 2), "a927f61d0a468d61544106ef3c1cade22c7d3fd6d606dd8650f17094c0ec86b4"),
    suite("axioms", (0, 1, 1, 2), "d3b4df69a400c7652cb9cace82d7a3ec5b698b46c3d8a365f4be0c52ee298e30"),
    suite("transitivity", (0, 1, 1, 2),
          "da00ee0ae833fb258010a3fdf86ec7557ee033e4a6b5b972e343b37c3fd33bf1"),
    suite("cocycle", (1, 1, 2, 2), "7d065a37fca8a8288736d3b4d5ef48a37019a3547967eef54af2862bf0944541"),
    suite("gluing", (1, 1, 2, 2), "bb65792dbfbbec03dbf397e6ebf3d0a821327b57ed6b510a88f03a1501c46a9d"),
    suite("axioms", (1, 1, 2, 2), "ccabaacced4b55883361465afaf19ad1fc6ac8b6d336d50e5f83f6c9c8fdc703"),
    suite("transitivity", (1, 1, 2, 2),
          "0b0cccd42c2a75031f1bc9bfb1c3e3ac94de28ddf5315c77ac3bbfba532eff77"),
    suite("cocycle", (2, 1, 3, 2), "b7dbf37086611d915bde0ee9f6d76dc1440e6ae1032f7ca12ea4f36761f4f0b8"),
    suite("gluing", (2, 1, 3, 2), "f8ba46ba7cffaf9dc1209ece8c5158de477f233b4d20479de99f782bde0c647d"),
    suite("axioms", (2, 1, 3, 2), "71a5bc6df55b6d662e054ec1509daa571288e8142204a95043f4ac8f01eeeb97"),
    suite("transitivity", (2, 1, 3, 2),
          "4ec2b2cd811dbd16c088d86c054cca79b9338b9546851dc74d4b4513c8ee51bf"),

    # nu-commutant reports, recorded before the bracket read off Jacobians;
    # 2|1(3|2) has dim h = 1|0
    commutant((1, 1, 2, 2), "e20314db3221d7ca878b1e7fec23840ad941a195c97682b3ca58e14788865db4"),
    commutant((2, 1, 3, 2), "c0a128057fc03a0d4808675e90dff60cf123002ba5106cfc8f65f84ad39c9e40"),
    # recorded before fundamental fields came from their first-order
    # formula, as is the h_report (1, 2, 2, 3) row below
    commutant((0, 1, 1, 2), "c53aeeb8ff95a9c236247ffd87e9d9432aa9f4bb483ab9a8e2820ccc2e66845e"),

    # a warm process repeats the cold bytes: the second call reads every
    # chart pair's plan, or every basis field, from the per-process store.
    # Each row runs alone in its interpreter, since the cocycle would warm
    # the plans that h_report(1,2,2,3) reads.
    Pin("verify_cocycle (1, 2, 2, 3) r=2 samples=2 audit_nu_triples=6",
        lambda: verify_cocycle(1, 2, 2, 3, r=2, samples=2, audit_nu_triples=6).to_json(),
        "c2955c9348a49719b2423b423306c98fb2e05921575d0728adba6b44855999a6", fresh=True),
    commutant((1, 2, 2, 3), "8dcd9670e58b1804934312650f0498ecece0b3a5465d76a23b25be8f0f438d13",
              fresh=True),
]
PINS = {pin.id: pin for pin in TABLE}
IN_PROCESS = [pin for pin in TABLE if not pin.fresh]
FRESH = [pin for pin in TABLE if pin.fresh]


def check(pin_id: str) -> None:
    """Produce one row's text in this process and compare its digest."""
    pin = PINS[pin_id]
    assert digest(pin.make()) == pin.sha256, pin_id


# the digest each in-process row gave on its first run in this process
FIRST = {}


@pytest.mark.parametrize("pin", IN_PROCESS, ids=[pin.id for pin in IN_PROCESS])
def test_pin(pin):
    got = FIRST[pin.id] = digest(pin.make())
    assert got == pin.sha256


def test_a_second_run_in_reverse_order_repeats_every_pin():
    # a row whose bytes now differ from its first run depends on what the
    # process ran before it
    changed = [pin.id for pin in reversed(IN_PROCESS)
               if digest(pin.make()) != FIRST.get(pin.id, pin.sha256)]
    assert changed == []


@pytest.mark.parametrize("pin", FRESH, ids=[pin.id for pin in FRESH])
def test_a_fresh_interpreter_repeats_the_cold_bytes_warm(pin):
    tests = Path(__file__).resolve().parent
    src = Path(nugrass.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), str(tests)] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else []))}
    code = ("import json, sys\n"
            "from test_pins import PINS\n"
            "make = PINS[sys.argv[1]].make\n"
            "json.dump([make(), make()], sys.stdout)\n")
    proc = subprocess.run([sys.executable, "-c", code, pin.id], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    cold, warm = json.loads(proc.stdout)
    assert digest(cold) == pin.sha256
    assert warm == cold


def test_every_row_has_its_own_id_and_digest():
    assert len(PINS) == len({pin.sha256 for pin in TABLE}) == len(TABLE)


def test_the_workflow_holds_no_digest():
    # a pin in CI would run outside the tier-1 command; it belongs in TABLE
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
    assert re.findall(r"[0-9a-fA-F]{64}", workflow.read_text()) == []
