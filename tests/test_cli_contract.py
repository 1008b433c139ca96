"""The CLI contract: pinned commands, their exit codes and their output.

A row holds a command line (``shlex`` syntax), its exit code, and one
check of stdout: exact text, ``Sha256`` or ``JsonSha256``; a row may also
hold its exact stderr.  Rows run through ``cli.main`` in process, from the
repository root, with ``FDEK_ASCII`` and ``NO_COLOR`` unset, and ``{tmp}``
names the ``claim_files`` directory.  A new CLI pin is a row here, never a
CI shell step.
"""

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from fdek.cli import main

ROOT = Path(__file__).resolve().parent.parent
D = "src/fdek/data/"
FIG6 = f"--model-a {D}fig6_single.json --world-a w0 --model-b {D}fig6_pair.json --world-b w0"
EX22 = f"--model-a {D}ex22.json --world-a wh --model-b {D}ex22_trimmed.json --world-b wh"
SPINE = "(" * 400 + "p" + "".join(" | #~r)" if i % 3 else " & ~#(p | r))" for i in range(400))


class Sha256(str):
    """The sha256 of stdout."""


class JsonSha256(Sha256):
    """The sha256 of ``json.dumps(d, sort_keys=True) + "\\n"``, where ``d`` is the
    stdout JSON less its ``elapsed``."""


def pin(id, command, code, stdout, stderr=None):
    return pytest.param(command, code, stdout, stderr, id=id)


ROWS = [
    # The 23 MB proof JSON: 146 nesting levels, past the 128 the writer keeps.
    pin("prove-4-json", "prove '####p |- ####~p' --json", 0,
        Sha256("ae08f2f927688a20024ad3595c57e97fadda38aaaaa21d9845e0c0ac8906cf8a")),
    # The proof JSON of ###p |- ###~p as print writes it, trailing newline included.
    pin("prove-3-json", "prove '###p |- ###~p' --json", 0,
        Sha256("497b0cf0d2587f2904230b30226b2c56ebb7b86dd9273e44c06d01974b786ad4")),
    # The 14.9 MB tree of #####p |- #####~p, whose search carries the most state.
    pin("prove-5-tree", "prove '#####p |- #####~p' --tree", 0,
        Sha256("60336e6f6a32112f644def4575bea0c66fd657d7ece07322e33530a2a26099b9")),
    # The same proof from the nonfalsity root.
    pin("prove-5-tree-nonfalsity", "prove '#####p |- #####~p' --tree --start nonfalsity", 0,
        Sha256("a6b7ca421bf4d27c2dfe03ba1bb7660b62d350fe7c8ecd15e6af53b701cb3435")),
    # A refutation firing tri_B+ and tri_F: minted labels, open branch, countermodel.
    pin("refuted-truth", "prove '@p |- ##p' --json --start truth", 1,
        Sha256("6862e4636b1f403e380c04c1e6fdfcfc6bf16e706a9795d367c7c3cd69d54e89")),
    # The same from the nonfalsity root.
    pin("refuted-nonfalsity", "prove '@p |- ##p' --json --start nonfalsity", 1,
        Sha256("8166731cca398a14ca099022023a2dd24aef4ae2773505244bb33a1399e953be")),
    # A refutation firing tri_N+ from the nonfalsity root.
    pin("refuted-tri-n", "prove '#p & ~#p |- q' --json --start nonfalsity", 1,
        Sha256("f9a7c381f5bf404b6ca566642b5994089e7325b8f3830f753d99578a3dc71f2a")),
    # A witness at w1 of w1 -> w0 -> w2 that the rooted, depth-cut sweep must find.
    pin("countermodel-3-worlds", "countermodel '##p |- ####p' --max-worlds 3 --json", 0,
        Sha256("1766a7eef350ea93d6d9f1e38b36de259ac0c7c6383762f699194230918e43d0")),
    # An outer # over a child that depends on the relation; all 64 classes swept.
    pin("nested-modal-sweep", "countermodel '#(#p & #q) & r |- #(#q & #p) & r' --max-worlds 3"
        " --json", 1, '{"found": false, "max_worlds": 3}\n'),
    # Valid at 2 worlds x 6 variables: all 32 blocks of 4^10 valuations swept.
    pin("multi-block-valid", "countermodel '#(p & q) & (r | s) & (t | u) |- #(q & p) & (r | s)"
        " & (t | u)' --max-worlds 2 --json", 1, '{"found": false, "max_worlds": 2}\n'),
    # First refuted at w0 of w0 -> w0, w0 -> w1, in the block starting at 4 194 304.
    pin("multi-block-refuted", "countermodel '~p & #(q & r) & (s | t) & u |- ##(r & q) & (s | t)"
        " & u' --max-worlds 2 --json", 0,
        Sha256("a9b4504f3074dd3d9061ade95ade2ff763e751aaadec1de943641da9dcab2d21")),
    # Depth 2, refuted at w1 of w0 -> w0, w0 -> w1, w1 -> w0.
    pin("depth-cut-box", "countermodel '#[]p |- []#p' --max-worlds 3 --json", 0,
        Sha256("8131735058526c70b382b00bc345ecc38c672a9de2de532dcdef8e939e9aefd9")),
    # The depth cut must keep the edges out of w0, one step from the refuting w1.
    pin("depth-cut-edges", "countermodel '#p |- #(p & #p)' --max-worlds 3 --json", 0,
        Sha256("aa6610f010d595218868eeb0283d83439f7641afc5cd6ea9ef85c345b018203e")),
    # Depth 1 sweeps 2 of the 104 classes on 3 worlds.
    pin("depth-cut-valid", "countermodel '#(p & q) & r |- #(q & p) & r' --max-worlds 3 --json",
        1, '{"found": false, "max_worlds": 3}\n'),
    # Atom tables handed out by sorted name: r is T at w0 and N at w1.
    pin("multi-variable", "countermodel '#p & #q & r |- #(p | q) & #r & r' --max-worlds 2 --json",
        0, Sha256("86026a6e1e95cd575e3796ff3e392dd0c5f0c38261f60da042b8debdee71d5c6")),
    # Falsity rows of the clause table read through ~ over # and [].
    pin("negated-modality", "countermodel '~#(p & ~[]q) |- ~#p | []~q' --max-worlds 3 --json", 0,
        Sha256("86af5170e59b66faa30761f4606d1f120258f12f74d84a955bc1e94a9cc1eaaf")),
    # The same, first refuted at w0 of w0 -> w0, w0 -> w1.
    pin("negated-modality-w0", "countermodel '~[]p & ~#q |- ~#(p | q)' --max-worlds 3 --json", 0,
        Sha256("0839030c9a3e455fd7c38193a7f4fe0436bcfb34992d8e4ffd8a235921629d5b")),
    # Refuted on mask 285 of 3 worlds, a class not the smallest in its list.
    pin("definability-preorder", "definability --property preorder --sequents "
        "{tmp}/reflexive.txt --max-size 4 --json", 1,
        JsonSha256("6cce2ded38f3b6148662494a3aaa3f229eb5375ca613ce3cd4edc77180efcbc5")),
    # Equivalence defined on all 66 066 frames up to 4 worlds.
    pin("definability-equivalence", "definability --property equivalence --max-size 4 --json", 0,
        JsonSha256("a23a2d788cfabf719185be1b280d50c6be95631336ed99802d568c2464c306e3")),
    # Transitivity holds on the sixth frame, where #p |- ##p fails.
    pin("definability-transitive", "definability --property transitive --sequents "
        "{tmp}/transitive.txt --max-size 3 --json", 1,
        JsonSha256("da0dffe674d12b185d7f9970bc505bde4b1a69d49ead3cc130ea63d898c9df1a")),
    # ex22's dual turns an N into a B.
    pin("dual", f"dual --model {D}ex22.json", 0,
        Sha256("342e474e9f539124589f576a465d8d96ab25aad91225fbfbdad658d4c455caf4")),
    # 12 reflexive worlds: all 4^12 valuations in 16-bit bitsets, 16 blocks.
    pin("frame-valid", "valid-on-frame '#(p | ~p) |- p | ~p' --frame {tmp}/loop12.json --json", 0,
        '{"claim": "#(p | ~p) |- p | ~p", "valid": true}\n'),
    # An invalid sequent on the same frame.
    pin("frame-invalid", "valid-on-frame '#p |- p' --frame {tmp}/loop12.json", 1, "INVALID\n"),
    # 13 worlds exceed the 12-slot bound.
    pin("frame-too-large", "valid-on-frame 'p |- p' --frame {tmp}/loop13.json", 2, ""),
    # On 12 dead-end worlds #p holds vacuously, so all 16 blocks are read.
    pin("frame-formula-valid", "valid-on-frame '|- #p' --frame {tmp}/dead12.json --json", 0,
        '{"claim": "|- #p", "valid": true}\n'),
    # On 12 reflexive worlds #p fails where p is not T.
    pin("frame-formula-invalid", "valid-on-frame '|- #p' --frame {tmp}/loop12.json --json", 1,
        '{"claim": "|- #p", "valid": false}\n'),
    # The paper reproduction at its default size, with the fold's formula counts.
    pin("figures-json", "figures --json", 0,
        Sha256("33b7dc63a920eb84b950f3b63141fda74540c2c265161389ac051d8952a65c49")),
    # The parser finds offsets only when it raises: past 2 000 prefix lexemes here.
    pin("parse-offset", f"prove '{'#' * 2000}p & é |- p'", 2, "",
        "error: stray character 'é' (at offset 2004)\n"),
    # A 2 000-deep unary chain, parsed, evaluated and rendered.
    pin("eval-deep-chain", f"eval --model {D}ex22.json --world wc --formula "
        f"'{'#~' * 1000}(p & ~r | #r)' --json", 0,
        Sha256("5c6d1e6691cf9247cbc0929e2baf75db6485406981b5710662e57cb6fbebb652")),
    # 600 runs of []~<># call both memoised modal clauses; F at w0.
    pin("eval-both-clauses-w0", f"eval --model {D}fig10.json --world w0 --formula "
        f"'{'[]~<>#' * 600}(#p | []~p)' --json", 0,
        Sha256("9c2d9e079d39283fe4fe981008dcbe24a7cd2672d231a294385cd52cd7f0fc60")),
    # The same, T at w1.
    pin("eval-both-clauses-w1", f"eval --model {D}fig10.json --world w1 --formula "
        f"'{'[]~<>#' * 600}(#p | []~p)' --json", 0,
        Sha256("324f49086698c9eabe7fe1325eb325ed86bfcd5878ed237b7b47504f2074404e")),
    # A 400-level left-deep &/| spine, value N.
    pin("eval-deep-spine", f"eval --model {D}ex22.json --world ws --formula '{SPINE}' --json", 0,
        Sha256("dc49f5acf7ea7774b03c791320962ef6b042cb595cae555aa4ffeb07bb59d072")),
    # A refuted tree in glyphs: @ re-sugared, ~ and # above and below &.
    pin("refuted-tree-glyphs", "prove '@@p & ~#~#~p |- #@@~p' --tree", 1,
        Sha256("ef79efc9335efdf4e785b908574208b0db53c28d621a0700152d1d78050f708b")),
    # 31 934 637 []-formulas at size 14, folded as distinct values, not formulas.
    pin("scan-14", f"separate {FIG6} --language box --max-size 14 --json", 0,
        JsonSha256("3a4db4a75371a56245036f64ecc4cd9959a65405b976a6a06664c65d36091fdf")),
    # The values close at size 5, so size 300 only counts: 202 digits.
    pin("scan-300", f"separate {FIG6} --language box --max-size 300 --json", 0,
        JsonSha256("d3a65273aa408467ec786aba87e3499afb63dd87959df4623e52b60e0852ae38")),
    # Bisimilar points, answered before any fold with the fold's 230-digit count.
    pin("scan-bisimilar-tri", f"separate {EX22} --language tri --max-size 300 --json", 0,
        JsonSha256("ed4119959f274405c6aa4f817622ca4fd326864c644e12a862af7e3be502ecd9")),
    # The same in the [] language.
    pin("scan-bisimilar-box", f"separate {EX22} --language box --max-size 300 --json", 0,
        JsonSha256("c74d980bc922a165f1c0d5076d2b1c48b91fb948969055a7a2a600cabd9c3068")),
    # A count of 5 465 digits, past the interpreter's limit on converting ints to text.
    pin("scan-8000", f"separate {FIG6} --language box --max-size 8000", 0,
        Sha256("0f19752f95a798afccaaa69b45157199f678c83086da5747e1f6019e12cb7250")),
    # The expressivity rows of figures print counts of the same size.
    pin("figures-8000", "figures --max-size 8000", 0,
        Sha256("8e95b125db5af7cffadab136f488646e1b0ded51c995d95590e718578139b5e5")),
]


@pytest.fixture(scope="module")
def claim_files(tmp_path_factory):
    """The claims files and frames that rows name under ``{tmp}``."""
    tmp = tmp_path_factory.mktemp("contract")
    (tmp / "reflexive.txt").write_text("#(p | ~p) |- p | ~p\n")
    (tmp / "transitive.txt").write_text("#p |- ##p\n")
    for name, n, loops in (("loop12", 12, True), ("loop13", 13, True), ("dead12", 12, False)):
        ws = [f"w{i}" for i in range(n)]
        frame = {"worlds": ws, "rel": [[w, w] for w in ws if loops]}
        (tmp / f"{name}.json").write_text(json.dumps(frame))
    return tmp


@pytest.mark.parametrize("command, code, stdout, stderr", ROWS)
def test_cli_contract(command, code, stdout, stderr, claim_files, capsys, monkeypatch):
    monkeypatch.delenv("FDEK_ASCII", raising=False)
    monkeypatch.delenv("NO_COLOR", raising=False)
    monkeypatch.chdir(ROOT)
    argv = [arg.replace("{tmp}", str(claim_files)) for arg in shlex.split(command)]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if stderr is not None:
        assert err == stderr
    if isinstance(stdout, JsonSha256):
        data = json.loads(out)
        del data["elapsed"]
        out = json.dumps(data, sort_keys=True) + "\n"
    if isinstance(stdout, Sha256):
        out = hashlib.sha256(out.encode()).hexdigest()
    assert out == stdout


def test_the_workflow_pins_no_cli_output():
    # A pin written as a shell step would escape the tier-1 run of ROWS,
    # and a benchmark check the tier-1 run of test_benchmark_api.py: no
    # step follows Tier-1, and none runs a script of bench/.
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert not re.search(r"\b[0-9a-f]{64}\b", text)
    assert "-m fdek" not in text
    assert "bench/" not in text
    assert not re.search(r"^\s*- ", text.split("- name: Tier-1 tests", 1)[1], re.M)
