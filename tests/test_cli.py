"""Command line behavior: flows, formats, determinism, exit codes."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import per_element_codec
from gptrank import attacks, cli
from gptrank.cli import blocks_to_message, bytes_per_element, main, message_to_blocks
from gptrank.errors import DecodeFailure, ParameterError
from gptrank.gpt import GptParams, keygen, preset
from gptrank.keyfiles import CiphertextBundle, load_ciphertext, save_ciphertext
from parameter_sweep import accepted_sweep_params


SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(*argv):
    return main(list(argv))


def run_process(*argv, timeout=None):
    """The command as a user runs it: a fresh interpreter, stderr captured."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gptrank.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout,
    )


def rechecksum_json(path, edit):
    doc = json.loads(path.read_text())
    del doc["checksum"]
    edit(doc)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
    path.write_text(json.dumps(doc))


# -- message chunking ------------------------------------------------


def test_chunking_roundtrip_various_lengths():
    params = preset("desk-12")
    for size in (0, 1, 5, 6, 7, 12, 100):
        data = bytes(range(size % 256))[:size] or b""
        data = bytes((i * 37) % 256 for i in range(size))
        blocks = message_to_blocks(params, data)
        assert blocks_to_message(params, blocks, len(data)) == data
        for b in blocks:
            assert len(b) == params.pub_rows


def test_chunking_block_count():
    params = preset("desk-12")  # one byte per element, six elements per block
    assert len(message_to_blocks(params, b"x" * 6)) == 1
    assert len(message_to_blocks(params, b"x" * 7)) == 2
    assert message_to_blocks(params, b"") == []


def test_chunking_needs_a_big_enough_field():
    tiny = preset("desk-12", N=7, n=7, k=3, t1=1, s_ext=1)
    with pytest.raises(ParameterError, match="only 7 bits"):
        message_to_blocks(tiny, b"hi")
    with pytest.raises(ParameterError, match="only 7 bits"):
        blocks_to_message(tiny, [[1, 2, 3]], 2)


def test_an_element_too_wide_for_the_packing_fails_at_that_stage():
    params = preset("desk-12")  # one byte per element
    for bad in (256, -1):
        with pytest.raises(DecodeFailure) as info:
            blocks_to_message(params, [[bad, 0, 0, 0, 0, 0]], 6)
        assert info.value.stage == "packing"


@pytest.mark.parametrize("N", [12, 20, 28, 33, 41, 52, 60, 64])  # 1 to 8 bytes per element
def test_chunkers_match_the_per_element_codec(N):
    params = GptParams(N=N, n=6, k=2, t1=1)
    bpe = bytes_per_element(params)
    assert bpe == N // 8
    rng = random.Random(N)
    for size in (0, 1, 2 * bpe - 1, 2 * bpe, 11 * bpe + 3):
        data = bytes([0xFF] * min(size, bpe)) + rng.randbytes(max(size - bpe, 0))
        blocks = message_to_blocks(params, data)
        assert blocks == per_element_codec.message_to_blocks(params, data)
        assert blocks_to_message(params, blocks, size) == data
        assert per_element_codec.blocks_to_message(params, blocks, size) == data
    with pytest.raises(DecodeFailure, match="byte packing"):
        blocks_to_message(params, [[1 << 8 * bpe, 0]], 1)


# -- full flows ------------------------------------------------


@pytest.mark.parametrize("fmt", ("bin", "hex", "json"))
def test_keygen_encrypt_decrypt_flow(tmp_path, fmt):
    pub = tmp_path / f"p.{fmt}"
    priv = tmp_path / f"s.{fmt}"
    msg = tmp_path / "m.txt"
    ct = tmp_path / f"c.{fmt}"
    out = tmp_path / "out.txt"
    msg.write_bytes(b"the quick brown fox, rank three")
    assert run("keygen", "--preset", "desk-12", "--pub", str(pub), "--priv", str(priv),
               "--format", fmt, "--seed", "5") == 0
    assert run("encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct),
               "--format", fmt, "--seed", "6") == 0
    assert run("decrypt", "--priv", str(priv), "--in", str(ct), "--out", str(out)) == 0
    assert out.read_bytes() == msg.read_bytes()


# Every command in every encoding on desk-12; paper-28 (the packed, table-less
# product kernel); a full-length N = 32 code (every 32-bit row lane filled);
# N = 33 (the first field whose rows pack into 64-bit lanes); N = 40 (128-bit
# lanes in the decoder's scalar-times-row kernel); N = 20 and N = 64 (3- and
# 8-byte elements: an odd width and whole lanes in the bulk element codec); a
# full-length N = 64 code (the widest F_2 rows in the decoder); a variant 5 and
# a variant 6 key; a base-field scrambler (the F_2 inverse), with --sext 0 and
# with the s_ext that GptParams gives it; q = 3 (the odd-q scrambler inverse);
# and paper-28 at t1 = 5, a row of the paper's length-28 table whose s_ext
# follows the budget.
PARAMETER_SETS = {
    "desk-12": "--preset desk-12",
    "paper-28": "--preset paper-28",
    "N32-full-length": "--bigN 32 --n 32 --k 16 --t1 3",
    "N33": "--bigN 33 --n 12 --k 6 --t1 2",
    "N40": "--bigN 40 --n 12 --k 6 --t1 2",
    "N20": "--bigN 20 --n 12 --k 6 --t1 2",
    "N64": "--bigN 64 --n 12 --k 6 --t1 2",
    "N64-full-length": "--bigN 64 --n 64 --k 32 --t1 4",
    "variant-5": "--variant 5 --bigN 12 --n 12 --k 6 --t1 1 --t2 2 --p 1 --sext 1",
    "variant-6": "--variant 6 --bigN 14 --n 14 --k 6 --t1 2 --t2 1 --mcols 2 --sext 1 --xrank 1",
    "base-field-sext-0": "--preset desk-12 --mode base_field --sext 0",
    "base-field": "--preset desk-12 --mode base_field",
    "q3": "--q 3 --bigN 6 --n 6 --k 2 --t1 1 --sext 1",
    "paper-28-t1-5": "--preset paper-28 --t1 5",
}


@pytest.mark.parametrize("flags", PARAMETER_SETS.values(), ids=PARAMETER_SETS)
def test_every_command_runs_on_the_parameter_set_in_every_format(flags, tmp_path, capsys):
    # analyze prints a verdict and a status; attack on every key generated
    # prints a verdict and analyze's status; each key round-trips a file
    message = SRC / "gptrank" / "errors.py"
    assert run("analyze", *flags.split()) == 0
    analyzed = capsys.readouterr().out.splitlines()
    status = [line for line in analyzed if line.startswith("status: ")]
    assert len(status) == 1 and any(line.startswith("  verdict: ") for line in analyzed)
    for fmt in ("bin", "hex", "json"):
        pub, priv = tmp_path / f"pub.{fmt}", tmp_path / f"priv.{fmt}"
        ct, out = tmp_path / f"ct.{fmt}", tmp_path / f"out.{fmt}"
        assert run("keygen", *flags.split(), "--seed", "9", "--format", fmt,
                   "--pub", str(pub), "--priv", str(priv)) == 0  # fmt: skip
        capsys.readouterr()
        assert run("attack", "--pub", str(pub)) == 0
        attacked = capsys.readouterr().out.splitlines()
        assert [line for line in attacked if line.startswith("status: ")] == status, fmt
        assert any(line.startswith("  verdict: ") for line in attacked), fmt
        assert run("encrypt", "--pub", str(pub), "--in", str(message), "--out", str(ct),
                   "--format", fmt, "--seed", "9") == 0  # fmt: skip
        assert run("decrypt", "--priv", str(priv), "--in", str(ct), "--out", str(out)) == 0
        assert out.read_bytes() == message.read_bytes(), fmt


def test_empty_message(tmp_path):
    pub, priv = tmp_path / "p", tmp_path / "s"
    msg, ct, out = tmp_path / "m", tmp_path / "c", tmp_path / "o"
    msg.write_bytes(b"")
    assert run("keygen", "--preset", "desk-12", "--pub", str(pub), "--priv", str(priv),
               "--seed", "1") == 0
    assert run("encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct)) == 0
    assert run("decrypt", "--priv", str(priv), "--in", str(ct), "--out", str(out)) == 0
    assert out.read_bytes() == b""


def test_explicit_parameters_without_preset(tmp_path):
    pub, priv = tmp_path / "p", tmp_path / "s"
    code = run("keygen", "--q", "2", "--bigN", "12", "--n", "10", "--k", "4",
               "--t1", "2", "--sext", "1", "--pub", str(pub), "--priv", str(priv),
               "--seed", "2")
    assert code == 0
    assert pub.exists() and priv.exists()


def test_keygen_seed_determinism(tmp_path):
    a_pub, a_priv = tmp_path / "a.pub", tmp_path / "a.priv"
    b_pub, b_priv = tmp_path / "b.pub", tmp_path / "b.priv"
    for pub, priv in ((a_pub, a_priv), (b_pub, b_priv)):
        assert run("keygen", "--preset", "desk-12", "--pub", str(pub),
                   "--priv", str(priv), "--seed", "77") == 0
    assert a_pub.read_bytes() == b_pub.read_bytes()
    assert a_priv.read_bytes() == b_priv.read_bytes()
    c_pub, c_priv = tmp_path / "c.pub", tmp_path / "c.priv"
    assert run("keygen", "--preset", "desk-12", "--pub", str(c_pub),
               "--priv", str(c_priv), "--seed", "78") == 0
    assert a_pub.read_bytes() != c_pub.read_bytes()


def test_encrypt_seed_determinism(tmp_path):
    pub, priv = tmp_path / "p", tmp_path / "s"
    msg = tmp_path / "m"
    msg.write_bytes(b"determinism check")
    run("keygen", "--preset", "desk-12", "--pub", str(pub), "--priv", str(priv), "--seed", "3")
    c1, c2, c3 = tmp_path / "c1", tmp_path / "c2", tmp_path / "c3"
    run("encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(c1), "--seed", "9")
    run("encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(c2), "--seed", "9")
    run("encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(c3), "--seed", "10")
    assert c1.read_bytes() == c2.read_bytes()
    assert c1.read_bytes() != c3.read_bytes()


def test_cross_format_interoperability(tmp_path):
    # hex keys must decrypt a bin ciphertext: content, not encoding, matters
    pub, priv = tmp_path / "p.hex", tmp_path / "s.hex"
    msg, ct, out = tmp_path / "m", tmp_path / "c.bin", tmp_path / "o"
    msg.write_bytes(b"mixed encodings")
    run("keygen", "--preset", "desk-12", "--pub", str(pub), "--priv", str(priv),
        "--format", "hex", "--seed", "4")
    run("encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct),
        "--format", "bin", "--seed", "5")
    assert run("decrypt", "--priv", str(priv), "--in", str(ct), "--out", str(out)) == 0
    assert out.read_bytes() == msg.read_bytes()


def test_mode_alias_accepted(tmp_path):
    pub, priv = tmp_path / "p", tmp_path / "s"
    assert run("keygen", "--preset", "desk-12", "--mode", "extension_field_V",
               "--pub", str(pub), "--priv", str(priv), "--seed", "8") == 0


def test_base_field_mode_flag_drops_sext(tmp_path):
    pub, priv = tmp_path / "p", tmp_path / "s"
    assert run("keygen", "--preset", "desk-12", "--mode", "base_field",
               "--pub", str(pub), "--priv", str(priv), "--seed", "8") == 0


def test_dashed_mode_spelling_makes_the_same_key(tmp_path):
    keys = []
    for mode in ("base_field", "base-field"):
        pub, priv = tmp_path / f"{mode}.p", tmp_path / f"{mode}.s"
        assert run("keygen", "--preset", "desk-12", "--mode", mode, "--variant", "simple",
                   "--pub", str(pub), "--priv", str(priv), "--seed", "8") == 0
        keys.append((pub.read_bytes(), priv.read_bytes()))
    assert keys[0] == keys[1]


# -- analyze and attack output ------------------------------------------------


def test_analyze_table(capsys):
    assert run("analyze", "--table") == 0
    out = capsys.readouterr().out
    table_lines = [ln for ln in out.splitlines() if ln.strip() and ln.strip()[0].isdigit()]
    assert len(table_lines) == 8
    assert "insecure" in out and "secure" in out
    assert "unreconciled" in out
    assert "24" in out and "28" in out


def test_analyze_table_with_parameters(capsys):
    assert run("analyze", "--table", "--preset", "desk-12") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("reference security table")
    blank = lines.index("")
    assert lines[blank - 1].startswith("  note: ")
    assert lines[blank + 1] == "parameters:"
    assert "code length n: 12" in lines[blank + 3]


def test_analyze_parameters(capsys):
    assert run("analyze", "--preset", "paper-28") == 0
    out = capsys.readouterr().out
    assert "10976" in out
    assert "112.84" in out and "147.60" in out and "302.3" in out
    assert "status: secure" in out


def test_analyze_base_field_flagged_insecure(capsys):
    assert run("analyze", "--preset", "paper-28", "--mode", "base_field") == 0
    out = capsys.readouterr().out
    assert "status: insecure" in out
    assert "distinguisher" in out


def test_a_preset_with_another_t1_takes_the_budget_s_ext(capsys):
    # paper-28 at t1 = 6 is a row of the paper's length-28 table
    assert run("analyze", "--preset", "paper-28", "--t1", "6") == 0
    assert "scrambler: extension_field (extension columns s_ext: 1)" in capsys.readouterr().out
    assert run("analyze", "--preset", "paper-28", "--mode", "base_field") == 0
    assert "scrambler: base_field (extension columns s_ext: 0)" in capsys.readouterr().out


def test_analyze_flags_an_extension_field_key_without_extension_columns(capsys):
    # s_ext = 0 leaves P^-1's kept block over F_q, as a base-field scrambler does,
    # and the key that analyze draws reads DISTINGUISHABLE
    assert run("analyze", "--preset", "paper-28", "--t1", "7", "--sext", "0") == 0
    out = capsys.readouterr().out
    assert "scrambler: extension_field (extension columns s_ext: 0)" in out
    assert "status: insecure (the extended-rank distinguisher separates this key" in out


@pytest.mark.parametrize("mode", ["base_field", "extension_field"])
def test_a_key_without_extension_columns_is_insecure_where_the_default_depth_misses_it(
    mode, tmp_path, capsys
):
    # its stack saturates by the default depth and brute force costs 2^84, so
    # only the missing extension-field columns mark it insecure, in both commands
    flags = ["--preset", "paper-28", "--variant", "6", "--t1", "3", "--t2", "1"]
    flags += ["--mcols", "1", "--mode", mode, "--sext", "0"]
    status = (
        "status: insecure (no extension-field scrambler columns (s_ext = 0): "
        "P^-1's kept block lies over F_q, which structural rank attacks strip)"
    )
    assert run("analyze", *flags) == 0
    assert status in capsys.readouterr().out.splitlines()
    pub, priv = tmp_path / "p", tmp_path / "s"
    assert run("keygen", *flags, "--seed", "2", "--pub", str(pub), "--priv", str(priv)) == 0
    capsys.readouterr()
    assert run("attack", "--pub", str(pub)) == 0
    out = capsys.readouterr().out.splitlines()
    assert "  verdict: NOT DISTINGUISHABLE" in out
    assert f"  {'rank component brute force':32s} {84:10.2f}" in out
    assert status in out


def test_unseeded_commands_draw_from_the_os_csprng(tmp_path, monkeypatch):
    made = []

    class Recording(random.SystemRandom):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(random, "SystemRandom", Recording)
    pub, priv, msg = tmp_path / "p.key", tmp_path / "s.key", tmp_path / "m.txt"
    msg.write_bytes(b"unseeded")
    assert run("keygen", "--preset", "desk-12", "--pub", str(pub), "--priv", str(priv)) == 0
    assert len(made) == 1
    assert run("encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(tmp_path / "c")) == 0
    assert len(made) == 2
    assert run("analyze", "--preset", "desk-12", "--simulate", "--trials", "1") == 0
    assert len(made) == 3
    assert run("keygen", "--preset", "desk-12", "--pub", str(pub), "--priv", str(priv),
               "--seed", "5") == 0
    assert len(made) == 3


def test_analyze_simulate_contrast(capsys):
    assert run("analyze", "--preset", "desk-12", "--simulate", "--trials", "3",
               "--seed", "11") == 0
    out = capsys.readouterr().out
    assert "extension_field" in out and "base_field" in out
    assert "-> NOT DISTINGUISHABLE" in out and "-> DISTINGUISHABLE" in out


def test_analyze_simulate_from_base_field_twins_an_extension_field_key(capsys):
    # a base-field key's twin gets an extension-field scrambler and the
    # default s_ext back
    assert run("analyze", "--preset", "desk-12", "--mode", "base_field", "--simulate",
               "--trials", "2", "--seed", "5") == 0
    lines = capsys.readouterr().out.splitlines()
    assert ("  base_field      u=5 observed ranks [11 11] full 12 base-field ceiling 11"
            " -> DISTINGUISHABLE") in lines
    assert ("  extension_field u=5 observed ranks [12 12] full 12 base-field ceiling 11"
            " -> NOT DISTINGUISHABLE") in lines


def test_analyze_simulate_refuses_depth_before_keygen(monkeypatch, capsys):
    # neither a simulation key nor the key that analyze measures is drawn
    def no_keygen(*args):
        raise AssertionError("a key was drawn before the depth was checked")

    monkeypatch.setattr(attacks, "keygen", no_keygen)
    monkeypatch.setattr(cli, "keygen", no_keygen)
    assert run("analyze", "--preset", "desk-12", "--simulate", "--u", "99") == 2
    captured = capsys.readouterr()
    assert captured.err == "bad parameters: stack depth u must lie in [1, 11]\n"
    assert captured.out == ""
    assert run("analyze", "--preset", "desk-12", "--simulate", "--trials", "0") == 2
    assert capsys.readouterr().err == "bad parameters: need at least one trial\n"


@pytest.mark.parametrize("u", ["0", "12"])
def test_analyze_refuses_a_depth_before_printing(u, capsys):
    # without --simulate the measured key is drawn, but nothing prints
    assert run("analyze", "--table", "--preset", "desk-12", "--u", u) == 2
    captured = capsys.readouterr()
    assert captured.err == "bad parameters: stack depth u must lie in [1, 11]\n"
    assert captured.out == ""


def test_analyze_simulate_refuses_no_trials_before_printing(capsys):
    assert run("analyze", "--preset", "desk-12", "--table", "--simulate", "--trials", "0") == 2
    captured = capsys.readouterr()
    assert captured.err == "bad parameters: need at least one trial\n"
    assert captured.out == ""


def test_analyze_without_work_is_an_error(capsys):
    assert run("analyze") == 2


def sweep_flags(params):
    """The command-line flags that give params back."""
    argv = []
    for flag, key, _, _ in cli._PARAM_FLAGS:
        value = getattr(params, key)
        if value is not None:
            argv += [f"--{flag}", str(getattr(value, "value", value))]
    return argv


def assert_analyze_prints_what_attack_prints(monkeypatch, capsys, params, *depth):
    """analyze's output on params is attack's on the seed-0 key of params."""
    pub, _ = keygen(params, random.Random(0))
    monkeypatch.setattr(cli, "load_public_key", lambda path: pub)
    assert run("attack", "--pub", "seeded.key", *depth) == 0
    attack = capsys.readouterr().out
    assert run("analyze", *sweep_flags(params), *depth) == 0
    assert capsys.readouterr().out == attack, params


def test_analyze_prints_what_attack_prints_for_a_seeded_key(monkeypatch, capsys):
    for params in dict.fromkeys(accepted_sweep_params()):
        assert_analyze_prints_what_attack_prints(monkeypatch, capsys, params)


@pytest.mark.parametrize("name", ["desk-12", "paper-28"])
def test_analyze_reports_at_the_depth_it_is_given(name, monkeypatch, capsys):
    params = preset(name)
    assert_analyze_prints_what_attack_prints(monkeypatch, capsys, params, "--u", "2")
    # --simulate's trials run at the report's depth
    assert run("analyze", "--preset", name, "--u", "2", "--simulate", "--trials", "1",
               "--seed", "0") == 0
    lines = capsys.readouterr().out.splitlines()
    assert "extended-rank distinguisher (u=2):" in lines
    assert all(" u=2 observed ranks " in line for line in lines[-2:])


def test_attack_reports_verdict(tmp_path, capsys):
    pub, priv = tmp_path / "p", tmp_path / "s"
    run("keygen", "--preset", "desk-12", "--mode", "base_field",
        "--pub", str(pub), "--priv", str(priv), "--seed", "13")
    capsys.readouterr()
    assert run("attack", "--pub", str(pub)) == 0
    out = capsys.readouterr().out
    assert "verdict: DISTINGUISHABLE" in out
    assert "status: insecure" in out


def test_attack_hardened_key_not_distinguishable(tmp_path, capsys):
    pub, priv = tmp_path / "p", tmp_path / "s"
    run("keygen", "--preset", "desk-12", "--pub", str(pub), "--priv", str(priv),
        "--seed", "14")
    capsys.readouterr()
    assert run("attack", "--pub", str(pub)) == 0
    out = capsys.readouterr().out
    assert "verdict: NOT DISTINGUISHABLE" in out


# -- exit codes ------------------------------------------------


def test_exit_code_bad_parameters(tmp_path):
    assert run("keygen", "--preset", "desk-12", "--t1", "9",
               "--pub", str(tmp_path / "p"), "--priv", str(tmp_path / "s")) == 2
    assert run("keygen", "--n", "12", "--k", "6", "--t1", "2",
               "--pub", str(tmp_path / "p"), "--priv", str(tmp_path / "s")) == 2


def test_field_too_wide_for_a_word_is_bad_parameters(tmp_path, capsys):
    # analyze must refuse the field that keygen refuses, not call it secure
    flags = ("--q", "2", "--bigN", "70", "--n", "70", "--k", "40", "--t1", "2")
    assert run("analyze", *flags) == 2
    assert run("keygen", *flags, "--pub", str(tmp_path / "p"), "--priv", str(tmp_path / "s")) == 2
    captured = capsys.readouterr()
    assert "status:" not in captured.out
    assert captured.err.count("does not fit in 64 bits") == 2


def test_huge_q_is_refused_before_the_primality_test():
    # trial division up to sqrt(q) would not finish for a 100-bit q
    proc = run_process("analyze", "--q", "1000000000000000000000000000057", "--bigN", "4",
                       "--n", "4", "--k", "2", "--t1", "1", timeout=30)
    assert proc.returncode == 2
    assert "does not fit" in proc.stderr


def test_exit_code_bad_usage():
    assert run("keygen", "--format", "yaml") == 2
    assert run("no-such-command") == 2


def test_help_exits_0(capsys):
    assert run("--help") == 0
    assert capsys.readouterr().out.startswith("usage: ")


def test_exit_code_decode_failure(tmp_path):
    pub, priv = tmp_path / "p", tmp_path / "s"
    msg, ct = tmp_path / "m", tmp_path / "c"
    msg.write_bytes(b"soon to be garbled beyond saving")
    run("keygen", "--preset", "desk-12", "--pub", str(pub), "--priv", str(priv), "--seed", "15")
    run("encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct), "--seed", "16")
    bundle = load_ciphertext(ct)
    rng = random.Random(0)
    bundle.blocks = [
        [rng.randrange(1 << 12) for _ in range(bundle.block_len)] for _ in bundle.blocks
    ]
    save_ciphertext(ct, bundle, "bin")
    assert run("decrypt", "--priv", str(priv), "--in", str(ct), "--out", str(tmp_path / "o")) == 3


def test_exit_code_format_errors(tmp_path):
    pub, priv = tmp_path / "p", tmp_path / "s"
    run("keygen", "--preset", "desk-12", "--pub", str(pub), "--priv", str(priv), "--seed", "17")
    data = bytearray(pub.read_bytes())
    data[len(data) // 2] ^= 0xFF
    bad = tmp_path / "bad"
    bad.write_bytes(bytes(data))
    assert run("attack", "--pub", str(bad)) == 4
    # wrong kind
    assert run("attack", "--pub", str(priv)) == 4
    # missing file
    assert run("attack", "--pub", str(tmp_path / "absent")) == 4


def test_ciphertext_key_mismatch_is_format_error(tmp_path):
    p1, s1 = tmp_path / "p1", tmp_path / "s1"
    p2, s2 = tmp_path / "p2", tmp_path / "s2"
    msg, ct = tmp_path / "m", tmp_path / "c"
    msg.write_bytes(b"wrong lock")
    run("keygen", "--preset", "desk-12", "--pub", str(p1), "--priv", str(s1), "--seed", "18")
    run("keygen", "--q", "2", "--bigN", "14", "--n", "14", "--k", "6", "--t1", "2",
        "--sext", "1", "--pub", str(p2), "--priv", str(s2), "--seed", "19")
    run("encrypt", "--pub", str(p1), "--in", str(msg), "--out", str(ct), "--seed", "20")
    assert run("decrypt", "--priv", str(s2), "--in", str(ct), "--out", str(tmp_path / "o")) == 4


def test_ciphertext_block_length_must_match_the_key(tmp_path, capsys):
    # a variant-4 key over the desk-12 field has 12 + t1 = 14 public columns
    p1, s1 = tmp_path / "p1", tmp_path / "s1"
    p2, s2 = tmp_path / "p2", tmp_path / "s2"
    msg, ct = tmp_path / "m", tmp_path / "c"
    msg.write_bytes(b"fourteen wide")
    run("keygen", "--preset", "desk-12", "--pub", str(p1), "--priv", str(s1), "--seed", "27")
    run("keygen", "--variant", "4", "--bigN", "12", "--n", "12", "--k", "6", "--t1", "2",
        "--t2", "1", "--pub", str(p2), "--priv", str(s2), "--seed", "28")
    run("encrypt", "--pub", str(p2), "--in", str(msg), "--out", str(ct), "--seed", "29")
    assert load_ciphertext(ct).block_len == 14
    capsys.readouterr()
    assert run("decrypt", "--priv", str(s1), "--in", str(ct), "--out", str(tmp_path / "o")) == 4
    assert "block length does not match" in capsys.readouterr().err


def test_declared_message_length_beyond_the_data_is_format_error(tmp_path, capsys):
    pub, priv = tmp_path / "p", tmp_path / "s"
    msg, ct = tmp_path / "m", tmp_path / "c"
    msg.write_bytes(b"short")
    run("keygen", "--preset", "desk-12", "--pub", str(pub), "--priv", str(priv), "--seed", "30")
    run("encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct),
        "--format", "json", "--seed", "31")
    rechecksum_json(ct, lambda d: d.update(msg_len=d["msg_len"] + 1000))
    capsys.readouterr()
    assert run("decrypt", "--priv", str(priv), "--in", str(ct), "--out", str(tmp_path / "o")) == 4
    assert "declared message length exceeds" in capsys.readouterr().err


def test_ciphertext_with_a_respelled_modulus_decrypts(tmp_path):
    # coefficients 3 and 2 name the same field over F_2 as 1 and 0
    pub, priv = tmp_path / "p", tmp_path / "s"
    msg, ct, out = tmp_path / "m", tmp_path / "c", tmp_path / "o"
    msg.write_bytes(b"same field, other spelling")
    run("keygen", "--preset", "desk-12", "--pub", str(pub), "--priv", str(priv), "--seed", "25")
    run("encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct),
        "--format", "json", "--seed", "26")
    rechecksum_json(ct, lambda d: d.update(modulus=[c + 2 for c in d["modulus"]]))
    assert run("decrypt", "--priv", str(priv), "--in", str(ct), "--out", str(out)) == 0
    assert out.read_bytes() == msg.read_bytes()


def golden_json_with_params(**changes):
    """A writer of the golden desk-12 json public key with changed, re-checksummed params."""

    def write(path):
        path.write_bytes((GOLDEN / "desk12.public.json").read_bytes())
        rechecksum_json(path, lambda d: d["params"].update(changes))

    return write


MALFORMED_PUBLIC_KEYS = {
    "string-q": golden_json_with_params(q="2"),
    "truncated-bin": lambda path: path.write_bytes(
        (GOLDEN / "desk12.public.bin").read_bytes()[:100]
    ),
    "deeply-nested-json": lambda path: path.write_text(
        '{"a": ' + "[" * 200000 + "]" * 200000 + "}"
    ),
    # x^12 + x^9 + 1 is irreducible over F_2 but not desk-12's x^12 + x^3 + 1
    "other-modulus": golden_json_with_params(modulus=[1] + [0] * 8 + [1, 0, 0, 1]),
}


@pytest.mark.parametrize("write", MALFORMED_PUBLIC_KEYS.values(), ids=MALFORMED_PUBLIC_KEYS)
def test_malformed_public_key_exits_4_without_traceback(write, tmp_path):
    pub = tmp_path / "p"
    write(pub)
    proc = run_process("attack", "--pub", str(pub))
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr


def test_malformed_ciphertext_exits_4_without_traceback(tmp_path):
    pub, priv = tmp_path / "p", tmp_path / "s"
    msg, ct = tmp_path / "m", tmp_path / "c"
    msg.write_bytes(b"blocks of ints")
    run("keygen", "--preset", "desk-12", "--pub", str(pub), "--priv", str(priv), "--seed", "22")
    run("encrypt", "--pub", str(pub), "--in", str(msg), "--out", str(ct),
        "--format", "json", "--seed", "23")
    rechecksum_json(ct, lambda d: d.update(blocks=[[1, 2, 3] for _ in d["blocks"]]))
    proc = run_process("decrypt", "--priv", str(priv), "--in", str(ct),
                       "--out", str(tmp_path / "o"))
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr


def test_unknown_scrambler_mode_exits_2_without_traceback(tmp_path):
    pub, priv = tmp_path / "p", tmp_path / "s"
    proc = run_process("keygen", "--preset", "desk-12", "--mode", "extension",
                       "--pub", str(pub), "--priv", str(priv), "--seed", "24")
    assert proc.returncode == 2
    assert "unknown scrambler mode 'extension'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not pub.exists() and not priv.exists()


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_0_quietly(buffered):
    # the read end closes before the command writes a byte, so every write to
    # stdout fails: at the flush in main when buffered, at the first print when not
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=path, **({} if buffered else {"PYTHONUNBUFFERED": "1"}))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gptrank.cli", "analyze", "--table", "--preset", "desk-12"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert "Exception ignored" not in proc.stderr and "file error" not in proc.stderr
    assert proc.stderr == ""
