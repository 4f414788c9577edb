"""The command table's parser against the argparse parser it replaced.

`build_parser` below is the argparse definition of the `rht` commands as it
stood in `redundancy_ht.cli`, kept verbatim as the reference: for any argv
both must exit alike (0 for `-h` and `--version`, 2 for a usage error, with
the same one-line message) or both accept with the same flag values.
"""
import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redundancy_ht import __version__, cli
from redundancy_ht.cli import (cmd_analyze, cmd_laplace, cmd_limit_law, cmd_moments, cmd_pgf,
                               cmd_sample, cmd_simulate, cmd_verify, cmd_verify_limit)
from redundancy_ht.model import MODEL_FORMAT_VERSION


class _Parser(argparse.ArgumentParser):
    """Usage errors in one stderr line and exit 2; the subcommand parsers share the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rht", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"rht {__version__} (model format {MODEL_FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--out-dir", default=None, help="write artifacts here instead of stdout")

    def seeded(p):
        p.add_argument("--seed", default=None)  # read by _seed

    def backend(p):
        p.add_argument("--backend", choices=("exact", "float"), default="exact")

    p = sub.add_parser("analyze", help="criticality report, components, DAG")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("pgf", help="evaluate the exact pre-limit PGF at a point")
    common(p)
    backend(p)
    p.add_argument("--z", required=True, help="comma-separated z per type")
    p.add_argument("--discipline", choices=("coc", "cos"), default="coc")
    p.set_defaults(fn=cmd_pgf)

    p = sub.add_parser("laplace", help="limiting Laplace transform (product and mixture forms)")
    common(p)
    backend(p)
    p.add_argument("--t", default=None, help="comma-separated t per type")
    p.add_argument("--t-grid", default="0:4:17", help="lo:hi:steps for a diagonal grid CSV")
    p.add_argument("--cos", action="store_true", help="also evaluate the c.o.s. general form")
    p.set_defaults(fn=cmd_laplace)

    p = sub.add_parser("limit-law", help="K-exponential coefficient matrix and sigma mixture")
    common(p)
    p.set_defaults(fn=cmd_limit_law)

    p = sub.add_parser("moments", help="pre-limit or limiting moments")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", default="total", help="total or type:<index>")
    p.add_argument("--discipline", choices=("coc", "cos"), default="coc")
    p.add_argument("--limit", action="store_true")
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("sample", help="exact stationary samples of the queue vector")
    common(p)
    seeded(p)
    p.add_argument("--discipline", choices=("coc", "cos"), default="coc")
    p.add_argument("--n", type=int, default=1000)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("simulate", help="event-driven simulation")
    common(p)
    seeded(p)
    p.add_argument("--discipline", choices=("coc", "cos"), default="coc")
    p.add_argument("--events", type=int, default=100_000)
    p.add_argument("--warmup", type=int, default=None)
    p.add_argument("--sample-every", type=int, default=100)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify-limit", help="simulation vs limit law over an epsilon grid")
    common(p)
    seeded(p)
    p.add_argument("--discipline", choices=("coc", "cos"), default="coc")
    p.add_argument("--eps", default="0.1,0.05,0.02")
    p.add_argument("--events", type=int, default=200_000)
    p.add_argument("--scatter", action="store_true")
    p.set_defaults(fn=cmd_verify_limit)

    p = sub.add_parser("verify", help="run the acceptance battery")
    p.add_argument("--only", default=None, help="comma-separated criterion names")
    p.set_defaults(fn=cmd_verify)
    return parser


def _outcome(parse, argv):
    """("ok", the parsed fields) or ("exit", code, the stderr text) of one parse."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return "ok", vars(parse(list(argv)))
        except SystemExit as exc:
            return "exit", exc.code, err.getvalue()


def _reference(argv):
    fields = dict(vars(build_parser().parse_args(argv)))
    assert fields.pop("fn") is cli.COMMANDS[fields["command"]][0]
    return argparse.Namespace(**fields)


def _agree(argv):
    ref, new = _outcome(_reference, argv), _outcome(cli.parse_args, argv)
    assert new == ref, argv
    if new[0] == "exit" and new[1] == 2:
        assert new[2].startswith("error: ") and new[2].count("\n") == 1, new


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["--he"], ["--version"], ["--vers"], ["--version=1"],
    ["--bogus"], ["--bogus", "analyze", "--model", "m"], ["--bogus", "analyze", "-h"],
    ["bogus"], [""], ["-5"], ["-5", "-h"], ["--", "analyze", "--model", "m"],
    ["analyze"], ["analyze", "-h"], ["analyze", "--model", "m", "--version"],
    ["analyze", "--model=m"], ["analyze", "--mod", "m"], ["analyze", "--m=m", "--o", "d"],
    ["analyze", "--model", "m", "extra"], ["analyze", "--model", "m", "--"],
    ["analyze", "--model", "--", "m"], ["analyze", "--model", "-"], ["analyze", "--model="],
    ["analyze", "--model", "m", "--model", "n"], ["analyze", "--model"],
    ["analyze", "--model", "-h"], ["analyze", "--help=x", "--model", "m"],
    ["analyze", "--=x"], ["analyze", "-h", "--=x"],
    ["pgf", "--model", "m", "--z", "-1,2"], ["pgf", "--model", "m", "--z=-1,2"],
    ["pgf", "--model", "m", "--z", "-1/2"], ["pgf", "--model", "m", "--z", "-5"],
    ["pgf", "--model", "m", "--z", "a b"], ["pgf", "--model", "m", "--z", "-x y"],
    ["pgf", "--model", "m"], ["pgf"], ["pgf", "--model", "m", "--z", "1", "--b", "float"],
    ["pgf", "--model", "m", "--z", "1", "--backend", "fast"],
    ["pgf", "--model", "m", "--z", "1", "--discipline=cos", "--seed", "1"],
    ["laplace", "--model", "m", "--t", "1"], ["laplace", "--model", "m", "--t-", "1:2:3"],
    ["laplace", "--model", "m", "--cos"], ["laplace", "--model", "m", "--cos=1"],
    ["laplace", "--model", "m", "--c", "--cos"],
    ["moments", "--model", "m", "--n", "-5"], ["moments", "--model", "m", "--n", " 7"],
    ["moments", "--model", "m", "--n", "1_000"], ["moments", "--model", "m", "--n", "1e5"],
    ["moments", "--model", "m", "--n", "2", "--l", "--tar=type:0"],
    ["moments", "--model", "m", "--n", "2", "--target", "-x"],
    ["moments", "--model", "m", "--n", "2", "--prelimit"],
    ["sample", "--model", "m", "--s", "3", "--n", "abc", "-h"],
    ["sample", "--model", "m", "-h", "--n", "abc"],
    ["simulate", "--model", "m", "--s", "3"], ["simulate", "--model", "m", "--sa", "3"],
    ["simulate", "-h", "--s", "3"], ["simulate", "--model", "m", "--warmup", "-1"],
    ["verify-limit", "--model", "m", "--e", "1"], ["verify-limit", "--model", "m", "--eps", "-.5"],
    ["verify-limit", "--model", "m", "--eps", "-1e-9"], ["verify-limit", "--model", "m", "--sc"],
    ["verify"], ["verify", "--only", "a,b"], ["verify", "--o=a", "--model", "m"],
], ids=repr)
def test_parser_agrees_with_argparse_on_each_feature(argv):
    _agree(argv)


_TOP_LEVEL = ["-h", "--help", "--he", "--version", "--vers", "--version=1", "--bogus", "-x", "--"]
_FLAG_NAMES = sorted({name for _, _, flags in cli.COMMANDS.values() for name in flags})
_INTS = ["0", "1", "7", "250", "-5", "+3", " 7", "1_000", "abc", "1.5", "1e5", ""]
_STRINGS = ["m.json", "1/2,1/3", "0:4:17", "total", "type:0", "-5", "-.5", "-1,2", "-1e-9",
            "a b", "-x y", "-", "", "x=y", "-h", "--model"]
_NOISE = ["-h", "--help", "--he", "--bogus", "-x", "--", "--s", "--e", "--version", "extra",
          "-5", "-1,2"]


def _values(flag):
    if flag is None or flag.kind is str:
        return st.sampled_from(_STRINGS)
    if flag.kind is int:
        return st.sampled_from(_INTS)
    return st.sampled_from([*flag.kind, *flag.kind, "fifo", ""])


@st.composite
def _spelled(draw, name, flag):
    """One flag as argv words: its name or a prefix of it, then its value
    after `=` or as the next word. A switch sometimes carries an `=` value,
    which argparse rejects; an `=` value is never `--`, which argparse 3.11
    reads as an empty list."""
    written = draw(st.sampled_from([name, name[:draw(st.integers(3, len(name)))]]))
    if flag is not None and flag.kind is bool:
        return [written] if draw(st.integers(0, 5)) else [f"{written}=1"]
    value = draw(_values(flag))
    return [f"{written}={value}"] if draw(st.booleans()) else [written, value]


@st.composite
def _argvs(draw):
    lead = draw(st.lists(st.sampled_from(_TOP_LEVEL), max_size=1)) if draw(
        st.integers(0, 7)) == 0 else []
    command = draw(st.sampled_from([*cli.COMMANDS] * 4 + ["bogus", "", "ana", None]))
    if command is None:
        return lead
    flags = cli.COMMANDS.get(command, (None, None, {}))[2]
    names = [n for n, f in flags.items() if f.required and draw(st.integers(0, 9))]
    names += draw(st.lists(st.sampled_from(list(flags) or _FLAG_NAMES), max_size=4))
    groups = [draw(_spelled(n, flags.get(n))) for n in names]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # foreign flags, bare words, bad prefixes
        noise = draw(st.sampled_from(_NOISE + _FLAG_NAMES))
        word = [noise] if noise in _NOISE or draw(st.booleans()) else \
            draw(_spelled(noise, flags.get(noise)))
        groups.insert(draw(st.integers(0, len(groups))), word)
    return lead + [command] + [w for g in draw(st.permutations(groups)) for w in g]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=_argvs())
def test_parser_agrees_with_argparse(argv):
    _agree(argv)


def test_help_lists_every_command_and_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command, (_, text, flags) in cli.COMMANDS.items():
        assert f"  {command} " in out and text in out
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        out_command = capsys.readouterr().out
        assert out_command.startswith(f"usage: rht {command} ")
        for name, flag in flags.items():
            assert f"  {name}" in out_command and flag.help in out_command


def test_double_dash_after_equals_is_a_value(capsys):
    # argparse 3.11 read `--flag=--` as an empty list, so `sample --n=--` crashed
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(["sample", "--model", "m", "--n=--"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: argument --n: invalid int value: '--'\n"
    assert cli.parse_args(["analyze", "--model=--"]).model == "--"
