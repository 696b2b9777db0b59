"""Every value the command line accepts at the edge of its range either works
or is refused in one line.

A property draws a subcommand from the parser (all but ``selftest``, which
takes no value of a problem), then one or two of its value flags (all but
``--out``, which writes a file, and ``--config``, which reads one), and for
each a value from an edge alphabet: 0 and 1 and their neighbours, float64's
ends and past them, int64's ends and past them, text that reads as no number,
and the empty string; the flag's choices; for a text flag the grid and comma
list forms; for ``--gamma`` its specs, ``constant:C`` down to 1e-300; for
``--tol`` values in [0, 1]; for ``--block`` and ``--onset-max`` the blocks
from 50 to 1100, where the geometric family's gaps round away.  ``main``
runs in-process with RuntimeWarning raised as an error, and must exit 0 or
1 with at most one line on stderr; no other exception may escape.
"""

import contextlib
import io
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from mrlab import cli

EDGES = ["0", "-1", "1", "1.001", "200", "1000", "1e308", "5e-324", "1e400", "x", "", "nan",
         "inf", str(2 ** 63 - 1), str(2 ** 63), str(2 ** 64), str(-(2 ** 63) - 1)]
GAMMAS = ["lacunary", "power:0.25", "power:0.45", "powerlog:0.1", "powerlog:0.5", "constant:0.1",
          "constant:0.001", "constant:1e-13", "constant:1e-17", "constant:0.5", "geometric"]
GRIDS = ["pow2:-10:10", "pow2:-1074:1023", "pow2:3:2", "pow2:0:1024", "geom:0.01:10:50",
         "geom:1e-300:1e300:7", "geom:-1:1:3", "geom:0:1:3", "geom:1:1e6:0", "0.01,0.1,1",
         "-1,2", "1,nan", "inf,1", "5e-324,1e308", "100,1000,10000", "7", "1,,2"]
PARSER = cli._build_parser("0")
SUBCOMMANDS = sorted(set(PARSER._mrlab_subparsers) - {"selftest"})


def value_flags(command):
    """The subcommand's own value flags, then the shared --seed, --format and --jobs."""
    actions = [a for a in PARSER._mrlab_subparsers[command]._actions
               if a.option_strings and a.nargs != 0 and a.dest not in ("out", "config")]
    return sorted(actions, key=lambda a: a.dest in ("seed", "format", "jobs"))


def flag_values(action):
    own = [st.sampled_from(EDGES)]
    if action.choices:
        own.append(st.sampled_from(action.choices))
    if action.type is None:
        own.append(st.sampled_from(GRIDS))
    if action.dest == "gamma":
        own += [st.sampled_from(GAMMAS), st.integers(-300, -12).map("constant:1e{}".format)]
    if action.dest == "tol":
        own.append(st.floats(0.0, 1.0).map(repr))
    if action.dest in ("block", "onset_max"):
        own.append(st.integers(50, 1100).map(str))
    return st.one_of(own)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(SUBCOMMANDS))
    actions = draw(st.lists(st.sampled_from(value_flags(command)), min_size=1, max_size=2,
                            unique_by=lambda a: a.dest))
    argv = [command]
    for action in actions:
        flag, value = action.option_strings[0], draw(flag_values(action))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


def run(argv):
    """main's exit code and stderr for one argv, stdout discarded."""
    err = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # a usage error
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(argvs())
def test_edge_values_work_or_are_refused_in_one_line(argv):
    code, err = run(argv)
    assert code in (0, 1) and len(err.splitlines()) <= 1, (argv, code, err)
