"""Command line front end: ``graphred <command> --config CFG [--seed N] [--out DIR] [--threads T]``.

:func:`main` parses the flags, sets each unset ``BLAS_THREAD_VARS`` entry to
``--threads`` (this module loads no numpy), and runs ``graphred.cmd_<command>``
(its key table ``KEYS``, its body ``run``): a process compiles only its
command's code.  ``python -m graphred.cli`` runs this file as ``__main__``, and
importing it would compile it again, so shared helpers live elsewhere; names
imported from here resolve on first use (PEP 562).
"""

import os
import sys

from .exceptions import ConfigError, GraphRedError, InvalidGraphError, NumericalError, ParseError, TrainingError

# The module that runs each command.
COMMANDS = {name: f"cmd_{name}" for name in ("generate", "tune", "denoise", "train", "check", "spectrum", "eval")}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
USAGE = f"usage: graphred {{{','.join(COMMANDS)}}} --config CFG [--seed N] [--out DIR] [--threads T]"
# Each flag's type and default (see README); --config has none, so it must be given.
FLAGS = {"--config": (str, None), "--seed": (int, None), "--out": (str, "out"), "--threads": (int, 1)}
# The module that defines each name importable from here.
_HOME = {"METHODS": "denoisers", "METHOD_PARAM_KEYS": "denoisers", "apply_method": "denoisers", "REQUIRED": "files",
         "DATASET_KIND_KEYS": "cmd_generate", "TRAIN_INIT_KEYS": "cmd_train", "SCREEN_MARGIN": "cmd_tune",
         "tune_method": "cmd_tune"}


def _module(name):
    # An import statement's path (importlib.import_module's is not logged by -X importtime).
    return __import__(f"{__package__}.{name}", fromlist=["__name__"])


def __getattr__(name):
    if name == "CONFIG_KEYS":  # every command's key table
        return {command: _module(COMMANDS[command]).KEYS for command in COMMANDS}
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_module(_HOME[name]), name)


def _resolve_config(command, cfg: dict, seed=None) -> dict:
    """``cfg`` read against ``command``'s keys; ``seed`` (the ``--seed`` flag) overrides a config seed."""
    module = _module(COMMANDS[command])
    if hasattr(module, "resolve"):  # a command whose keys depend on each other
        return module.resolve(cfg, seed)
    from .files import parse
    return parse(module.KEYS, cfg, f"{command} config", seed)


def parse_args(argv: list) -> tuple:
    """``(command, {flag: value})`` of ``argv``; exits 0 after ``-h`` prints the usage, 2 on a bad line."""
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        sys.exit(0)
    values, words = {flag: default for flag, (_, default) in FLAGS.items()}, iter(argv[1:])
    try:
        if not argv or argv[0] not in COMMANDS:
            raise ValueError(f"the first argument must be a command, one of {', '.join(COMMANDS)}")
        for word in words:
            flag, given, value = word.partition("=")  # --flag value, or --flag=value
            if flag not in FLAGS:
                raise ValueError(f"unrecognized argument {word!r}")
            if not given and (value := next(words, None)) is None:
                raise ValueError(f"{flag} needs a value")
            values[flag] = FLAGS[flag][0](value)
        if values["--config"] is None:
            raise ValueError("the --config flag is required")
    except ValueError as exc:
        print(f"{USAGE}\ngraphred: error: {exc}", file=sys.stderr)
        sys.exit(2)
    return argv[0], values


def main(argv=None) -> int:
    command, args = parse_args(sys.argv[1:] if argv is None else list(argv))
    threads = max(1, args["--threads"])
    for var in BLAS_THREAD_VARS:  # before numpy loads; a variable already set stands
        os.environ.setdefault(var, str(threads))
    try:
        from .files import read_config  # loads numpy, so after the variables are set
        cfg = read_config(args["--config"])
        os.makedirs(args["--out"], exist_ok=True)
        _module(COMMANDS[command]).run(_resolve_config(command, cfg, args["--seed"]), args["--out"], threads)
        return 0
    except (NumericalError, TrainingError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ParseError, InvalidGraphError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except GraphRedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
