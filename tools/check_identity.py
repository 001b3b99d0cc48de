"""Check that two revisions write the same bytes, each from a clean copy.

    python3 tools/check_identity.py b5afbc8 WORKTREE --scratch /tmp/identity

Extracts a ``git archive`` copy of each revision as ``tools/bench_pairs.py``
does (``WORKTREE`` stands for the tracked files of the working tree, staged
new files included) and runs in each copy, with its own ``src/``:

* ``simulate`` of every ``configs/*.cfg`` at each resolution of its
  ``[grid]`` section, at seeds 11 and 42 and ``--workers`` 1 and 2;
* ``report`` of every map of the seed-11 runs on one worker;
* ``ingest --valid-mask`` of every ``data/*.csv``;
* ``linkbudget --csv`` of every ``configs/*.cfg``.

Every command of a copy runs through ``grayspace.cli.main`` in one
interpreter.  Then every file either side wrote is compared: the output
trio, the report tables, the ingest outputs and the link-budget tables byte
for byte, ``summary.txt`` and each command's stdout after the copy's and the
output directory's paths are replaced by placeholders, and each command's
exit code.  The tool
prints every file that differs or that one side lacks, every command whose
exit code or stdout differs, and the count of each exit code on both sides.
It exits 1 if anything differs, else 0.  It changes nothing in the
repository.
"""

from __future__ import annotations

import argparse
import collections
import configparser
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from bench_pairs import extract

SEEDS = (11, 42)
WORKERS = (1, 2)
_GRID_KEY = re.compile(r"path_(\d+(?:\.\d+)?)m")

#: Runs in a copy: reads ``[name, argv]`` pairs as JSON on stdin, runs each
#: through ``grayspace.cli.main`` and writes ``{name: [exit code, stdout]}``.
DRIVER = """
import contextlib, io, json, sys
from grayspace.cli import main
results = {}
for name, argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected an argument
            code = exc.code
    results[name] = [code, out.getvalue()]
json.dump(results, sys.stdout)
"""


def simulations(copy: Path, out: Path) -> dict[str, list[str]]:
    """``simulate`` argv by output name, for every config and grid resolution
    of ``copy`` at each seed and worker count; the name is also the output
    directory under ``out``."""
    commands = {}
    for config in sorted((copy / "configs").glob("*.cfg")):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(config, encoding="utf-8-sig")
        grid = parser["grid"] if parser.has_section("grid") else {}
        for res in [m[1] for key in grid if (m := _GRID_KEY.fullmatch(key))] or [None]:
            at = [] if res is None else ["--resolution", res]
            for seed in SEEDS:
                for workers in WORKERS:
                    name = "simulate/" + "_".join(filter(None, (
                        config.stem, res and f"{res}m", f"seed{seed}", f"w{workers}")))
                    commands[name] = ["simulate", "--config", str(config), *at,
                                      "--seed", str(seed), "--workers", str(workers),
                                      "--out", str(out / name)]
    return commands


def ingests(copy: Path, out: Path) -> dict[str, list[str]]:
    """``ingest --valid-mask`` argv by output name, for every grid in ``copy/data``."""
    commands = {}
    for grid in sorted((copy / "data").glob("*.csv")):
        name = f"ingest/{grid.stem}"
        commands[name] = ["ingest", str(grid), "--out", str(out / name / "grid.csv"),
                          "--valid-mask", str(out / name / "mask.csv")]
    return commands


def linkbudgets(copy: Path, out: Path) -> dict[str, list[str]]:
    """``linkbudget --csv`` argv by output name, for every config of ``copy``."""
    commands = {}
    for config in sorted((copy / "configs").glob("*.cfg")):
        name = f"linkbudget/{config.stem}"
        commands[name] = ["linkbudget", "--config", str(config),
                          "--csv", str(out / name / "linkbudget.csv")]
    return commands


def reports(simulated: dict[str, list[str]], out: Path) -> dict[str, list[str]]:
    """``report`` argv by output name, for every map the seed-11 runs on one
    worker wrote, with the config and resolution of its run."""
    commands = {}
    for name, argv in simulated.items():
        if not name.endswith(f"_seed{SEEDS[0]}_w1"):
            continue
        config = argv[1 : argv.index("--seed")]  # --config, and --resolution if given
        for path in sorted((out / name).glob("*/map.csv")):
            report = f"report/{name.partition('/')[2]}/{path.parent.name}"
            commands[report] = ["report", *config, "--map", str(path),
                                "--out", str(out / report)]
    return commands


def run(copy: Path, commands: dict[str, list[str]]) -> dict[str, list]:
    """``{name: [exit code, stdout]}`` of ``commands`` run in ``copy``."""
    done = subprocess.run([sys.executable, "-c", DRIVER], cwd=copy, capture_output=True,
                          text=True, input=json.dumps(list(commands.items())),
                          env=dict(os.environ, PYTHONPATH=str(copy / "src")))
    if done.returncode:
        raise SystemExit(f"{copy}: the driver exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout)


def run_all(copy: Path, out: Path) -> dict[str, list]:
    """Every command's ``[exit code, stdout]`` in ``copy``, outputs under a fresh ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    simulated = simulations(copy, out)
    results = run(copy, simulated | ingests(copy, out) | linkbudgets(copy, out))
    return results | run(copy, reports(simulated, out))


def differences(sides: list[tuple[Path, Path, dict[str, list]]]) -> list[str]:
    """One line per file, exit code or stdout that differs between the
    ``(copy, out, results)`` of the base and of the head."""
    def text(side, data: bytes) -> bytes:
        copy, out, _ = side
        return data.replace(bytes(out), b"<out>").replace(bytes(copy), b"<checkout>")

    lines = []
    (_, base_out, base), (_, head_out, head) = sides
    files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
             for out in (base_out, head_out)]
    for rel in sorted(set(files[0]) | set(files[1])):
        if rel not in files[0] or rel not in files[1]:
            lines.append(f"only in {'head' if rel in files[1] else 'base'}: {rel}")
            continue
        data = [(out / rel).read_bytes() for out in (base_out, head_out)]
        if rel.name == "summary.txt":
            data = [text(side, d) for side, d in zip(sides, data)]
        if data[0] != data[1]:
            lines.append(f"differs: {rel}")
    for name in sorted(set(base) | set(head)):
        (code_a, out_a), (code_b, out_b) = (side.get(name, [None, ""]) for side in (base, head))
        if code_a != code_b:
            lines.append(f"exit code of {name}: {code_a} against {code_b}")
        elif text(sides[0], out_a.encode()) != text(sides[1], out_b.encode()):
            lines.append(f"stdout of {name} differs")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="revision to compare against")
    parser.add_argument("head", help="revision to compare, or WORKTREE")
    parser.add_argument("--scratch", required=True, type=Path,
                        help="directory for the copies and their outputs (made if missing)")
    args = parser.parse_args(argv)
    args.scratch.mkdir(parents=True, exist_ok=True)
    scratch = args.scratch.resolve()
    sides = []
    for side, rev in (("base", args.base), ("head", args.head)):
        copy = extract(rev, scratch)
        out = scratch / "outputs" / side
        print(f"{side} {rev} in {copy}", flush=True)
        sides.append((copy, out, run_all(copy, out)))
    for (_, _, results), side in zip(sides, ("base", "head")):
        codes = collections.Counter(code for code, _ in results.values())
        print(f"{side}: {len(results)} commands, exit codes "
              + ", ".join(f"{code}: {n}" for code, n in sorted(codes.items(), key=str)))
    lines = differences(sides) or ["identical"]
    print(*lines, sep="\n")
    return 0 if lines == ["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
