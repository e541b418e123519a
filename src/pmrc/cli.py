"""File-level command line front end.

Commands: encode, damage, repair, reconstruct, info, simulate. Exit codes:
0 success, 2 bad arguments, 3 infeasible request, 4 decode failure,
5 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import os
import re
import sys

import numpy as np

from . import shards, simulator
from .errors import (
    ConstructionError,
    DecodeFailure,
    InfeasibleError,
    ParameterError,
    PmrcError,
)
from .field import Fq, default_modulus
from .params import (
    SystemParams,
    budget_extra,
    build_encoding,
    capacity_bound,
    code_params,
    feasible_pairs,
)
from .shards import ShardHeader, shard_filename

EXIT_OK = 0
EXIT_BAD_ARGS = 2
EXIT_INFEASIBLE = 3
EXIT_DECODE = 4
EXIT_IO = 5


def _pick_field(args, n: int) -> Fq:
    """The field of --q, checked as every field is and at least the default
    for n; the default field without it."""
    auto = default_modulus(n)
    field = Fq(auto if args.q is None else args.q)
    if field.q < auto:
        raise ParameterError(f"q must be >= {auto} for this n (bytes need q >= 257)")
    return field


def _node_list(text: str) -> list[int]:
    if not text:
        return []
    try:
        ids = [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise ParameterError(f"bad node list {text!r}; expected e.g. 2,5")
    if len(set(ids)) != len(ids):
        raise ParameterError(f"node list {text!r} repeats a node id")
    return ids


def cmd_encode(args) -> int:
    params = code_params(args.mode, args.k, args.n, args.d, args.beta)
    field = _pick_field(args, params.n)
    # a shard this encode would not overwrite could outvote the new set later
    names = sorted(os.listdir(args.out_dir)) if os.path.isdir(args.out_dir) else []
    stale = [f for f in names if re.fullmatch(r"node[0-9]+\.shard", f)
             and int(f[4:-6]) > params.n and f == shard_filename(int(f[4:-6]))]
    if stale:
        raise ParameterError(f"{args.out_dir} holds shards an n={params.n} encode "
                             f"would not overwrite: {', '.join(stale)}")
    enc = build_encoding(params, field)
    with open(args.input, "rb") as fp:
        data = fp.read()
    blocks = shards.bytes_to_blocks(data, params.message_symbols)
    bodies = shards.encode_blocks(blocks, enc)
    os.makedirs(args.out_dir, exist_ok=True)
    for node_id, body in bodies.items():
        header = ShardHeader(enc, node_id, blocks.shape[0], len(data))
        path = os.path.join(args.out_dir, shard_filename(node_id))
        # delete the old shard (a link's target): a rename onto a free name costs least
        if os.path.isfile(path):
            os.remove(os.path.realpath(path) if os.path.islink(path) else path)
        shards.write_shard(path, header, body)
    print(
        f"encoded {len(data)} bytes into {params.n} shards "
        f"({blocks.shape[0]} blocks, mode={params.mode.value}, q={field.q})"
    )
    return EXIT_OK


def cmd_damage(args) -> int:
    erase = _node_list(args.erase)
    corrupt = _node_list(args.corrupt)
    if set(erase) & set(corrupt):
        raise ParameterError("a node cannot be both erased and corrupted")
    header, bodies = shards.load_shard_set(args.dir)
    for node in erase + corrupt:
        if node not in bodies:
            raise ParameterError(f"no shard for node {node} in {args.dir}")
    for node in erase:
        os.remove(os.path.join(args.dir, shard_filename(node)))
        print(f"erased shard of node {node}")
    rng = np.random.default_rng(args.seed)
    for node in corrupt:
        shape = (header.block_count, header.enc.params.alpha)
        fake = rng.integers(0, header.enc.field.q, size=shape, dtype=np.int64)
        shards.write_shard(
            os.path.join(args.dir, shard_filename(node)),
            dataclasses.replace(header, node_id=node),
            fake,
        )
        print(f"corrupted shard of node {node}")
    if not erase and not corrupt:
        print("nothing to damage")
    return EXIT_OK


def _check_writable(path, make_dirs: bool = False) -> None:
    """Raise the OSError that writing the file ``path`` would raise, before
    any work is done: its directory (with ``make_dirs``, its nearest existing
    ancestor, as `os.makedirs` would find it) must exist and be writable, for
    `shards.replacing` renames into it, and an existing ``path`` writable."""
    folder = os.path.dirname(path) or "."
    while make_dirs and not os.path.lexists(folder):
        folder = os.path.dirname(folder) or "."
    if not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    # a path written in place needs no folder, a file renamed into it does
    need = [path] if shards.written_in_place(path) else [folder, path]
    if not all(os.access(p, os.W_OK) for p in need if os.path.exists(p)):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def cmd_repair(args) -> int:
    out_dir = args.out_dir or args.dir
    path = os.path.join(out_dir, shard_filename(args.node))
    _check_writable(path, make_dirs=True)
    header, bodies = shards.load_shard_set(args.dir)
    body, info = shards.repair_blocks(bodies, args.node, header.enc, args.s, args.t)
    os.makedirs(out_dir, exist_ok=True)
    shards.write_shard(path, dataclasses.replace(header, node_id=args.node), body)
    print(
        f"repaired node {args.node} from {info['connectivity']} helpers "
        f"({info['downloaded']} symbols downloaded)"
    )
    return EXIT_OK


def _summary_stream(output):
    """stdout, unless ``output`` was written in place (`shards.written_in_place`),
    where the summary would follow the data."""
    return sys.stderr if shards.written_in_place(output) else sys.stdout


def cmd_reconstruct(args) -> int:
    _check_writable(args.output)
    for name in shards.shard_files(args.dir) if os.path.exists(args.output) else []:
        with contextlib.suppress(OSError):  # a dangling link among the shards
            if os.path.samefile(args.output, os.path.join(args.dir, name)):
                raise ParameterError(f"output {args.output} is shard {name} of its input")
    header, bodies = shards.load_shard_set(args.dir)
    blocks, info = shards.reconstruct_blocks(bodies, header.enc, args.s, args.t)
    data = shards.blocks_to_bytes(blocks, header.data_len)
    with shards.replacing(args.output) as fp:
        fp.write(data)
    print(
        f"reconstructed {len(data)} bytes from {info['connectivity']} shards "
        f"({info['downloaded']} symbols downloaded)",
        file=_summary_stream(args.output),
    )
    return EXIT_OK


def _info_payload(params: SystemParams, q: int | None) -> dict:
    bound = capacity_bound(params.k, params.d, params.alpha, params.beta)
    return {
        "mode": params.mode.value,
        "n": params.n,
        "k": params.k,
        "d": params.d,
        "alpha": params.alpha,
        "beta": params.beta,
        "B": params.message_symbols,
        "q": q,
        "capacity_bound": bound,
        "optimal": params.message_symbols == bound,
        "feasible_budgets": [list(p) for p in feasible_pairs(params)],
    }


def _print_info(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
        return
    print(f"mode: {payload['mode']}")
    print(f"[n, k, d] = [{payload['n']}, {payload['k']}, {payload['d']}]")
    line = (
        f"alpha={payload['alpha']} beta={payload['beta']} B={payload['B']}"
    )
    if payload.get("q"):
        line += f" q={payload['q']}"
    print(line)
    met = "meets the bound exactly" if payload["optimal"] else "BELOW the bound"
    print(f"capacity bound: {payload['capacity_bound']} (B {met})")
    budgets = " ".join(f"({s},{t})" for s, t in payload["feasible_budgets"])
    print(f"feasible (s, t) budgets: {budgets}")
    print("repair connectivity Delta = d+s+2t; reconstruction kappa = k+s+2t")
    if payload.get("blocks") is not None:
        print("basis: " + ("systematic (nodes 1..k store the payload)"
                           if payload["systematic"] else "product-matrix (flags 0)"))
        print(f"shard set: {payload['blocks']} blocks, {payload['data_len']} bytes")


def cmd_info(args) -> int:
    if args.delta is not None or args.kappa is not None:
        # derive (k, d) and the bound from connectivity and budget
        if args.delta is None or args.kappa is None or args.alpha is None:
            raise ParameterError("connectivity mode needs --alpha, --delta, --kappa")
        extra = budget_extra(args.s, args.t)
        d, k = args.delta - extra, args.kappa - extra
        if k < 1 or d < k:
            raise ParameterError("budget leaves no usable connectivity (k<1 or d<k)")
        bound = capacity_bound(k, d, args.alpha, args.beta)
        payload = {
            "alpha": args.alpha,
            "beta": args.beta,
            "delta": args.delta,
            "kappa": args.kappa,
            "s": args.s,
            "t": args.t,
            "d": d,
            "k": k,
            "capacity_bound": bound,
        }
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(
                f"Delta={args.delta} kappa={args.kappa} with (s={args.s}, t={args.t})"
                f" -> d={d}, k={k}"
            )
            print(
                f"alpha={args.alpha} beta={args.beta}: capacity bound B <= {bound}"
            )
        return EXIT_OK
    if args.dir:
        header, bodies = shards.load_shard_set(args.dir)
        payload = _info_payload(header.enc.params, header.enc.field.q)
        payload["systematic"] = header.enc.systematic
        payload["blocks"] = header.block_count
        payload["data_len"] = header.data_len
        # a shard is present when its body reads cleanly, not just its header
        payload["shards_present"] = [i for i in bodies if bodies.get(i) is not None]
        _print_info(payload, args.json)
        return EXIT_OK
    if args.mode is None or args.k is None:
        raise ParameterError("info needs a shard dir, or --mode and -k")
    n = args.n
    if n is None:
        # smallest legal cluster: n = d+1 (only the (0,0) budget fits there)
        n = (2 * args.k - 2 if args.mode == "msr" else args.d or args.k) + 1
    params = code_params(args.mode, args.k, n, args.d, args.beta)
    _print_info(_info_payload(params, _pick_field(args, params.n).q), args.json)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = simulator.load_scenario(args.scenario)
    reports, stats = simulator.run_scenario(cfg)
    lines = [json.dumps(r.to_dict()) for r in reports]
    lines.append(json.dumps({"summary": stats}))
    text = "\n".join(lines) + "\n"
    if args.output:
        with shards.replacing(args.output) as fp:
            fp.write(text.encode())
        print(f"wrote {len(reports)} event reports to {args.output}",
              file=_summary_stream(args.output))
    else:
        sys.stdout.write(text)
    return EXIT_OK if stats["successes"] == stats["events"] else EXIT_DECODE


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pmrc",
        description="Regenerating-code file toolkit: encode to shards, repair "
        "lost shards, and reconstruct files through erasures and corruptions.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="split a file into n shard files")
    p.add_argument("input")
    p.add_argument("-o", "--out-dir", required=True)
    p.add_argument("--mode", choices=["msr", "mbr"], required=True)
    p.add_argument("-k", type=int, required=True, help="reconstruction degree")
    p.add_argument("-d", type=int, help="repair degree (MBR; MSR fixes 2k-2)")
    p.add_argument("-n", type=int, required=True, help="number of nodes")
    p.add_argument("--beta", type=int, default=1, help="symbols per helper per block")
    p.add_argument("--q", type=int, help="field modulus override (prime)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("damage", help="delete or corrupt shards in place")
    p.add_argument("dir")
    p.add_argument("--erase", default="", help="comma-separated node ids to delete")
    p.add_argument("--corrupt", default="", help="comma-separated node ids to garble")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_damage)

    p = sub.add_parser("repair", help="regenerate one node's shard")
    p.add_argument("dir")
    p.add_argument("--node", type=int, required=True)
    p.add_argument("-s", type=int, default=0, help="erasure budget")
    p.add_argument("-t", type=int, default=0, help="corruption budget")
    p.add_argument("-o", "--out-dir", help="write the shard here (default: dir)")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("reconstruct", help="rebuild the original file")
    p.add_argument("dir")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-s", type=int, default=0, help="erasure budget")
    p.add_argument("-t", type=int, default=0, help="corruption budget")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("info", help="parameters, capacity bound, budgets")
    p.add_argument("dir", nargs="?", help="shard directory to describe")
    p.add_argument("--mode", choices=["msr", "mbr"])
    p.add_argument("-k", type=int)
    p.add_argument("-d", type=int)
    p.add_argument("-n", type=int)
    p.add_argument("--beta", type=int, default=1)
    p.add_argument("--q", type=int)
    p.add_argument("--alpha", type=int, help="per-node symbols (connectivity mode)")
    p.add_argument("--delta", type=int, help="repair connectivity Delta")
    p.add_argument("--kappa", type=int, help="reconstruction connectivity kappa")
    p.add_argument("-s", type=int, default=0)
    p.add_argument("-t", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("simulate", help="run a fault-injection scenario file")
    p.add_argument("scenario")
    p.add_argument("-o", "--output", help="write JSONL reports here")
    p.set_defaults(func=cmd_simulate)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InfeasibleError, ConstructionError, MemoryError) as e:
        print(f"error: infeasible: {e or 'out of memory'}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DecodeFailure as e:
        print(f"error: decode failure: {e}", file=sys.stderr)
        return EXIT_DECODE
    except PmrcError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not our error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return EXIT_OK
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
