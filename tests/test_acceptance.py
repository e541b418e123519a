"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the full sweep (criterion 2) takes on the order of a minute.
"""

import json
import random
from itertools import combinations, product

import numpy as np

from pmrc import (
    Fq,
    build_encoding,
    capacity_bound,
    feasible_pairs,
    mbr_params,
    msr_params,
)
from pmrc.cli import EXIT_OK, main
from pmrc.decoding import Response, rs_decode_ee
from pmrc.linalg import vandermonde
from pmrc.shards import poly_decode, shard_filename
from pmrc.simulator import SUCCESS, ClusterState
from oracles import rank, subset_decode_oracle
from util import apply_faults, fault_patterns, make_code, random_payload, seeded


def _report(ok: bool, label: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_1_capacity_attainment():
    """Every constructed code meets the cut-set bound with equality."""
    ok = True
    for beta in (1, 3):
        for k in (2, 3, 4):
            p = msr_params(k=k, n=2 * k, beta=beta)
            ok &= p.message_symbols == capacity_bound(p.k, p.d, p.alpha, p.beta)
        for k, d in ((2, 2), (2, 3), (3, 4), (3, 5)):
            p = mbr_params(k=k, d=d, n=d + 2, beta=beta)
            ok &= p.message_symbols == capacity_bound(p.k, p.d, p.alpha, p.beta)
    _report(ok, "criterion 1: B attains the capacity bound exactly (tolerance 0)")


def _resilience_sweep(params, q, n_seeds=20):
    enc, encode_payload, helper, repair, reconstruct = make_code(params, q)
    rng = seeded("sweep-payload", params.mode.value, q)
    payload = random_payload(rng, params, q)
    shares = encode_payload(payload)
    nodes = list(range(1, params.n + 1))
    failures = []
    runs = 0
    for s, t in feasible_pairs(params):
        delta = params.d + s + 2 * t
        kappa = params.k + s + 2 * t
        for f in nodes:
            helpers = [i for i in nodes if i != f][:delta]
            base = [Response(h, helper(shares[h - 1], f, enc)) for h in helpers]
            for erase, corrupt in fault_patterns(helpers, s, t):
                seeds = range(n_seeds) if corrupt else range(1)
                for seed in seeds:
                    frng = seeded("sweep-faults", q, s, t, f, erase, corrupt, seed)
                    word = apply_faults(frng, base, erase, corrupt, q)
                    runs += 1
                    got = repair(word, f, enc, s, t)
                    if got.symbols != shares[f - 1].symbols:
                        failures.append(("repair", q, s, t, f, erase, corrupt, seed))
        providers = nodes[:kappa]
        base = [Response(i, shares[i - 1].symbols) for i in providers]
        for erase, corrupt in fault_patterns(providers, s, t):
            seeds = range(n_seeds) if corrupt else range(1)
            for seed in seeds:
                frng = seeded("sweep-rec", q, s, t, erase, corrupt, seed)
                word = apply_faults(frng, base, erase, corrupt, q)
                runs += 1
                if reconstruct(word, enc, s, t) != payload:
                    failures.append(("reconstruct", q, s, t, erase, corrupt, seed))
    return runs, failures


def test_criterion_2_universal_resilience_sweep():
    """One fixed encoding survives every feasible (s, t), every failed node,
    and every fault position pattern within budget, exactly."""
    total = 0
    failures = []
    for params in (msr_params(k=3, n=7), mbr_params(k=3, d=4, n=8)):
        for q in (29, 257):
            runs, bad = _resilience_sweep(params, q)
            total += runs
            failures.extend(bad)
    _report(
        not failures,
        f"criterion 2: universal resilience sweep, {total} events, "
        f"{len(failures)} failures (zero tolerance)",
    )


def test_criterion_3_parameter_witness(capsys):
    """alpha=2, beta=1, Delta=5, kappa=4, (s=0, t=1) must yield d=3, k=2 and
    bound B = 4, reproduced by the info command."""
    code = main([
        "info", "--alpha", "2", "--beta", "1", "--delta", "5", "--kappa", "4",
        "-s", "0", "-t", "1", "--json",
    ])
    payload = json.loads(capsys.readouterr().out)
    ok = (
        code == EXIT_OK
        and payload["d"] == 3
        and payload["k"] == 2
        and payload["capacity_bound"] == 4
    )
    with capsys.disabled():
        _report(ok, "criterion 3: connectivity witness gives d=3, k=2, B=4 via info")


def test_criterion_4_oracle_equivalence():
    """The shipping decoder (pmrc.shards.poly_decode, the step decode_repair
    runs per slice) and the reference rs_decode_ee agree bit-exactly with the
    exhaustive subset oracle and return the message."""
    q = 29
    f = Fq(q)
    msg_len = 4
    rng = seeded("oracle-eq")
    mismatches = 0
    runs = 0
    for delta in (4, 5, 6):
        points = list(range(1, delta + 1))
        rows = vandermonde(f, points, msg_len)
        budget = delta - msg_len
        for s in range(budget + 1):
            for t in range((budget - s) // 2 + 1):
                for _ in range(10):
                    msg = tuple(rng.randrange(q) for _ in range(msg_len))
                    base = [
                        sum(c * pow(x, e, q) for e, c in enumerate(msg)) % q
                        for x in points
                    ]
                    for er in combinations(range(delta), s):
                        rest = [i for i in range(delta) if i not in er]
                        for co in combinations(rest, t):
                            values = list(base)
                            for i in er:
                                values[i] = None
                            for i in co:
                                values[i] = (values[i] + 1 + rng.randrange(q - 1)) % q
                            runs += 1
                            a = subset_decode_oracle(values, rows, t, f)
                            b = rs_decode_ee(values, points, msg_len, t, f)
                            kept = [i for i in range(delta) if values[i] is not None]
                            y = np.array([[values[i]] for i in kept])
                            c = poly_decode(y, [points[i] for i in kept], msg_len, t, f)
                            c = tuple(int(v) for v in c[:, 0])
                            if not a == b == c == msg:
                                mismatches += 1
    _report(
        mismatches == 0,
        f"criterion 4: decoder oracle equivalence, {runs} decodes, "
        f"{mismatches} mismatches",
    )


def _min_weight_exact(psi_rows, field, d):
    """Exhaustive minimum nonzero-codeword weight over all q^d messages."""
    q = field.q
    arr = psi_rows
    best = arr.shape[0] + 1
    for msg in product(range(q), repeat=d):
        if not any(msg):
            continue
        word = arr @ np.asarray(msg, dtype=np.int64) % q
        best = min(best, int(np.count_nonzero(word)))
    return best


def test_criterion_5_minimum_distance_law():
    """The repair code on any Delta positions has distance exactly Delta-d+1."""
    ok = True
    # brute-force enumeration over a tiny field
    f5 = Fq(5)
    for params in (mbr_params(k=2, d=3, n=4), msr_params(k=2, n=4)):
        enc = build_encoding(params, f5)
        d = params.d
        for size in range(d, params.n + 1):
            for sub in combinations(range(params.n), size):
                got = _min_weight_exact(enc.psi[list(sub)], f5, d)
                ok &= got == size - d + 1
    # q = 29 at full toy size: MDS rank bound plus explicit weight witnesses
    enc = build_encoding(msr_params(k=3, n=7), Fq(29))
    d = 4
    q = 29
    for size in range(d, 8):
        for sub in combinations(range(7), size):
            psi_sub = enc.psi[list(sub)]
            ok &= all(
                rank(psi_sub[list(rows)], q) == d
                for rows in combinations(range(size), d)
            )  # no nonzero codeword vanishes on d positions => weight > size-d
            # witness: the polynomial with roots at d-1 of the points has
            # weight exactly size-d+1 on these positions
            pts = [enc.points[i] for i in sub]
            for zeros in combinations(pts, d - 1):
                coeffs = [1]
                for r in zeros:
                    coeffs = [
                        (a - r * b) % q
                        for a, b in zip([0] + coeffs, coeffs + [0])
                    ]
                word = [
                    sum(c * pow(x, e, q) for e, c in enumerate(coeffs)) % q
                    for x in pts
                ]
                ok &= sum(v != 0 for v in word) == size - (d - 1)
    _report(ok, "criterion 5: minimum distance exactly Delta-d+1 on every subset")


def test_criterion_6_helper_symbol_independence():
    """Per-helper repair symbols are identical across every helper-set
    composition containing that helper."""
    ok = True
    for params, q in ((msr_params(k=3, n=7), 29), (mbr_params(k=2, d=3, n=6), 23)):
        enc, encode_payload, helper, repair, _ = make_code(params, q)
        payload = random_payload(seeded("thm5", q), params, q)
        shares = encode_payload(payload)
        for f in range(1, params.n + 1):
            others = [i for i in range(1, params.n + 1) if i != f]
            seen = {}
            for hs in combinations(others, params.d):
                word = [Response(h, helper(shares[h - 1], f, enc)) for h in hs]
                ok &= repair(word, f, enc).symbols == shares[f - 1].symbols
                for r in word:
                    seen.setdefault(r.node_id, set()).add(r.symbols)
            ok &= all(len(v) == 1 for v in seen.values())
    _report(ok, "criterion 6: helper symbols independent of the helper set")


def test_criterion_7_bandwidth_ledger():
    """Reported downloads equal Delta*beta and kappa*alpha per block exactly."""
    ok = True
    params = mbr_params(k=3, d=4, n=8, beta=2)
    enc = build_encoding(params, Fq(257))
    rng = seeded("bandwidth")
    payloads = [random_payload(rng, params, 257) for _ in range(3)]
    cluster = ClusterState(enc, payloads)
    cluster.fail(1)
    rep = cluster.repair(1)
    ok &= rep.downloaded == params.d * params.beta * 3  # d*beta at s=t=0
    rep, _ = cluster.reconstruct()
    ok &= rep.downloaded == params.k * params.alpha * 3  # k*alpha at s=t=0
    for s, t in feasible_pairs(params):
        cluster.fail(2)
        rep = cluster.repair(2, s=s, t=t)
        ok &= rep.outcome == SUCCESS
        ok &= rep.downloaded == (params.d + s + 2 * t) * params.beta * 3
        rep, _ = cluster.reconstruct(s=s, t=t)
        ok &= rep.outcome == SUCCESS
        ok &= rep.downloaded == (params.k + s + 2 * t) * params.alpha * 3
    _report(ok, "criterion 7: bandwidth ledger matches Delta*beta and kappa*alpha")


def test_criterion_8_cli_end_to_end(tmp_path, capsys):
    """1 MiB file, MBR [8,3,5]: reconstruct through 1 erasure + 1 corruption,
    then regenerate the deleted shard byte-identically."""
    rng = random.Random(42)
    data = rng.randbytes(1 << 20)
    src = tmp_path / "original.bin"
    src.write_bytes(data)
    out = tmp_path / "shards"
    ok = main([
        "encode", str(src), "-o", str(out),
        "--mode", "mbr", "-k", "3", "-d", "5", "-n", "8",
    ]) == EXIT_OK
    pristine_shard = (out / shard_filename(2)).read_bytes()
    ok &= main([
        "damage", str(out), "--erase", "2", "--corrupt", "5", "--seed", "7",
    ]) == EXIT_OK
    dest = tmp_path / "recovered.bin"
    ok &= main([
        "reconstruct", str(out), "-o", str(dest), "-s", "1", "-t", "1",
    ]) == EXIT_OK
    ok &= dest.read_bytes() == data
    ok &= main(["repair", str(out), "--node", "2", "-s", "0", "-t", "1"]) == EXIT_OK
    ok &= (out / shard_filename(2)).read_bytes() == pristine_shard
    with capsys.disabled():
        _report(ok, "criterion 8: CLI end-to-end on 1 MiB (reconstruct + repair)")
