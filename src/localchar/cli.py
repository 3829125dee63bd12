"""Command-line entry points.

Commands: epsilon | factorize | construct | verify | search | selftest.
Configuration comes from a flat key=value file plus command-line overrides;
every report echoes the configuration it ran under.  Exit codes: 0 pass,
1 verification failure, 2 configuration error or unsupported shape,
3 capacity/precision error, 4 internal error (an unexpected exception,
reported in one stderr line).
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import replace

from .errors import (CapacityError, ConfigError, LocalCharError, PrecisionLoss,
                     UnsupportedShape)
from .localfield import TameRamified, make_tower
from .characters import MulChar, howe_factorize, is_admissible, make_psi, random_char
from .epsilon import epsilon_factor, epsilon_oracle_consistency
from .converse import (
    TwinConfig,
    TwinPair,
    build_twin_characters,
    case_one_scan,
    iter_twist_pairs,
    mutate_on_level_two,
    search_distinguisher,
    verify_coset_products,
    verify_rank_one_twists,
    verify_twin_pair,
)
from .reporting import assemble, summary_table, write_report


def _parser():
    ap = argparse.ArgumentParser(
        prog="localchar",
        description="exact epsilon factors and twisted-product verification "
                    "for characters of tame p-adic fields")
    ap.add_argument("command", choices=[
        "epsilon", "factorize", "construct", "verify", "search", "selftest"])
    ap.add_argument("--config", help="flat key=value configuration file")
    ap.add_argument("--p", type=int)
    ap.add_argument("--N", type=int)
    ap.add_argument("--ell", type=int)
    ap.add_argument("--precision", type=int)
    ap.add_argument("--conductor-bound", type=int, dest="conductor_bound")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out", help="write the JSON report here")
    ap.add_argument("--level", choices=["r1", "equ6", "all"])
    ap.add_argument("--r", type=int, help="twisting degree for verify equ6 and search")
    ap.add_argument("--selector", type=int)
    ap.add_argument("--mutate", action="store_true", default=None,
                    help="perturb the second twin on 1 + P^2 (negative test)")
    ap.add_argument("--char-field", choices=["F", "E"])
    ap.add_argument("--char-w", type=int,
                    help="exponent of the tame root of unity at the uniformizer")
    ap.add_argument("--char-t", type=int)
    ap.add_argument("--char-gamma",
                    help="comma list v:res of principal-unit digits, e.g. -2:3,-1:1")
    ap.add_argument("--samples", type=int,
                    help="random characters per conductor for the epsilon scan")
    ap.add_argument("--oracle-budget", type=int)
    return ap


def _read_config(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


# every configuration key, with the parser action that types and bounds it; a
# config file naming any other key is an error
_OPTIONS = {a.dest: a for a in _parser()._actions
            if a.option_strings and a.dest not in ("help", "config", "out")}
_KEYS = tuple(_OPTIONS)

# applied after the config file, so that an option left unset on the command
# line takes the file's value
_DEFAULTS = {"seed": 0, "level": "r1", "char_field": "F", "char_w": 0,
             "char_t": 0, "char_gamma": "", "samples": 0,
             "oracle_budget": 300_000_000, "mutate": False}

# the least value of an integer option, checked for flags and file values
_MINIMA = {"r": 1, "conductor_bound": 0, "samples": 0, "oracle_budget": 1}

_BOOL_WORDS = {"true": True, "1": True, "yes": True,
               "false": False, "0": False, "no": False}


def _config_value(key, val):
    """A config file value, typed and checked as its command-line flag."""
    action = _OPTIONS[key]
    if action.type is int:
        try:
            val = int(val)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {val!r}") from None
    elif action.nargs == 0:  # store_true
        if val.lower() not in _BOOL_WORDS:
            raise ConfigError(
                f"{key} must be true/false/1/0/yes/no, got {val!r}")
        val = _BOOL_WORDS[val.lower()]
    if action.choices is not None and val not in action.choices:
        raise ConfigError(
            f"{key} must be one of {', '.join(action.choices)}, got {val!r}")
    return val


def _merge(args) -> dict:
    cfg = {}
    if args.config:
        for raw, val in _read_config(args.config).items():
            key = raw.replace("-", "_").replace(".", "_")
            if key not in _KEYS:
                raise ConfigError(f"unknown config key {raw!r}")
            cfg[key] = _config_value(key, val)
    for key in _KEYS:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
        elif key not in cfg:
            cfg[key] = _DEFAULTS.get(key)
    for key, low in _MINIMA.items():
        if cfg[key] is not None and cfg[key] < low:
            raise ConfigError(f"{key} must be at least {low}, got {cfg[key]}")
    if cfg["r"] is not None and cfg["N"] is not None and cfg["r"] > cfg["N"] // 2:
        raise ConfigError(f"r must be at most [N/2] = {cfg['N'] // 2}, got {cfg['r']}")
    return cfg


def _twin_config(cfg) -> TwinConfig:
    if not cfg.get("p") or not cfg.get("N"):
        raise ConfigError("need --p and --N")
    return TwinConfig(
        p=cfg["p"], N=cfg["N"], ell=cfg.get("ell"),
        selector=cfg.get("selector"),
        conductor_bound=cfg.get("conductor_bound") or 3,
        precision=cfg.get("precision"), seed=cfg.get("seed") or 0,
    ).validate()


def _build_pair(cfg) -> TwinPair:
    tc = _twin_config(cfg)
    pair = build_twin_characters(tc)
    if cfg.get("mutate"):
        pair = replace(pair, phi2=mutate_on_level_two(pair.phi2))
    return pair


def _char_from_spec(cfg, field):
    gamma = None
    if cfg.get("char_gamma"):
        digits = []
        for part in cfg["char_gamma"].split(","):
            try:
                v, res = map(int, part.split(":"))
            except ValueError:
                raise ConfigError("char_gamma must be a comma list of v:res "
                                  f"integer pairs, got {part!r}") from None
            if not 0 <= res < field.q:
                raise ConfigError(f"char_gamma residues must lie in [0, "
                                  f"{field.q}), got {part!r}")
            digits.append((v, res))
        gamma = field.from_digits(digits)
    w = (cfg.get("char_w") or 0, field.q - 1)
    return MulChar(field, w, cfg.get("char_t") or 0, gamma)


def _char_field(cfg):
    p = cfg.get("p")
    if not p:
        raise ConfigError("need --p")
    k = 12 if cfg.get("precision") is None else cfg["precision"]
    if cfg.get("char_field") == "E":
        if not cfg.get("N"):
            raise ConfigError("field E needs --N")
        return make_tower(p, (TameRamified(cfg["N"], 1),), k)
    return make_tower(p, (), k)


# ---------------------------------------------------------------- commands


def cmd_epsilon(cfg):
    from .oracle import oracle_sum  # numpy loads only for the oracle
    field = _char_field(cfg)
    psi = make_psi(field)
    results = []
    if cfg.get("samples"):
        rng = random.Random(cfg.get("seed") or 0)
        bound = cfg.get("conductor_bound")
        bound = 5 if bound is None else bound
        if bound < 2:  # the scan runs conductors 2..bound
            raise ConfigError(f"conductor_bound must be at least 2, got {bound}")
        chars = [random_char(field, c, rng)
                 for c in range(2, bound + 1) for _ in range(cfg["samples"])]
        rep = epsilon_oracle_consistency(chars, psi, lambda c_, p_, d_:
                                         oracle_sum(c_, p_, d_,
                                                    cfg["oracle_budget"]))
        results.append({"consistency": rep})
    else:
        chi = _char_from_spec(cfg, field)
        f = chi.conductor()
        entry = {"conductor": f}
        if f >= 2:
            eps = epsilon_factor(chi, psi)
            entry["closed_form"] = eps.serialize()
        delta = field.uniformizer() ** (1 - max(f, 1))
        orc = oracle_sum(chi, psi, delta, budget=cfg["oracle_budget"])
        entry["oracle"] = orc.serialize()
        results.append(entry)
    return results, True


def cmd_factorize(cfg):
    field = _char_field(cfg)
    chi = _char_from_spec(cfg, field)
    if not is_admissible(chi):
        raise ConfigError("character is not admissible")
    factors = howe_factorize(chi)
    tower = [h.S.degree for h, _phi in factors]
    results = [{
        "tower_degrees": tower,
        "conductors": [phi.conductor() for _h, phi in factors],
        # the factors' pullbacks multiply to chi, leaving no base character
        "base_character_trivial": True,
    }]
    return results, True


def cmd_construct(cfg):
    pair = _build_pair(cfg)
    checks = verify_twin_pair(pair)
    results = [{
        "tower_degrees": pair.tower,
        "selector": pair.selector,
        "conductor": pair.phi1.conductor(),
        "checks": checks,
    }]
    return results, bool(checks["pass"])


def cmd_verify(cfg):
    bound = cfg.get("conductor_bound")
    bound = 3 if bound is None else bound
    level = cfg.get("level") or "r1"
    if level != "r1" and bound < 1:  # no twisting pair lies below bound 1
        raise ConfigError(f"conductor_bound must be at least 1 for level "
                          f"{level}, got {bound}")
    pair = _build_pair(cfg)
    results = []
    verdict = True
    if level in ("r1", "all"):
        rep = verify_rank_one_twists(pair, bound)
        results.append({"rank_one": {k: v for k, v in rep.items()}})
        verdict = verdict and rep["pass"]
    if level in ("equ6", "all"):
        r = cfg.get("r") or 2
        rows = []
        all_ok = True
        skipped: list = []
        for tw in iter_twist_pairs(pair.cfg.p, r, bound, pair.cfg.k,
                                   skipped=skipped):
            rep2 = verify_coset_products(pair, tw)
            all_ok = all_ok and rep2.verdict
            rows.append(rep2.serialize())
        results.append({"coset_products": {
            "instances": len(rows), "skipped_shapes": skipped,
            "all_pass": all_ok,
            "cases": sorted({row["case"] for row in rows}),
            "failures": [row for row in rows if row["verdict"] != "pass"][:20],
        }})
        verdict = verdict and all_ok
    results.append({"case_one_scan": case_one_scan((pair.cfg.N,))})
    return results, verdict


def cmd_search(cfg):
    pair = _build_pair(cfg)
    r = cfg.get("r") or pair.cfg.N // 2
    bound = cfg.get("conductor_bound")
    bound = 6 if bound is None else bound
    rep = search_distinguisher(pair, r, bound)
    ok = rep["found"] is None or rep["found"]["reverified"]
    return [{"search": rep}], ok


def cmd_selftest(cfg):
    from .oracle import oracle_sum  # numpy loads only for the oracle
    p = cfg.get("p") or 7
    seed = cfg.get("seed") or 0
    rng = random.Random(seed)
    results = {}
    E = make_tower(p, (TameRamified(5, 1),), 12)
    psi = make_psi(E)
    ok = True
    for _ in range(50):
        w = E.one() + E.random_unit(rng).shift(1)
        ok = ok and E.exp_principal(E.log_principal(w)).eq_mod(w, 6)
        x, y = E.random_unit(rng).shift(1), E.random_unit(rng).shift(1)
        s = E.log_principal(E.one() + x) + E.log_principal(E.one() + y)
        prod = (E.one() + x) * (E.one() + y)
        ok = ok and (E.log_principal(prod) - s).is_zero()
    results["exp_log"] = ok
    def same_class(c, chi1, chi2):  # eps / oracle is one constant per class
        delta = E.uniformizer() ** (1 - c)
        e1, e2 = (epsilon_factor(x, psi).value for x in (chi1, chi2))
        return bool(e1 * oracle_sum(chi2, psi, delta)
                    == e2 * oracle_sum(chi1, psi, delta))
    chi = random_char(E, 5, rng)
    results["epsilon_class_constant"] = same_class(5, chi,
                                                   random_char(E, 5, rng))
    try:
        shallow = (E.one() + E.uniformizer()).cap_window(3)
        chi.eval(shallow)  # certified mod pi^3 only, conductor is 5
        results["precision_guard"] = False
    except PrecisionLoss:
        results["precision_guard"] = True
    results["seed_stability"] = same_class(
        3, *(random_char(E, 3, random.Random(seed + i)) for i in (1, 2)))
    results["case_one_scan"] = case_one_scan()["pass"]
    verdict = all(bool(v) for v in results.values())
    return [{"selftest": results}], verdict


_COMMANDS = {
    "epsilon": cmd_epsilon,
    "factorize": cmd_factorize,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "search": cmd_search,
    "selftest": cmd_selftest,
}


def _summaries(results):
    rows = []
    for entry in results:
        for key, val in entry.items():
            if isinstance(val, dict):
                flat = {k: v for k, v in val.items()
                        if isinstance(v, (int, bool, str, float))}
                rows.append([key] + [f"{k}={v}" for k, v in list(flat.items())[:4]])
            else:
                rows.append([key, str(val)])
    width = max((len(r) for r in rows), default=1)
    rows = [r + [""] * (width - len(r)) for r in rows]
    return summary_table(rows, ["section"] + [f"info{i}" for i in range(1, width)])


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _merge(args)
        t0 = time.time()
        results, verdict = _COMMANDS[args.command](cfg)
        report = assemble(args.command,
                          {k: v for k, v in sorted(cfg.items())},
                          results, verdict, time.time() - t0)
        if args.out:
            write_report(report, args.out)
        print(_summaries(results))
        print(f"verdict: {report['verdict']}  ({report['timing']}s)")
        if args.out:
            print(f"report written to {args.out}")
        return 0 if verdict else 1
    except (ConfigError, UnsupportedShape) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, PrecisionLoss) as exc:
        print(f"capacity/precision error: {exc}", file=sys.stderr)
        return 3
    except LocalCharError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
