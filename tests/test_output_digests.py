"""Pinned output digests: the SHA-256 of the four CLI output files for a few
small configs.

A change that keeps the random-draw protocol keeps these bytes.  A change
that moves an output on purpose updates the table below and says so in
CHANGES.md.  The digests depend on the floating-point results of the
installed numpy and scipy builds, so a toolchain change can move them too.
"""
import hashlib
import json

import pytest

from smjd.cli import main

OUT_FILES = ("resolved_config.json", "results.csv", "report.json",
             "summary.txt")

_EXP2 = {"kernel": [[0, 1], [1, 0]],
         "holding": [{"kind": "exponential", "rate": 2.0},
                     {"kind": "exponential", "rate": 1.0}]}
_WEIB3 = {"kernel": [[0, 0.25, 0.75], [0.6, 0, 0.4], [0.1, 0.9, 0]],
          "holding": [{"kind": "weibull", "shape": 1.5, "scale": 0.8},
                      {"kind": "exponential", "rate": 1.0},
                      {"kind": "weibull", "shape": 2.0, "scale": 1.0}]}
_RS = {"kind": "rs", "r": [0.05, 0.02], "mu": [0.13, 0.08],
       "sigma": [0.2, 0.3], "gamma": 0.5, "horizon": 1.0, "x0": 1.0, "i0": 0}
_QL = {"kind": "ql", "r": [0.05, 0.03], "mbar": [0.4, 0.3],
       "sigma": [0.2, 0.25], "d": 1.0, "horizon": 1.0, "x0": 0.5, "i0": 0,
       "jumps": {"rate": 2.0, "atoms": [-0.05, 0.08], "weights": [0.4, 0.6],
                 "coeff_scale": [1.0, 1.5]}}
_NUM = {"n_paths": 40, "dt": 0.02, "functional_paths": 30, "t_nodes": 11,
        "y_nodes": 2}


def _cfg(command, model, regime=_EXP2, numerics=_NUM, **extra):
    return {"experiment": command, "seed": 42, "regime": regime,
            "model": model, "numerics": numerics, **extra}


CASES = {
    "simulate-rs": _cfg("simulate", _RS),
    "simulate-ql-jumps": _cfg("simulate", _QL),
    "reduce-markov-rs": _cfg("reduce-markov", _RS),
    "rs-verify": _cfg("rs-verify", _RS),
    "ql-verify-literal": _cfg("ql-verify", _QL),
    "ql-verify-consistent": _cfg("ql-verify",
                                 dict(_QL, lambda_variant="consistent")),
    "dynkin": _cfg("dynkin", dict(_RS, r=[0.05] * 3, mu=[0.1] * 3,
                                  sigma=[0.2] * 3), regime=_WEIB3,
                   numerics={"n_paths": 100, "dt": 0.01}),
    "policy-eval-ql": _cfg("policy-eval", _QL,
                           queries=[[0.0, 0.5, 0, 0.0], [0.5, 1.0, 1, 0.3],
                                    [0.9, 2.0, 0, 1.7]]),
    "hjb": {"experiment": "hjb", "seed": 1,
            "model": {"kind": "hjb-deterministic", "r": 0.05, "d": 1.0,
                      "horizon": 1.0}},
}

# SHA-256 of OUT_FILES, in that order
DIGESTS = {
    'simulate-rs': (
        'd5ae3e381e45bce26c65c53f4ad737dc8271899bfd4d6e8c466fcc1636013529',
        '61e5b3fb813d3c794b8572ea0518ed855ca22d569609e645ac9d713b7cab276e',
        'bc35d2857966876a443eb55e0523ef6c2d99d07c377ebe1ab06b2a8f58654262',
        'e720ee3bf6acb56f0e3bdc91f87a7ee8b2c3e4de9a7b145848a30a827ecbb45b',
    ),
    'simulate-ql-jumps': (
        'd18d642291c31e4bcff876c6955adc41ad347828b05a7e8cfef41fbea8ab29ed',
        'd31bbac151149fc8e112c2e6e553ab28d26ea8746f318db14fa2a4a26a57d1e8',
        '1361682a8b5c06ade16fb38073102a2267e0bd78e3c9bf97e760017b4c8f1ffb',
        '11816edbd922d4f41afd5b94713fd011057264580a6570a4fdbbfea71a64c709',
    ),
    'reduce-markov-rs': (
        '49316f4944f92254847f96e1866aaf6581c99a7a8be46aaae29c4ff41d669bb4',
        'fefebaf8dd32b143b499cf6dd8e09f7b84a7c630829410e1ab1ede0e8fb002db',
        '628ca7a385547ab7a64582930f5c4b7a22ff0b0fb75e67e771d197278a97ffab',
        'a9ece9d7356a1ea620b472a22d00afc39ee6875d354c93a5c4c6aad8340f61e7',
    ),
    'rs-verify': (
        '0b449f4c805defa12097852502bf69c24b555653121b2ca7aea6b437062c7b46',
        'b828db4f527d99a2e705a958139c7358d243cd8fc65a25149d0634ec1d51ea04',
        '8ee0fa05c936143f821a47ad702435a82f4f7a3ea79361798a0f8608552a78f0',
        'f7d871b46170938cf0bfaa2881dfe189e845adb7e5531671f4514cd0c35eae36',
    ),
    'ql-verify-literal': (
        '4bed7623dbf20cef29fd24d34d11ab6635566ce9cac273251a99a6081f29ca76',
        '2da110795e37f5e3e0cc54cecdb95caa0f26467310d2d1045bc3cc2ce03d0943',
        'dafb7d5787c0bd2b62da36fc27dd18ad49ae92f4ac46d1b39227b09309f6c842',
        'fc0e26e0eb452a1f3afde7f98a351b07d7690ed9061ca0de438d46007bd83ad1',
    ),
    'ql-verify-consistent': (
        '7fc1a1d0b107b4a12d6844988c33b870f80b695962659a05954bc27b2fc67f9a',
        'f2db3bb4df86d7e58483d5b34e2a1f3c769d2fc60e6fd545f7c412e0f911d784',
        '03c4fdc6af9fcb3206eb7624fa22c271c80b736b25bcf17a3715f9efea46694f',
        'd1c9fda52373dee076e18c1dc94c7ce12ab25338692a6ee2262783cf7d5deb1e',
    ),
    'dynkin': (
        'e63ee9230afba486d7a4c54e409ed98a8c851f22a03d04174b84c8f95687e5ab',
        '01794160c36ef47c171b4eb1d296addc4297bd2af01653f4b24a05630006ead7',
        '24abf040ff9fc056b8a907d9dce6816079eb8b5013447d15409f7f8d2fc25ed1',
        '8060dd808d8b5374be7167ff0625a1f3e07cbf5cd9e4160d5854ee0093aa6c47',
    ),
    'policy-eval-ql': (
        '312d769664c66e2847013f4ef7988bd1be2a65c6f44bb3962b990a9c306b83c0',
        '3ecba57553ee0371887e9dcd77075224a4e17d670a4ed9cc54c85d57eb1e780c',
        'c365abf0573751aca02639988bba646816f3ae8e92d1c8b4bf243d937a735227',
        '9ba1c06af4ce76a70544f741f5641c8ed9a7533e365081a0dc938635f6b6f3b7',
    ),
    'hjb': (
        '0cc2577a61ee103536e0115389b36326cfd8c1936a29c8c7dc3dcb7ac7f22a03',
        'ec1395bc58440e9e64994a79ef3ae09eb0b2460c2d72fcc063f4b49add355eb6',
        '198a4658d8b76b30e0ab49a5945ec66d89e3f19277aee813c2ba52e11fba458f',
        '408c72b4fe60e504e2d3f0febe4e24d02e89c6b40792087c6ae97c5f4ee88bfd',
    ),
}


def _run(command, cfg, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) in (0, 1)
    return tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                 for name in OUT_FILES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digests_are_pinned(case, tmp_path, monkeypatch):
    monkeypatch.delenv("SMJD_SEED", raising=False)
    cfg = CASES[case]
    got = _run(cfg["experiment"], cfg, tmp_path)
    assert dict(zip(OUT_FILES, got)) == dict(zip(OUT_FILES, DIGESTS[case]))
