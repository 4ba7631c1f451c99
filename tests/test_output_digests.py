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
        '3161cce211f67961795e4e6b24390ffff395a93c90338709383436b1e911bcec',
        '61e5b3fb813d3c794b8572ea0518ed855ca22d569609e645ac9d713b7cab276e',
        'bc35d2857966876a443eb55e0523ef6c2d99d07c377ebe1ab06b2a8f58654262',
        'e720ee3bf6acb56f0e3bdc91f87a7ee8b2c3e4de9a7b145848a30a827ecbb45b',
    ),
    'simulate-ql-jumps': (
        '6f530d9b5026e120cf1533efae2450cd7721d16a128468c9621f619b067416fc',
        '0f64fcc445310b2d1bfde5f1571640676a79cd6a2a958fc56e1f10be0073f157',
        'c3bf7efc3ce25d729ab4279f8ce878a3fd2711a089e846151bc6833aaea1488e',
        '3fd7508775942e6543407554098a495ac0fbe0f3bc7718003399b6885735e5e7',
    ),
    'reduce-markov-rs': (
        '3416438678f49db63d2142dc861bd782f5c6170f88b7637bdda08c36f7d7e850',
        'fefebaf8dd32b143b499cf6dd8e09f7b84a7c630829410e1ab1ede0e8fb002db',
        '628ca7a385547ab7a64582930f5c4b7a22ff0b0fb75e67e771d197278a97ffab',
        'a9ece9d7356a1ea620b472a22d00afc39ee6875d354c93a5c4c6aad8340f61e7',
    ),
    'rs-verify': (
        '62f8cfd92bbdbff949536a6a744f49dfb9aa04380ba3da3a6299a3ecfd482956',
        'b828db4f527d99a2e705a958139c7358d243cd8fc65a25149d0634ec1d51ea04',
        '8ee0fa05c936143f821a47ad702435a82f4f7a3ea79361798a0f8608552a78f0',
        'f7d871b46170938cf0bfaa2881dfe189e845adb7e5531671f4514cd0c35eae36',
    ),
    'ql-verify-literal': (
        '2ca4cc0b077191e5f9498074065f03e0716281425b2ea7c690f671222a664542',
        '99c904117f0d6c0e65bd390fc5caac85523adb8f0972940a2cb5d3c60686b626',
        '73ad979954eabef169d7aba31e53226813954f1662819d7a5c68c2ab3b6d33e6',
        '31cdb3c631ed652dceba6afe9d5f4a55309cf6f5955f6883fdc25af64d3832b0',
    ),
    'ql-verify-consistent': (
        '0f18d5da921d42343663803968679221e22742a16cf344762b15e8c7956c16e7',
        'f2db3bb4df86d7e58483d5b34e2a1f3c769d2fc60e6fd545f7c412e0f911d784',
        '03c4fdc6af9fcb3206eb7624fa22c271c80b736b25bcf17a3715f9efea46694f',
        'd1c9fda52373dee076e18c1dc94c7ce12ab25338692a6ee2262783cf7d5deb1e',
    ),
    'dynkin': (
        'b783daa25ec23c8a0d20022c513192c5cd816af5d39ee6a731e804ee2f9972d5',
        '01794160c36ef47c171b4eb1d296addc4297bd2af01653f4b24a05630006ead7',
        '24abf040ff9fc056b8a907d9dce6816079eb8b5013447d15409f7f8d2fc25ed1',
        '8060dd808d8b5374be7167ff0625a1f3e07cbf5cd9e4160d5854ee0093aa6c47',
    ),
    'policy-eval-ql': (
        'c3f50d2d2af56b636a859725e7691ec8fda79df722476fc2dad3d89028503600',
        'f7e0254c904ce407e5e6814d8e5dcdc1fa314496bb95fbdb8cd06a154fe0325a',
        'da4b71aa2ca9bfb7c05ada2ba837693ae4528fbae1ccb3d566965353aaaaac84',
        '9ba1c06af4ce76a70544f741f5641c8ed9a7533e365081a0dc938635f6b6f3b7',
    ),
    'hjb': (
        '09577cb014308cc00bea436c5ad5581d60c43e52f457f8c4f39fca4cf59fd156',
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
