"""Set-up time of one CLI invocation, measured in a fresh process.

    python3 bench/setup_probe.py SRC_DIR SCENARIO {model,ndm}

Prints the wall time of ``import ethsim.cli`` plus ``resolve_scenario`` plus
``build_model`` or ``build_ndm``: the cost every ``ethsim`` command pays
before it starts its own work.
"""

import sys
from time import perf_counter


def main(src: str, scenario: str, builder: str) -> None:
    sys.path.insert(0, src)
    start = perf_counter()
    import ethsim.cli  # noqa: F401
    from ethsim.scenario import build_model, build_ndm, resolve_scenario

    scn = resolve_scenario(scenario)
    build_model(scn) if builder == "model" else build_ndm(scn)
    print(repr(perf_counter() - start))


if __name__ == "__main__":
    main(*sys.argv[1:4])
