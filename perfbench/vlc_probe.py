"""Call lattice.vacuum_local_correlation once under a capped address space.

Usage: vlc_probe.py '<probe json>' <address-space cap in bytes>

Prints one JSON line {"seconds": ..., "error": null | "<exception>"}. The cap
turns an allocation larger than the machine can hold into a MemoryError in
this process instead of memory pressure on everything else.
"""

import json
import resource
import sys
from time import perf_counter


def main() -> None:
    probe = json.loads(sys.argv[1])
    cap = int(sys.argv[2])
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    from octo_cfs.lattice import LatticeSpec, MassData, vacuum_local_correlation

    spec = LatticeSpec(L=probe["L"], T=probe["T"], a=probe["a"], epsilon=probe["epsilon"], dims=probe["dims"])
    md = MassData(charged_masses=probe["charged_masses"], neutrino_masses=probe["neutrino_masses"],
                  tau_reg=probe["tau_reg"])
    error = None
    t0 = perf_counter()
    try:
        vacuum_local_correlation(md, spec, probe["point"])
    except MemoryError as exc:
        error = f"MemoryError: {exc}"
    print(json.dumps({"seconds": perf_counter() - t0, "error": error}))


if __name__ == "__main__":
    main()
