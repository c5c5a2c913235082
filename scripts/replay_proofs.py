"""Replay every shipped mutation script, compare the two descriptions of
each blown-up threefold, and tabulate the K-theory bookkeeping for the
degree-5 degenerations.

Run from the repository root:  python3 scripts/replay_proofs.py
"""

from delpezzo.catalog import enumerate_degenerations
from delpezzo.dsl import builtin_script_names, load_builtin_script
from delpezzo.intersection import BlowupGeometry
from delpezzo.ktheory import consistency_check, k_minus1_total, standard_models
from delpezzo.mutations import compare_and_solve, replay
from delpezzo.sod import FactStore, decomposition_text


def main():
    print("== replaying shipped scripts ==")
    for name in builtin_script_names():
        script = load_builtin_script(name)
        final, audit = replay(script, FactStore(), BlowupGeometry(script.d))
        print(f"\n{audit.text()}", end="")
        print(f"=> {name}: {decomposition_text(final, script.hd_degree)}")

    print("\n== identifying the residual components ==")
    for d, vname in ((4, "prop-Y-to-V-4"), (5, "prop-Y-to-V")):
        store = FactStore()
        geom = BlowupGeometry(d)
        left, _ = replay(load_builtin_script(vname), store, geom)
        right, _ = replay(load_builtin_script(f"prop-Y-to-W-{d}"), store, geom)
        print(f"degree {d}: {compare_and_solve(left, right, d).text()}")

    print("\n== degree-5 degenerations and K_-1 bookkeeping ==")
    store = FactStore()
    final, _ = replay(load_builtin_script("prop-Y-to-W-5"), store,
                      BlowupGeometry(5))
    for total in range(0, 4):
        for case in enumerate_degenerations(5, total):
            models = standard_models(5, case.nodes_c, case.nodes_q)
            ok = consistency_check(final, case.nodes_c, case.nodes_q)
            print(f"nodes={total} split (C={case.nodes_c}, Q={case.nodes_q}): "
                  f"A_C {case.a_c_shape}; A_Q {case.a_q_shape}; "
                  f"K_-1 total {k_minus1_total(final, models)} "
                  f"{'(consistent)' if ok else '(INCONSISTENT)'}")


if __name__ == "__main__":
    main()
