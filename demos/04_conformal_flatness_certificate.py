"""Null-space certificate for the conformal-flatness theorem.

The sphere-axiom curvature identities are linear functionals on the space
of algebraic curvature tensors.  Enough sampled admissible frames for full
rank on the complement of the expected solution space, with three batches
to spare, pin that space down; a certified margin shows the rows vanish on
exactly it, and evaluating the Weyl tensor on an orthonormal basis of it
shows it vanishes identically, which is the pointwise-algebra form of the
conformal-flatness conclusion.  The derived identity (3.4) and quadruple
vanishing are bounds on that space over every frame, in closed form; they
depend on m alone.

The same machinery verifies the classical criterion: curvature tensors with
R(X,Y,Z,U) = 0 on orthonormal quadruples are exactly the products h * g,
a space of dimension n(n+1)/2 on which Weyl also vanishes.  Both
certificates check their constraint rows against that space, written down in
closed form, instead of searching for the null space.
"""

from hermgeo import axioms as ax
from hermgeo import frames as fr


def main():
    for m in (2, 3):
        n = 2 * m
        rep = ax.theorem_nullspace_verify(m, fr.FrameSampler(0, n))
        d = rep["derived_residuals"]
        print(f"m={m} (dim {n}): curvature space {ax.curvature_space_dim(n)} -> "
              f"null space {rep['nullspace_dim']} "
              f"({rep['constraint_rows']} constraint rows)")
        print(f"    max|Weyl| over null space = {rep['max_weyl']:.2e}")
        print(f"    derived 3.4, every frame  = {d['3.4']:.2e}")
        print(f"    quadruples, every frame   = {d['quadruple']:.2e}")

        schouten = ax.schouten_nullspace_verify(n, fr.FrameSampler(0, n))
        print(f"    quadruple-criterion space: dim {schouten['nullspace_dim']} "
              f"(expected {n * (n + 1) // 2})")
        # both are checked against the same closed-form space of products
        # h * g: each states how far its rows are from vanishing on it, and a
        # certified lower bound on its rows off it (both over the largest
        # singular value)
        for name, r in (("theorem", rep), ("quadruple", schouten)):
            gap = r["rank_gap"]
            print(f"    {name + ' certificate:':23}containment {gap['largest_dropped']:.2e}, "
                  f"certified margin {gap['smallest_kept']:.2e}")
        print()


if __name__ == "__main__":
    main()
