"""Classification of almost Hermitian model charts.

Walks the built-in models with an almost complex structure through the
classification pipeline: compatibility of (g, J), the Kahler and nearly
Kahler residuals, curvature J-invariance, conformal flatness, and constancy
of holomorphic sectional curvature and of the constant-type value.
"""

from hermgeo import classify as cl
from hermgeo import curvature as cv
from hermgeo import models
from hermgeo import reportio


def main():
    cases = {
        "flat_kahler": [[0.1, 0.2, -0.1, 0.3]],
        "product_K": [[0.1, -0.2, 0.07, 0.03]],
        "fubini_study": [[0.0, 0.0, 0.0, 0.0], [0.2, -0.1, 0.1, 0.3]],
        "s6_nearly_kahler": [[0.1, 0.0, -0.2, 0.3, 0.05, 0.0]],
    }
    for name, points in cases.items():
        chart = models.instantiate(name)
        out, _, _ = cl.classify_chart(chart, cv.point_data(chart, points))
        flags = "  ".join(f"{c['name']}={'Y' if c['pass'] else 'n'}"
                          for c in out["checks"])
        print(f"{chart.name:22s} {flags}")
        for rec in out["constancy"]:
            mark = "const" if rec["global_pass"] else "varies"
            print(f"    {rec['name']:28s} {rec['constant']:+8.4f}  ({mark})")
        print()

    # the full machine-readable record for one model
    chart = models.instantiate("product_K")
    out, _, _ = cl.classify_chart(chart, cv.point_data(chart, [[0.1, -0.2, 0.07, 0.03]]))
    print(reportio.dump_report(out))


if __name__ == "__main__":
    main()
