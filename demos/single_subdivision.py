"""One refinement pass: a 252-point configuration from the icosahedron.

Each icosahedron face receives the (5, 0) grid: face corners stay put,
edge nodes sit at equal arc-length fractions of the shared edges, and
interior nodes are placed so that the three sub-triangle areas they cut
off match their barycentric coordinates (spherical area coordinates).
The script compares that against the naive alternative, projecting the
planar grid radially, which clusters points near face centres.

Run:  python demos/single_subdivision.py
"""

import numpy as np

from spheregrid import (
    SphericalConfig,
    base_polyhedron,
    edge_ratios,
    evaluate,
    generate,
    lattice_points,
    barycentric_coords,
    project_to_sphere,
)

cfg = generate("icosahedron", [(5, 0)])
report = evaluate(cfg, seq="5,0")
print(f"area-coordinate placement: N={report.n}")
print(f"  separation  {report.separation:.6f}")
print(f"  covering    {report.covering:.6f}")
print(f"  mesh ratio  {report.mesh_ratio:.6f}")

# Radial projection of the planar grid, for contrast.
mesh = base_polyhedron("icosahedron")
bc = barycentric_coords(lattice_points(5, 0), 5, 0)
la, lb = bc[:, 0], bc[:, 1]
pts = []
for f in mesh.faces:
    v0, va, vb = mesh.vertices[f]
    pts.append(project_to_sphere((1 - la - lb)[:, None] * v0 + la[:, None] * va + lb[:, None] * vb))
pts = np.concatenate(pts)
pts = pts[np.unique(np.round(pts / 1e-9).astype(np.int64), axis=0, return_index=True)[1]]
radial = evaluate(SphericalConfig(points=pts))
print(f"radial projection (same lattice): N={radial.n}")
print(f"  mesh ratio  {radial.mesh_ratio:.6f}  (higher = less uniform)")

print()
print("triangle edge-ratio distribution (1.0 = equilateral)")
ratios = edge_ratios(cfg.hull())
edges = np.linspace(ratios.min(), 1.0, 9)
hist, _ = np.histogram(ratios, bins=edges)
for k in range(len(hist)):
    bar = "#" * int(np.ceil(60 * hist[k] / hist.max()))
    print(f"  {edges[k]:.3f}-{edges[k+1]:.3f} {hist[k]:5d} {bar}")
print(f"  min {ratios.min():.4f}  mean {ratios.mean():.4f}")
