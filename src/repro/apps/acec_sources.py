"""AceC sources for the five Table 4 kernels, in two styles each.

* ``*_source(wl)`` — source-level AceC: programs dereference ``shared``
  pointers directly; the compiler inserts and optimizes annotations
  (the paper's Figure 2/5 style).  Compiled at the four Table 4
  optimization levels.
* ``*_hand_source(wl)`` — runtime-level AceC: the Figure 4 style an
  experienced programmer writes — region handles mapped once into
  local tables before the computation loops, and only the protocol
  hooks that are *not* null for the chosen protocol invoked (the
  programmer knows the protocol; that is the entire point of
  application-specific protocols).

The kernels keep the paper's access patterns at reduced scale (see
DESIGN.md's substitution table):

=============  ================  =====================================
kernel         protocol          dominant compiler effect (Table 4)
EM3D           StaticUpdate      DC deletes null read hooks in the kernel
BSC            Null              LI hoists MAP/START/END from block loops
Water          PipelinedWrite    MC merges per-coordinate writes
Barnes-Hut     DynamicUpdate     MC merges per-field body reads/writes
TSP            Counter + Null    LI/MC on the read-only distance table
=============  ================  =====================================

Barnes-Hut's tree walk is distilled into per-body interaction lists
precomputed by the host from the real octree of the initial
configuration (``repro.apps.barnes_hut.interactions``, the app's own
batch walk) — the shared-memory traffic of the force phase is
preserved while keeping the kernel expressible in a few dozen lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from string import Template

import numpy as np

from repro.apps import barnes_hut as bh_mod
from repro.apps import em3d as em3d_mod


def _render(template: str, **subs) -> str:
    return Template(template).substitute({k: str(v) for k, v in subs.items()})


# =====================================================================
# EM3D
# =====================================================================
@dataclass(frozen=True)
class EM3DKernelWL:
    n: int = 24        # nodes per side
    degree: int = 3
    iters: int = 4
    seed: int = 7


def em3d_host_data(wl: EM3DKernelWL, n_procs: int) -> dict:
    emwl = em3d_mod.EM3DWorkload(
        n_e=wl.n, n_h=wl.n, degree=wl.degree, pct_remote=0.3, n_iters=wl.iters, seed=wl.seed
    )
    _, _, e_nbrs, h_nbrs, e_w, h_w, e0, h0 = em3d_mod.make_graph(emwl, n_procs)
    return {
        "e_nbr": np.concatenate(e_nbrs).astype(float),
        "h_nbr": np.concatenate(h_nbrs).astype(float),
        "e_w": np.concatenate(e_w),
        "h_w": np.concatenate(h_w),
        "e0": e0,
        "h0": h0,
    }


def em3d_reference(wl: EM3DKernelWL, n_procs: int):
    emwl = em3d_mod.EM3DWorkload(
        n_e=wl.n, n_h=wl.n, degree=wl.degree, pct_remote=0.3, n_iters=wl.iters, seed=wl.seed
    )
    return em3d_mod.reference(emwl, n_procs)


_EM3D_SETUP = """
    int P = num_procs();
    int me = my_proc();
    int se = ace_new_space("SC");
    int sh = ace_new_space("SC");
    shared double *p;
    for (int i = me; i < $N; i += P) { p = ace_gmalloc(se, 1); bb_put("e", i, p); }
    for (int i = me; i < $N; i += P) { p = ace_gmalloc(sh, 1); bb_put("h", i, p); }
    ace_barrier(se);
    ace_change_protocol(se, "StaticUpdate");
    ace_change_protocol(sh, "StaticUpdate");
"""


def em3d_source(wl: EM3DKernelWL) -> str:
    return _render(
        """
void main() {
"""
        + _EM3D_SETUP
        + """
    for (int i = me; i < $N; i += P) { p = bb_get("e", i); p[0] = host_data("e0", i); }
    for (int i = me; i < $N; i += P) { p = bb_get("h", i); p[0] = host_data("h0", i); }
    ace_barrier(se);
    ace_barrier(sh);
    for (int t = 0; t < $ITERS; t++) {
        for (int i = me; i < $N; i += P) {
            double acc = 0;
            for (int d = 0; d < $DEG; d++) {
                int j = host_data("e_nbr", i * $DEG + d);
                shared double *q;
                q = bb_get("h", j);
                acc += host_data("e_w", i * $DEG + d) * q[0];
            }
            work(20);
            p = bb_get("e", i);
            p[0] = acc;
        }
        ace_barrier(se);
        for (int i = me; i < $N; i += P) {
            double acc = 0;
            for (int d = 0; d < $DEG; d++) {
                int j = host_data("h_nbr", i * $DEG + d);
                shared double *q;
                q = bb_get("e", j);
                acc += host_data("h_w", i * $DEG + d) * q[0];
            }
            work(20);
            p = bb_get("h", i);
            p[0] = acc;
        }
        ace_barrier(sh);
    }
    for (int i = me; i < $N; i += P) {
        p = bb_get("e", i);
        bb_put("e_out", i, p[0]);
        p = bb_get("h", i);
        bb_put("h_out", i, p[0]);
    }
}
""",
        N=wl.n,
        DEG=wl.degree,
        ITERS=wl.iters,
    )


def em3d_hand_source(wl: EM3DKernelWL) -> str:
    """Runtime-level EM3D: handles mapped once before the main loop
    (§5.3's description of the hand version), null hooks omitted, and
    the StaticUpdate dirty-marking end_write kept."""
    return _render(
        """
void main() {
"""
        + _EM3D_SETUP
        + """
    // map exactly what this processor touches: its own nodes, and one
    // handle per incoming edge slot ("performs ACE_MAP calls on each
    // processor's data before entering the main computation loop", §5.3)
    mapped double *eh[$N];
    mapped double *hh[$N];
    mapped double *enb[$NDEG];
    mapped double *hnb[$NDEG];
    for (int i = me; i < $N; i += P) {
        eh[i] = ace_map(bb_get("e", i));
        hh[i] = ace_map(bb_get("h", i));
        for (int d = 0; d < $DEG; d++) {
            enb[i * $DEG + d] = ace_map(bb_get("h", host_data("e_nbr", i * $DEG + d)));
            hnb[i * $DEG + d] = ace_map(bb_get("e", host_data("h_nbr", i * $DEG + d)));
        }
    }
    mapped double *m;
    for (int i = me; i < $N; i += P) {
        m = eh[i]; m[0] = host_data("e0", i); ace_end_write(m);
        m = hh[i]; m[0] = host_data("h0", i); ace_end_write(m);
    }
    ace_barrier(se);
    ace_barrier(sh);
    for (int t = 0; t < $ITERS; t++) {
        for (int i = me; i < $N; i += P) {
            double acc = 0;
            for (int d = 0; d < $DEG; d++) {
                m = enb[i * $DEG + d];
                acc += host_data("e_w", i * $DEG + d) * m[0];
            }
            work(20);
            m = eh[i];
            m[0] = acc;
            ace_end_write(m);
        }
        ace_barrier(se);
        for (int i = me; i < $N; i += P) {
            double acc = 0;
            for (int d = 0; d < $DEG; d++) {
                m = hnb[i * $DEG + d];
                acc += host_data("h_w", i * $DEG + d) * m[0];
            }
            work(20);
            m = hh[i];
            m[0] = acc;
            ace_end_write(m);
        }
        ace_barrier(sh);
    }
    for (int i = me; i < $N; i += P) {
        m = eh[i];
        bb_put("e_out", i, m[0]);
        m = hh[i];
        bb_put("h_out", i, m[0]);
    }
}
""",
        N=wl.n,
        DEG=wl.degree,
        ITERS=wl.iters,
        NDEG=wl.n * wl.degree,
    )


# =====================================================================
# BSC (right-looking blocked Cholesky with a barrier per column)
# =====================================================================
@dataclass(frozen=True)
class BSCKernelWL:
    nb: int = 5      # block columns
    block: int = 3   # block size B
    band: int = 2    # block bandwidth
    seed: int = 31


def bsc_host_data(wl: BSCKernelWL) -> dict:
    from repro.apps import bsc as bsc_mod

    a = bsc_mod.make_matrix(
        bsc_mod.BSCWorkload(n_block_cols=wl.nb, block=wl.block, band=wl.band, seed=wl.seed)
    )
    return {"A": a.ravel()}


def bsc_reference(wl: BSCKernelWL) -> np.ndarray:
    from repro.apps import bsc as bsc_mod

    return bsc_mod.reference(
        bsc_mod.BSCWorkload(n_block_cols=wl.nb, block=wl.block, band=wl.band, seed=wl.seed)
    )


_BSC_SETUP = """
    int P = num_procs();
    int me = my_proc();
    int s = ace_new_space("SC");
    shared double *blk;
    for (int j = me; j < $NB; j += P) {
        int last = min($NB - 1, j + $BAND);
        for (int i = j; i <= last; i++) {
            blk = ace_gmalloc(s, $B * $B);
            bb_put("blk", i * $NB + j, blk);
        }
    }
    ace_barrier(s);
    ace_change_protocol(s, "Null");
"""


def bsc_source(wl: BSCKernelWL) -> str:
    n = wl.nb * wl.block
    return _render(
        """
void main() {
"""
        + _BSC_SETUP
        + """
    // seed own blocks from the host matrix (row-major $NTOT x $NTOT)
    for (int j = me; j < $NB; j += P) {
        int last = min($NB - 1, j + $BAND);
        for (int i = j; i <= last; i++) {
            blk = bb_get("blk", i * $NB + j);
            for (int a = 0; a < $B; a++) {
                for (int b = 0; b < $B; b++) {
                    blk[a * $B + b] = host_data("A", (i * $B + a) * $NTOT + (j * $B + b));
                }
            }
        }
    }
    ace_barrier(s);
    for (int k = 0; k < $NB; k++) {
        if (imod(k, P) == me) {
            // factor diagonal block (Cholesky-Crout)
            shared double *d;
            d = bb_get("blk", k * $NB + k);
            for (int a = 0; a < $B; a++) {
                double diag = d[a * $B + a];
                for (int c = 0; c < a; c++) { diag -= d[a * $B + c] * d[a * $B + c]; }
                diag = sqrt(diag);
                d[a * $B + a] = diag;
                for (int b = a + 1; b < $B; b++) {
                    double v = d[b * $B + a];
                    for (int c = 0; c < a; c++) { v -= d[b * $B + c] * d[a * $B + c]; }
                    d[b * $B + a] = v / diag;
                }
                for (int b = 0; b < a; b++) { d[b * $B + a] = 0; }
            }
            // triangular solve for sub-diagonal blocks: X * Ld^T = A
            int last = min($NB - 1, k + $BAND);
            for (int i = k + 1; i <= last; i++) {
                shared double *x;
                x = bb_get("blk", i * $NB + k);
                for (int a = 0; a < $B; a++) {
                    for (int b = 0; b < $B; b++) {
                        double v = x[a * $B + b];
                        for (int c = 0; c < b; c++) { v -= x[a * $B + c] * d[b * $B + c]; }
                        x[a * $B + b] = v / d[b * $B + b];
                    }
                }
            }
        }
        ace_barrier(s);
        // update own later columns with column k's blocks
        int lastj = min($NB - 1, k + $BAND);
        for (int j = k + 1; j <= lastj; j++) {
            if (imod(j, P) == me) {
                shared double *ljk;
                ljk = bb_get("blk", j * $NB + k);
                int lasti = min($NB - 1, k + $BAND);
                for (int i = j; i <= lasti; i++) {
                    shared double *lik;
                    lik = bb_get("blk", i * $NB + k);
                    shared double *aij;
                    aij = bb_get("blk", i * $NB + j);
                    for (int a = 0; a < $B; a++) {
                        for (int b = 0; b < $B; b++) {
                            double sum = 0;
                            for (int c = 0; c < $B; c++) {
                                sum += lik[a * $B + c] * ljk[b * $B + c];
                            }
                            work(4);
                            aij[a * $B + b] = aij[a * $B + b] - sum;
                        }
                    }
                }
            }
        }
        ace_barrier(s);
    }
}
""",
        NB=wl.nb,
        B=wl.block,
        BAND=wl.band,
        NTOT=n,
    )


def bsc_hand_source(wl: BSCKernelWL) -> str:
    """Runtime-level BSC: every block mapped once into a handle table;
    the Null protocol needs no hook calls at all."""
    n = wl.nb * wl.block
    return _render(
        """
void main() {
"""
        + _BSC_SETUP
        + """
    mapped double *hb[$NBSQ];
    mapped double *d;
    mapped double *x;
    mapped double *ljk;
    mapped double *lik;
    mapped double *aij;
    // own blocks mapped up front; cross-column blocks are mapped lazily
    // after the producing column's barrier (Null fetches at map time)
    for (int j = me; j < $NB; j += P) {
        int last = min($NB - 1, j + $BAND);
        for (int i = j; i <= last; i++) {
            hb[i * $NB + j] = ace_map(bb_get("blk", i * $NB + j));
        }
    }
    for (int j = me; j < $NB; j += P) {
        int last = min($NB - 1, j + $BAND);
        for (int i = j; i <= last; i++) {
            d = hb[i * $NB + j];
            for (int a = 0; a < $B; a++) {
                for (int b = 0; b < $B; b++) {
                    d[a * $B + b] = host_data("A", (i * $B + a) * $NTOT + (j * $B + b));
                }
            }
        }
    }
    ace_barrier(s);
    for (int k = 0; k < $NB; k++) {
        if (imod(k, P) == me) {
            d = hb[k * $NB + k];
            for (int a = 0; a < $B; a++) {
                double diag = d[a * $B + a];
                for (int c = 0; c < a; c++) { diag -= d[a * $B + c] * d[a * $B + c]; }
                diag = sqrt(diag);
                d[a * $B + a] = diag;
                for (int b = a + 1; b < $B; b++) {
                    double v = d[b * $B + a];
                    for (int c = 0; c < a; c++) { v -= d[b * $B + c] * d[a * $B + c]; }
                    d[b * $B + a] = v / diag;
                }
                for (int b = 0; b < a; b++) { d[b * $B + a] = 0; }
            }
            int last = min($NB - 1, k + $BAND);
            for (int i = k + 1; i <= last; i++) {
                x = hb[i * $NB + k];
                for (int a = 0; a < $B; a++) {
                    for (int b = 0; b < $B; b++) {
                        double v = x[a * $B + b];
                        for (int c = 0; c < b; c++) { v -= x[a * $B + c] * d[b * $B + c]; }
                        x[a * $B + b] = v / d[b * $B + b];
                    }
                }
            }
        }
        ace_barrier(s);
        int lastj = min($NB - 1, k + $BAND);
        for (int j = k + 1; j <= lastj; j++) {
            if (imod(j, P) == me) {
                ljk = ace_map(bb_get("blk", j * $NB + k));
                int lasti = min($NB - 1, k + $BAND);
                for (int i = j; i <= lasti; i++) {
                    lik = ace_map(bb_get("blk", i * $NB + k));
                    aij = hb[i * $NB + j];
                    for (int a = 0; a < $B; a++) {
                        for (int b = 0; b < $B; b++) {
                            double sum = 0;
                            for (int c = 0; c < $B; c++) {
                                sum += lik[a * $B + c] * ljk[b * $B + c];
                            }
                            work(4);
                            aij[a * $B + b] = aij[a * $B + b] - sum;
                        }
                    }
                }
            }
        }
        ace_barrier(s);
    }
}
""",
        NB=wl.nb,
        B=wl.block,
        BAND=wl.band,
        NTOT=n,
        NBSQ=wl.nb * wl.nb,
    )


def bsc_collect(run, wl: BSCKernelWL) -> np.ndarray:
    """Assemble L from the run's regions (lower triangle, within band)."""
    B = wl.block
    L = np.zeros((wl.nb * B, wl.nb * B))
    for j in range(wl.nb):
        for i in range(j, min(wl.nb, j + wl.band + 1)):
            rid = run.bb[("blk", i * wl.nb + j)]
            L[i * B : (i + 1) * B, j * B : (j + 1) * B] = run.region_data(rid).reshape(B, B)
    return np.tril(L)


# =====================================================================
# Water (inter-molecular force accumulation under PipelinedWrite)
# =====================================================================
@dataclass(frozen=True)
class WaterKernelWL:
    n: int = 10
    steps: int = 2
    seed: int = 12


def water_host_data(wl: WaterKernelWL) -> dict:
    rng = np.random.default_rng(wl.seed)
    pos = rng.uniform(0.0, 4.0, size=(wl.n, 3))
    return {"px": pos[:, 0], "py": pos[:, 1], "pz": pos[:, 2]}


def water_reference(wl: WaterKernelWL) -> np.ndarray:
    """Final [x,y,z,fx,fy,fz] per molecule (forces of the last step)."""
    data = water_host_data(wl)
    state = np.zeros((wl.n, 6))
    state[:, 0], state[:, 1], state[:, 2] = data["px"], data["py"], data["pz"]
    dt = 0.01
    for _ in range(wl.steps):
        state[:, 3:] = 0.0
        for i in range(wl.n):
            for j in range(i + 1, wl.n):
                d = state[i, :3] - state[j, :3]
                r2 = d @ d
                f = d / (r2 * r2 + 0.1)
                state[i, 3:] += f
                state[j, 3:] -= f
        state[:, :3] += dt * state[:, 3:]
    return state


_WATER_TEMPLATE = """
void main() {
    int P = num_procs();
    int me = my_proc();
    int s = ace_new_space("SC");
    shared double *p;
    for (int i = me; i < $N; i += P) {
        p = ace_gmalloc(s, 6);
        bb_put("mol", i, p);
    }
    ace_barrier(s);
    ace_change_protocol(s, "PipelinedWrite");
    $BODY
}
"""

_WATER_SRC_BODY = """
    for (int i = me; i < $N; i += P) {
        p = bb_get("mol", i);
        p[0] = host_data("px", i);
        p[1] = host_data("py", i);
        p[2] = host_data("pz", i);
    }
    ace_barrier(s);
    for (int t = 0; t < $STEPS; t++) {
        for (int i = me; i < $N; i += P) {
            p = bb_get("mol", i);
            p[3] = 0; p[4] = 0; p[5] = 0;
        }
        ace_barrier(s);
        for (int i = me; i < $N; i += P) {
            p = bb_get("mol", i);
            double xi = p[0]; double yi = p[1]; double zi = p[2];
            for (int j = i + 1; j < $N; j++) {
                shared double *q;
                q = bb_get("mol", j);
                double dx = xi - q[0];
                double dy = yi - q[1];
                double dz = zi - q[2];
                double r2 = dx * dx + dy * dy + dz * dz;
                double k = 1 / (r2 * r2 + 0.1);
                work(40);
                p[3] += dx * k; p[4] += dy * k; p[5] += dz * k;
                q[3] -= dx * k; q[4] -= dy * k; q[5] -= dz * k;
            }
        }
        ace_barrier(s);
        for (int i = me; i < $N; i += P) {
            p = bb_get("mol", i);
            p[0] += 0.01 * p[3];
            p[1] += 0.01 * p[4];
            p[2] += 0.01 * p[5];
        }
        ace_barrier(s);
    }
"""

_WATER_HAND_BODY = """
    mapped double *mh[$N];
    for (int i = 0; i < $N; i++) { mh[i] = ace_map(bb_get("mol", i)); }
    mapped double *m;
    mapped double *q;
    for (int i = me; i < $N; i += P) {
        m = mh[i];
        ace_start_write(m);
        m[0] = host_data("px", i);
        m[1] = host_data("py", i);
        m[2] = host_data("pz", i);
        ace_end_write(m);
    }
    ace_barrier(s);
    for (int t = 0; t < $STEPS; t++) {
        for (int i = me; i < $N; i += P) {
            m = mh[i];
            ace_start_write(m);
            m[3] = 0; m[4] = 0; m[5] = 0;
            ace_end_write(m);
        }
        ace_barrier(s);
        for (int i = me; i < $N; i += P) {
            m = mh[i];
            ace_start_read(m);
            double xi = m[0]; double yi = m[1]; double zi = m[2];
            ace_start_write(m);
            for (int j = i + 1; j < $N; j++) {
                q = mh[j];
                ace_start_read(q);
                double dx = xi - q[0];
                double dy = yi - q[1];
                double dz = zi - q[2];
                double r2 = dx * dx + dy * dy + dz * dz;
                double k = 1 / (r2 * r2 + 0.1);
                work(40);
                m[3] += dx * k; m[4] += dy * k; m[5] += dz * k;
                ace_start_write(q);
                q[3] -= dx * k; q[4] -= dy * k; q[5] -= dz * k;
                ace_end_write(q);
            }
            ace_end_write(m);
        }
        ace_barrier(s);
        for (int i = me; i < $N; i += P) {
            m = mh[i];
            ace_start_write(m);
            m[0] += 0.01 * m[3];
            m[1] += 0.01 * m[4];
            m[2] += 0.01 * m[5];
            ace_end_write(m);
        }
        ace_barrier(s);
    }
"""


def water_source(wl: WaterKernelWL) -> str:
    body = _render(_WATER_SRC_BODY, N=wl.n, STEPS=wl.steps)
    return _render(_WATER_TEMPLATE, N=wl.n, BODY=body)


def water_hand_source(wl: WaterKernelWL) -> str:
    body = _render(_WATER_HAND_BODY, N=wl.n, STEPS=wl.steps)
    return _render(_WATER_TEMPLATE, N=wl.n, BODY=body)


def water_collect(run, wl: WaterKernelWL) -> np.ndarray:
    state = np.zeros((wl.n, 6))
    for i in range(wl.n):
        state[i] = run.region_data(run.bb[("mol", i)])
    return state


# =====================================================================
# Barnes-Hut (interaction-list force kernel under DynamicUpdate)
# =====================================================================
@dataclass(frozen=True)
class BHKernelWL:
    n: int = 16
    steps: int = 2
    theta: float = 1.0
    eps: float = 0.5
    seed: int = 99


def bh_interactions(wl: BHKernelWL):
    """Per-body interaction partners from the real octree of step 0.

    Cell interactions are summarized as pseudo-bodies appended after
    the real ones: entry j < n is a body, j >= n indexes the pseudo
    rows ``[x, y, z, m]`` (com and mass of the cell).  Returns
    ``(bodies, partners, offsets, pseudo)``: body i's partners are
    ``partners[offsets[i]:offsets[i + 1]]``, in the tree walk's visit
    order, from :func:`repro.apps.barnes_hut.interactions`.
    """
    bodies = bh_mod.init_bodies(
        bh_mod.BHWorkload(n_bodies=wl.n, theta=wl.theta, eps=wl.eps, seed=wl.seed)
    )
    pos = bodies[:, bh_mod.POS].copy()
    tree = bh_mod.FlatTree(pos, bodies[:, bh_mod.MASS].copy())
    slot, cells, _ = bh_mod.interactions(tree, pos, range(wl.n), wl.theta, wl.eps)
    leaf = tree.body[cells]
    is_cell = leaf < 0
    partners = np.where(is_cell, wl.n + np.cumsum(is_cell) - 1, leaf)
    offsets = np.concatenate(([0], np.cumsum(np.bincount(slot, minlength=wl.n))))
    pseudo = np.column_stack((tree.com[cells[is_cell]], tree.mass[cells[is_cell]]))
    return bodies, partners, offsets, pseudo


def bh_host_data(wl: BHKernelWL) -> dict:
    bodies, partners, offsets, pseudo = bh_interactions(wl)
    q = pseudo if len(pseudo) else np.zeros((1, 4))
    return {
        "x0": bodies[:, 0],
        "y0": bodies[:, 1],
        "z0": bodies[:, 2],
        "m0": bodies[:, bh_mod.MASS],
        "ilist": partners.astype(float),
        "ioff": offsets.astype(float),
        "qx": q[:, 0],
        "qy": q[:, 1],
        "qz": q[:, 2],
        "qm": q[:, 3],
    }


def bh_reference(wl: BHKernelWL) -> np.ndarray:
    """Final [x, y, z, m] per body with the frozen interaction lists."""
    bodies, partners, offsets, pseudo = bh_interactions(wl)
    state = bodies[:, [0, 1, 2, 6]].copy()  # x, y, z, m
    vel = np.zeros((wl.n, 3))
    dt = 0.05
    for _ in range(wl.steps):
        pos = state[:, :3].copy()
        forces = np.zeros((wl.n, 3))
        for i in range(wl.n):
            for j in partners[offsets[i]:offsets[i + 1]].tolist():
                if j < wl.n:
                    pj = pos[j]
                    mj = state[j, 3]
                else:
                    pj = pseudo[j - wl.n, :3]
                    mj = pseudo[j - wl.n, 3]
                d = pj - pos[i]
                r2 = d @ d + wl.eps**2
                forces[i] += mj * d / (r2 * np.sqrt(r2))
        vel += dt * forces
        state[:, :3] += dt * vel
    return state


_BH_TEMPLATE = """
void main() {
    int P = num_procs();
    int me = my_proc();
    int s = ace_new_space("SC");
    shared double *p;
    for (int i = me; i < $N; i += P) {
        p = ace_gmalloc(s, 4);
        bb_put("body", i, p);
    }
    ace_barrier(s);
    ace_change_protocol(s, "DynamicUpdate");
    $BODY
}
"""

_BH_SRC_BODY = """
    double vx[$N]; double vy[$N]; double vz[$N];
    for (int i = me; i < $N; i += P) {
        p = bb_get("body", i);
        p[0] = host_data("x0", i);
        p[1] = host_data("y0", i);
        p[2] = host_data("z0", i);
        p[3] = host_data("m0", i);
    }
    ace_barrier(s);
    for (int t = 0; t < $STEPS; t++) {
        for (int i = me; i < $N; i += P) {
            p = bb_get("body", i);
            double xi = p[0]; double yi = p[1]; double zi = p[2];
            double fx = 0; double fy = 0; double fz = 0;
            int lo = host_data("ioff", i);
            int hi = host_data("ioff", i + 1);
            for (int e = lo; e < hi; e++) {
                int j = host_data("ilist", e);
                double pxj = 0; double pyj = 0; double pzj = 0; double mj = 0;
                if (j < $N) {
                    shared double *q;
                    q = bb_get("body", j);
                    pxj = q[0]; pyj = q[1]; pzj = q[2]; mj = q[3];
                } else {
                    pxj = host_data("qx", j - $N);
                    pyj = host_data("qy", j - $N);
                    pzj = host_data("qz", j - $N);
                    mj = host_data("qm", j - $N);
                }
                double dx = pxj - xi; double dy = pyj - yi; double dz = pzj - zi;
                double r2 = dx * dx + dy * dy + dz * dz + $EPS2;
                double k = mj / (r2 * sqrt(r2));
                work(30);
                fx += dx * k; fy += dy * k; fz += dz * k;
            }
            vx[i] += $DT * fx; vy[i] += $DT * fy; vz[i] += $DT * fz;
        }
        ace_barrier(s);
        for (int i = me; i < $N; i += P) {
            p = bb_get("body", i);
            p[0] += $DT * vx[i];
            p[1] += $DT * vy[i];
            p[2] += $DT * vz[i];
        }
        ace_barrier(s);
    }
"""

_BH_HAND_BODY = """
    double vx[$N]; double vy[$N]; double vz[$N];
    mapped double *hb[$N];
    for (int i = 0; i < $N; i++) { hb[i] = ace_map(bb_get("body", i)); }
    mapped double *m;
    mapped double *q;
    for (int i = me; i < $N; i += P) {
        m = hb[i];
        m[0] = host_data("x0", i);
        m[1] = host_data("y0", i);
        m[2] = host_data("z0", i);
        m[3] = host_data("m0", i);
        ace_end_write(m);
    }
    ace_barrier(s);
    for (int t = 0; t < $STEPS; t++) {
        for (int i = me; i < $N; i += P) {
            m = hb[i];
            double xi = m[0]; double yi = m[1]; double zi = m[2];
            double fx = 0; double fy = 0; double fz = 0;
            int lo = host_data("ioff", i);
            int hi = host_data("ioff", i + 1);
            for (int e = lo; e < hi; e++) {
                int j = host_data("ilist", e);
                double pxj = 0; double pyj = 0; double pzj = 0; double mj = 0;
                if (j < $N) {
                    q = hb[j];
                    pxj = q[0]; pyj = q[1]; pzj = q[2]; mj = q[3];
                } else {
                    pxj = host_data("qx", j - $N);
                    pyj = host_data("qy", j - $N);
                    pzj = host_data("qz", j - $N);
                    mj = host_data("qm", j - $N);
                }
                double dx = pxj - xi; double dy = pyj - yi; double dz = pzj - zi;
                double r2 = dx * dx + dy * dy + dz * dz + $EPS2;
                double k = mj / (r2 * sqrt(r2));
                work(30);
                fx += dx * k; fy += dy * k; fz += dz * k;
            }
            vx[i] += $DT * fx; vy[i] += $DT * fy; vz[i] += $DT * fz;
        }
        ace_barrier(s);
        for (int i = me; i < $N; i += P) {
            m = hb[i];
            m[0] += $DT * vx[i];
            m[1] += $DT * vy[i];
            m[2] += $DT * vz[i];
            ace_end_write(m);
        }
        ace_barrier(s);
    }
"""


def bh_source(wl: BHKernelWL) -> str:
    body = _render(_BH_SRC_BODY, N=wl.n, STEPS=wl.steps, DT=0.05, EPS2=wl.eps**2)
    return _render(_BH_TEMPLATE, N=wl.n, BODY=body)


def bh_hand_source(wl: BHKernelWL) -> str:
    body = _render(_BH_HAND_BODY, N=wl.n, STEPS=wl.steps, DT=0.05, EPS2=wl.eps**2)
    return _render(_BH_TEMPLATE, N=wl.n, BODY=body)


def bh_collect(run, wl: BHKernelWL) -> np.ndarray:
    state = np.zeros((wl.n, 4))
    for i in range(wl.n):
        state[i] = run.region_data(run.bb[("body", i)])
    return state


# =====================================================================
# TSP (branch and bound with a Counter-protocol job counter)
# =====================================================================
@dataclass(frozen=True)
class TSPKernelWL:
    n_cities: int = 6
    seed: int = 5

    @property
    def n_jobs(self) -> int:
        return self.n_cities - 1  # one job per first-hop city


def tsp_host_data(wl: TSPKernelWL) -> dict:
    from repro.apps import tsp as tsp_mod

    d = tsp_mod.make_distances(tsp_mod.TSPWorkload(n_cities=wl.n_cities, seed=wl.seed))
    return {"D": d.ravel()}


def tsp_reference(wl: TSPKernelWL) -> float:
    from repro.apps import tsp as tsp_mod

    return tsp_mod.reference(tsp_mod.TSPWorkload(n_cities=wl.n_cities, seed=wl.seed))


_TSP_TEMPLATE = """
double solve(shared double *dist, int first, double bound) {
    // iterative DFS over permutations with 'first' fixed after city 0
    int path[$NC];
    int used[$NC];
    double cost[$NC];
    int next[$NC];
    int depth = 1;
    double best = bound;
    for (int i = 0; i < $NC; i++) { used[i] = 0; path[i] = 0; next[i] = 0; }
    used[0] = 1;
    used[first] = 1;
    path[1] = first;
    cost[1] = $DREF0;
    while (depth >= 1) {
        work(40);
        if (depth == $NC - 1) {
            double total = cost[depth] + $DREFBACK;
            if (total < best) { best = total; }
            used[path[depth]] = 0;
            depth -= 1;
            continue;
        }
        int c = next[depth];
        if (c >= $NC) {
            if (depth > 1) { used[path[depth]] = 0; }
            depth -= 1;
            continue;
        }
        next[depth] = c + 1;
        if (used[c] == 0) {
            double ncost = cost[depth] + $DREFSTEP;
            if (ncost < best) {
                depth += 1;
                path[depth] = c;
                cost[depth] = ncost;
                used[c] = 1;
                next[depth] = 0;
            }
        }
    }
    return best;
}
"""


def tsp_source(wl: TSPKernelWL, hand: bool = False) -> str:
    """TSP kernel.  ``hand=True`` hoists the distance-table handle.

    The DFS is shared between the two variants; only how the distance
    table is accessed differs (shared derefs vs one hoisted mapped
    handle), plus the counter/best access sequences.
    """
    nc = wl.n_cities
    if hand:
        dref0 = "dh[0 * $NC + first]"
        drefstep = "dh[path[depth] * $NC + c]"
        drefback = "dh[path[depth] * $NC + 0]"
        solve_sig = "double solve(mapped double *dh, int first, double bound) {"
    else:
        dref0 = "dist[0 * $NC + first]"
        drefstep = "dist[path[depth] * $NC + c]"
        drefback = "dist[path[depth] * $NC + 0]"
        solve_sig = "double solve(shared double *dist, int first, double bound) {"
    solve = _TSP_TEMPLATE.replace(
        "double solve(shared double *dist, int first, double bound) {", solve_sig
    )
    solve = (
        solve.replace("$DREF0", dref0)
        .replace("$DREFSTEP", drefstep)
        .replace("$DREFBACK", drefback)
    )
    # fix the 'used' bookkeeping line: restore on pop
    solve = solve.replace(
        "used[path[depth]] = 0 + used[path[depth]]; // keep used; fixed below",
        "if (depth > 1) { used[path[depth]] = 0; }",
    )

    main_common = """
void main() {
    int P = num_procs();
    int me = my_proc();
    int sd = ace_new_space("SC");
    int sc = ace_new_space("SC");
    int sb = ace_new_space("SC");
    shared double *dist;
    shared double *counter;
    shared double *best;
    if (me == 0) {
        dist = ace_gmalloc(sd, $NC2);
        for (int i = 0; i < $NC2; i++) { dist[i] = host_data("D", i); }
        counter = ace_gmalloc(sc, 1);
        best = ace_gmalloc(sb, 1);
        best[0] = inf();
        bb_put("dist", 0, dist);
        bb_put("counter", 0, counter);
        bb_put("best", 0, best);
    }
    ace_barrier(sd);
    ace_change_protocol(sd, "Null");
    ace_change_protocol(sc, "Counter");
    dist = bb_get("dist", 0);
    counter = bb_get("counter", 0);
    best = bb_get("best", 0);
"""
    if hand:
        main_common += """
    mapped double *dh;
    dh = ace_map(dist);
    mapped double *ch;
    ch = ace_map(counter);
    mapped double *bh;
    bh = ace_map(best);
    while (1) {
        ace_start_write(ch);
        int job = ch[0];
        ch[0] = job + 1;
        ace_end_write(ch);
        if (job >= $NJOBS) { break; }
        ace_start_read(bh);
        double incumbent = bh[0];
        ace_end_read(bh);
        double found = solve(dh, job + 1, incumbent);
        if (found < incumbent) {
            ace_start_write(bh);
            if (found < bh[0]) { bh[0] = found; }
            ace_end_write(bh);
        }
    }
    ace_barrier(sb);
    if (me == 0) {
        ace_start_read(bh);
        bb_put("result", 0, bh[0]);
        ace_end_read(bh);
    }
}
"""
    else:
        # Portable source-level code: the compiler cannot assume the
        # Counter protocol's start_write RMW semantics, so the job grab
        # uses the lock idiom; the hand version drops it because the
        # programmer knows the protocol — exactly §5.2's TSP story.
        main_common += """
    while (1) {
        ace_lock(counter);
        int job = counter[0];
        counter[0] = job + 1;
        ace_unlock(counter);
        if (job >= $NJOBS) { break; }
        double incumbent = best[0];
        double found = solve(dist, job + 1, incumbent);
        if (found < incumbent) {
            ace_lock(best);
            if (found < best[0]) { best[0] = found; }
            ace_unlock(best);
        }
    }
    ace_barrier(sb);
    if (me == 0) { bb_put("result", 0, best[0]); }
}
"""
    src = solve + main_common
    return _render(src, NC=nc, NC2=nc * nc, NJOBS=wl.n_jobs)
