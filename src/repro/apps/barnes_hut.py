"""Barnes-Hut: hierarchical O(N log N) N-body (Table 3: 16,384 bodies).

The sharing pattern that matters for the paper: every body is a region
owned (homed) by one processor; each step every processor needs *all*
body positions (to build its octree replica) and writes only its own
bodies.  Under the SC default each remote body read is a blocking miss
after the owner's write invalidated it — N×(P−1) round trips per step.
The custom plan (Figure 7b) runs bodies under ``DynamicUpdate``:
owners' writes are pushed to all sharers, so the read sweep is
entirely local.

Tree build is replicated: every processor is charged
``COST_TREE_PER_BODY * n`` cycles for building its local octree from
the shared positions, the standard structure for DSM N-body codes with
update protocols.  The host builds one tree per distinct input instead
of one per node: within one :func:`bh_program` call, trees are keyed by
the exact bytes of the positions and masses a node read, so a node that
read different values still gets its own.  Forces come from
:func:`batch_forces`, one array walk over all of a node's bodies;
:func:`compute_force` is the scalar walk it must equal bit for bit.

Each body is one region: ``[x, y, z, vx, vy, vz, mass]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BODY_WORDS = 7
POS, VEL, MASS = slice(0, 3), slice(3, 6), 6


@dataclass(frozen=True)
class BHWorkload:
    """Inputs matching Table 3's Barnes-Hut row (scaled by default)."""

    n_bodies: int = 64
    n_steps: int = 2
    theta: float = 1.0  # opening angle (paper: tolerance = 1.0)
    dt: float = 0.05
    eps: float = 0.5    # softening (paper: eps = 0.5)
    seed: int = 99

    @classmethod
    def paper(cls) -> "BHWorkload":
        """Table 3: 16,384 bodies, 4 time-steps, tol=1.0, eps=0.5."""
        return cls(n_bodies=16384, n_steps=4)


SC_PLAN = {"bodies": "SC"}
CUSTOM_PLAN = {"bodies": "DynamicUpdate"}

COST_PER_INTERACTION = 30   # one body-cell or body-body force evaluation
COST_TREE_PER_BODY = 50     # tree insertion per body (replicated build)


def init_bodies(workload: BHWorkload) -> np.ndarray:
    """Deterministic Plummer-ish cluster, shape (n, BODY_WORDS)."""
    rng = np.random.default_rng(workload.seed)
    n = workload.n_bodies
    bodies = np.zeros((n, BODY_WORDS))
    bodies[:, POS] = rng.normal(0.0, 1.0, size=(n, 3))
    bodies[:, VEL] = rng.normal(0.0, 0.05, size=(n, 3))
    bodies[:, MASS] = rng.uniform(0.5, 1.5, size=n)
    return bodies


# ----------------------------------------------------------------- octree
class _Cell:
    """Internal octree cell: center of mass, total mass, children.

    The insertion-time tree; :class:`FlatTree` turns it into the arrays
    the batch walk runs on.  ``center`` is a plain ``(x, y, z)`` float
    tuple — it is only used for insertion comparisons and child
    placement, where scalar floats compare and add exactly like numpy
    vectors.  ``com`` stays a numpy array: :func:`compute_force` needs
    vector arithmetic (and its BLAS dot product) on it.
    """

    __slots__ = ("center", "half", "com", "mass", "children", "body")

    def __init__(self, center, half):
        self.center = center
        self.half = half
        self.com = None
        self.mass = 0.0
        self.children: list | None = None
        self.body: int | None = None  # leaf body index


def build_tree(pos: np.ndarray, mass: np.ndarray) -> _Cell:
    """Build an octree over all bodies (positions (n,3), masses (n,))."""
    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
    center = tuple(((lo + hi) / 2.0).tolist())
    half = float(max((hi - lo).max() / 2.0, 1e-9)) * 1.0001
    root = _Cell(center, half)
    # Insertion runs on a plain nested list: per-element indexing of a
    # numpy row materializes a numpy scalar per comparison, which
    # dominates the build.  ``tolist`` keeps the exact float values,
    # so every comparison (and therefore the tree shape) is unchanged.
    pts = pos.tolist()
    for i in range(pos.shape[0]):
        _insert(root, i, pts)
    _summarize(root, pts, mass.tolist())
    return root


def _insert(cell: _Cell, i: int, pts, depth: int = 0) -> None:
    if cell.children is None and cell.body is None:
        cell.body = i
        return
    if cell.children is None:
        old = cell.body
        cell.body = None
        cell.children = [None] * 8
        _insert_into_child(cell, old, pts, depth)
    _insert_into_child(cell, i, pts, depth)


def _insert_into_child(cell: _Cell, i: int, pts, depth: int) -> None:
    if depth > 64:
        # Coincident points: geometry cannot separate them, so take the
        # first free slot (or descend into slot 0, whose split then has
        # free slots).  Two bodies sent to one slot here used to split
        # it forever, so no tree that could be built before changes.
        idx = next((k for k, c in enumerate(cell.children) if c is None), 0)
    else:
        p = pts[i]
        cx, cy, cz = cell.center
        idx = (p[0] > cx) | ((p[1] > cy) << 1) | ((p[2] > cz) << 2)
    child = cell.children[idx]
    if child is None:
        q = cell.half / 2.0
        cx, cy, cz = cell.center
        child = _Cell(
            (
                cx + (q if idx & 1 else -q),
                cy + (q if idx & 2 else -q),
                cz + (q if idx & 4 else -q),
            ),
            q,
        )
        cell.children[idx] = child
    _insert(child, i, pts, depth + 1)


def _summarize(cell: _Cell, pts, masses) -> None:
    if cell.body is not None:
        cell.mass = masses[cell.body]
        cell.com = np.array(pts[cell.body])
        return
    total = 0.0
    comx = comy = comz = 0.0
    for child in cell.children or ():
        if child is None:
            continue
        _summarize(child, pts, masses)
        m = child.mass
        total += m
        ccx, ccy, ccz = child.com.tolist()
        comx += m * ccx
        comy += m * ccy
        comz += m * ccz
    cell.mass = total
    if total > 0:
        cell.com = np.array([comx / total, comy / total, comz / total])
    else:
        cell.com = np.array(cell.center)


def compute_force(root: _Cell, i: int, pos, theta: float, eps: float):
    """Barnes-Hut force on body i; returns (force_vec, n_interactions).

    The scalar stack walk: :func:`reference` uses it, and it is the
    oracle :func:`batch_forces` must equal in every count and byte.
    """
    # The force accumulation is scalar component math instead of
    # 3-vector numpy ops: each numpy call costs far more than the
    # arithmetic at this size, and per-component operations are
    # IEEE-identical to their element-wise counterparts.  The opening
    # criterion keeps the numpy dot product — BLAS may contract it
    # with FMA, which plain Python arithmetic cannot reproduce
    # bit-for-bit, and the interaction count (hence the simulated
    # cycle charges) must not move.
    p = pos[i]
    fx = fy = fz = 0.0
    ee = eps * eps
    tt = theta * theta
    count = 0
    stack = [root]
    sqrt = math.sqrt
    while stack:
        cell = stack.pop()
        mass = float(cell.mass)
        if mass == 0.0:
            continue
        if cell.body == i:
            continue
        d = cell.com - p
        r2 = float(d @ d) + ee
        if cell.body is not None or (2.0 * cell.half) ** 2 < tt * r2:
            count += 1
            dx, dy, dz = d.tolist()
            denom = r2 * sqrt(r2)
            fx += (mass * dx) / denom
            fy += (mass * dy) / denom
            fz += (mass * dz) / denom
        else:
            stack.extend(c for c in cell.children if c is not None)
    return np.array([fx, fy, fz]), count


class FlatTree:
    """The octree of :func:`build_tree` as arrays, one row per cell in
    the stack walk's visit order: preorder, children reversed (the walk
    pushes slots 0..7 and pops the last).  Sorting a body's interacting
    cells by row index therefore lists them in the order
    :func:`compute_force` meets them.

    ``com`` (c, 3) and ``mass`` (c,) copy the cells' values exactly;
    ``open2`` is ``(2.0 * half) ** 2`` computed as the scalar walk does;
    ``body`` is a leaf's body index, -1 for an internal cell; ``kids``
    (c, 8) holds each slot's child row, -1 where the slot is empty.
    """

    __slots__ = ("com", "mass", "open2", "body", "kids")

    def __init__(self, pos: np.ndarray, mass: np.ndarray):
        order = []
        stack = [build_tree(pos, mass)]
        while stack:
            cell = stack.pop()
            order.append(cell)
            if cell.children is not None:
                stack.extend(c for c in cell.children if c is not None)
        row = {id(cell): k for k, cell in enumerate(order)}
        self.com = np.array([cell.com for cell in order])
        self.mass = np.array([cell.mass for cell in order])
        self.open2 = np.array([(2.0 * cell.half) ** 2 for cell in order])
        self.body = np.array([-1 if cell.body is None else cell.body for cell in order])
        self.kids = np.array([
            [-1] * 8 if cell.children is None
            else [-1 if c is None else row[id(c)] for c in cell.children]
            for cell in order
        ])


def interactions(tree: FlatTree, pos, bodies, theta: float, eps: float):
    """Every interaction :func:`compute_force` makes for each of ``bodies``,
    walked level by level over all of them at once.

    Returns ``(slot, cell, terms)`` sorted by slot (an index into
    ``bodies``), then by cell row, i.e. each body's interactions in
    visit order; ``terms`` (k, 3) is each one's force contribution.
    Every operation matches the scalar walk's bit for bit: the same
    skips before ``r2``, ``r2`` from the batched BLAS dot that equals
    ``d @ d`` (an einsum or ``(d * d).sum`` does not), and element-wise
    arithmetic elsewhere.
    """
    ee = eps * eps
    tt = theta * theta
    bodies = np.asarray(bodies, dtype=np.intp)
    slot = np.arange(len(bodies))
    cell = np.zeros(len(bodies), dtype=np.intp)
    found = [(slot[:0], cell[:0], np.zeros((0, 3)))]  # a node may own no body
    while cell.size:
        who = bodies[slot]
        live = (tree.mass[cell] != 0.0) & (tree.body[cell] != who)
        slot, cell, who = slot[live], cell[live], who[live]
        d = tree.com[cell] - pos[who]
        r2 = (d[:, None, :] @ d[:, :, None]).ravel() + ee
        hit = (tree.body[cell] >= 0) | (tree.open2[cell] < tt * r2)
        r2h = r2[hit]
        terms = (tree.mass[cell[hit], None] * d[hit]) / (r2h * np.sqrt(r2h))[:, None]
        found.append((slot[hit], cell[hit], terms))
        kids = tree.kids[cell[~hit]]
        present = kids >= 0
        slot = np.broadcast_to(slot[~hit, None], kids.shape)[present]
        cell = kids[present]
    slot, cell, terms = (np.concatenate(parts) for parts in zip(*found))
    order = np.lexsort((cell, slot))
    return slot[order], cell[order], terms[order]


def batch_forces(tree: FlatTree, pos, bodies, theta: float, eps: float):
    """Forces and interaction counts of ``bodies``: ``(forces (k, 3),
    counts)``, each row bit-identical to :func:`compute_force`'s."""
    slot, _, terms = interactions(tree, pos, bodies, theta, eps)
    counts = np.bincount(slot, minlength=len(bodies))
    # Each body's sum runs from 0.0 through its terms in visit order,
    # as the scalar walk's does: a zero row leads every body's run and
    # cumsum adds strictly left to right (np.sum and np.add.reduce are
    # pairwise; builtin sum is compensated on 3.12).
    runs = np.zeros((len(terms) + len(counts), 3))
    runs[np.arange(len(terms)) + slot + 1] = terms
    forces = np.empty((len(counts), 3))
    start = 0
    for k, end in enumerate(np.cumsum(counts + 1).tolist()):
        forces[k] = np.cumsum(runs[start:end], axis=0)[-1]
        start = end
    return forces, counts.tolist()


def reference(workload: BHWorkload) -> np.ndarray:
    """Sequential reference: final body states after n_steps."""
    bodies = init_bodies(workload)
    n = workload.n_bodies
    for _ in range(workload.n_steps):
        pos = bodies[:, POS].copy()
        mass = bodies[:, MASS].copy()
        root = build_tree(pos, mass)
        forces = np.zeros((n, 3))
        for i in range(n):
            forces[i], _ = compute_force(root, i, pos, workload.theta, workload.eps)
        bodies[:, VEL] += workload.dt * forces
        bodies[:, POS] += workload.dt * bodies[:, VEL]
    return bodies


def bh_program(workload: BHWorkload, plan: dict):
    """Build the SPMD program.  Each node returns {body_index: state_row}."""
    shared = {"rids": {}}
    init = init_bodies(workload)
    n = workload.n_bodies
    trees = {}  # (pos bytes, mass bytes) -> FlatTree, for this call only

    def program(ctx):
        nid, n_procs = ctx.nid, ctx.n_procs
        body_space = yield from ctx.new_space("SC")
        my_bodies = [i for i in range(n) if i % n_procs == nid]
        for i in my_bodies:
            rid = yield from ctx.gmalloc(body_space, BODY_WORDS)
            shared["rids"][i] = rid
        yield from ctx.barrier()
        yield from ctx.change_protocol(body_space, plan["bodies"])

        handles = {}
        for i in range(n):
            handles[i] = yield from ctx.map(shared["rids"][i])
        for i in my_bodies:
            yield from ctx.write_region(handles[i], init[i])
        yield from ctx.barrier(body_space)

        # Hoisted access calls: the read sweep touches every body each
        # step, so each attribute lookup shaved here is paid n times.
        start_read = ctx.start_read
        end_read = ctx.end_read
        start_write = ctx.start_write
        end_write = ctx.end_write
        compute = ctx.compute

        for _ in range(workload.n_steps):
            # read the entire body set (tree build input)
            pos = np.zeros((n, 3))
            mass = np.zeros(n)
            for i in range(n):
                h = handles[i]
                yield from start_read(h)
                pos[i] = h.data[POS]
                mass[i] = h.data[MASS]
                yield from end_read(h)
            # every node's sweep ends before any owner writes this step
            yield from ctx.barrier(body_space)
            # replicated local tree build: charged on every node, built
            # on the host once per distinct input
            yield from compute(COST_TREE_PER_BODY * n)
            key = (pos.tobytes(), mass.tobytes())
            tree = trees.get(key)
            if tree is None:
                tree = trees[key] = FlatTree(pos, mass)
            # forces depend only on the tree and pos, so they are all
            # computed before the per-body charges and writes
            forces, counts = batch_forces(tree, pos, my_bodies, workload.theta, workload.eps)
            # integration for own bodies
            for i, force, cnt in zip(my_bodies, forces, counts):
                yield from compute(COST_PER_INTERACTION * cnt)
                h = handles[i]
                yield from start_write(h)
                h.data[VEL] += workload.dt * force
                h.data[POS] += workload.dt * h.data[VEL]
                yield from end_write(h)
            yield from ctx.barrier(body_space)

        out = {}
        for i in my_bodies:
            data = yield from ctx.read_region(handles[i])
            out[i] = np.array(data)
        return out

    return program


def collect_results(run_result, workload: BHWorkload) -> np.ndarray:
    """Merge per-node returns into the (n, BODY_WORDS) state array."""
    state = np.zeros((workload.n_bodies, BODY_WORDS))
    for part in run_result.results:
        for i, row in part.items():
            state[i] = row
    return state
