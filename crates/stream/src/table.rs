//! Delta-maintained joint-count state and deterministic score reads.
//!
//! [`IncTable`] is the streaming counterpart of
//! [`afd_relation::ContingencyTable`]: the same joint counts `n_ij`, row
//! sums `a_i`, column sums `b_j` and `N`, but mutable one tuple at a time
//! ([`IncTable::insert`] / [`IncTable::delete`], O(1) amortised each, plus
//! an O(distinct-Y-of-group) max recomputation when a delete lowers a
//! group's majority count).
//!
//! # Why score reads are bitwise deterministic
//!
//! Every maintained aggregate is an **integer** (exact under insert and
//! delete), and every floating-point reduction in [`IncTable::scores`]
//! iterates a `BTreeMap` *histogram* keyed by count value — never a group
//! id, never a hash order. Two `IncTable`s holding the same multiset of
//! counts therefore produce bit-identical `f64` scores, regardless of the
//! insert/delete interleaving that built them. This is what lets the
//! proptests pin `incremental == from-scratch rebuild` at the bit level,
//! and lets compaction assert equivalence instead of "approximately
//! equal".
//!
//! The per-group Shannon terms are thereby patched group-by-group: a
//! touched group moves its old count out of the histogram and its new
//! count in; untouched groups' contributions are never recomputed.

use std::collections::{BTreeMap, HashMap};

use afd_wire::{Decode, DecodeError, Encode, Reader};

/// Per-X-group state: total, sum of squared cell counts, majority count,
/// and the nonzero cells themselves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct XGroup {
    /// `a_i = Σ_j n_ij`.
    total: u64,
    /// `Σ_j n_ij²`.
    sq: u64,
    /// `max_j n_ij` (the g3 majority).
    max: u64,
    /// Nonzero cells `y -> n_ij`.
    ys: HashMap<u32, u64>,
}

/// Count-value histogram: `count -> how many groups/cells hold it`.
///
/// Distinct positive integers summing to `N` number at most `O(√N)`, so
/// these stay tiny even for large relations — score reads cost
/// `O(distinct count values)`, not `O(K)`.
type CountHist = BTreeMap<u64, u64>;

fn hist_inc(h: &mut CountHist, v: u64) {
    if v > 0 {
        *h.entry(v).or_insert(0) += 1;
    }
}

fn hist_dec(h: &mut CountHist, v: u64) {
    if v == 0 {
        return;
    }
    let m = h.get_mut(&v).expect("histogram holds every live count");
    *m -= 1;
    if *m == 0 {
        h.remove(&v);
    }
}

/// `Σ v·log2(v) · mult` over a histogram, in ascending-key order.
fn hist_entropy_sum(h: &CountHist) -> f64 {
    let mut s = 0.0;
    for (&v, &mult) in h {
        if v > 1 {
            s += mult as f64 * (v as f64) * (v as f64).log2();
        }
    }
    s
}

/// Incrementally maintained joint counts of one FD candidate `X -> Y`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncTable {
    /// Tuples currently counted (`N`).
    n: u64,
    /// X-groups by dense side id.
    groups: HashMap<u32, XGroup>,
    /// Column sums `b_j` by dense side id.
    col_totals: HashMap<u32, u64>,
    /// `|dom(XY)|`: number of nonzero cells.
    nonzero_cells: u64,
    /// `Σ_i max_j n_ij` (the g3 numerator).
    sum_row_max: u64,
    /// `Σ_i a_i` over groups with ≥ 2 distinct Y values (the g2 mass).
    violating_mass: u64,
    /// `Σ_i a_i²`, `Σ_j b_j²`, `Σ_ij n_ij²` — exact integers.
    sum_sq_rows: u64,
    sum_sq_cols: u64,
    sum_sq_cells: u64,
    /// Histograms of `a_i` / `b_j` / `n_ij` values (Shannon terms).
    hist_rows: CountHist,
    hist_cols: CountHist,
    hist_cells: CountHist,
    /// Histogram of `(a_i, Σ_j n_ij²)` group shapes (the pdep term).
    hist_row_shape: BTreeMap<(u64, u64), u64>,
}

impl IncTable {
    /// An empty table.
    pub fn new() -> Self {
        IncTable::default()
    }

    /// Total tuple count `N`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// `K_X = |dom(X)|`.
    pub fn n_x(&self) -> usize {
        self.groups.len()
    }

    /// `K_Y = |dom(Y)|`.
    pub fn n_y(&self) -> usize {
        self.col_totals.len()
    }

    /// `|dom(XY)|`: nonzero cells.
    pub fn nonzero_cells(&self) -> u64 {
        self.nonzero_cells
    }

    /// `Σ_i max_j n_ij`.
    pub fn sum_row_max(&self) -> u64 {
        self.sum_row_max
    }

    /// `true` iff the (NULL-filtered) FD holds exactly: every X-group
    /// carries a single Y value. Vacuously true when empty.
    pub fn is_exact_fd(&self) -> bool {
        self.nonzero_cells == self.groups.len() as u64
    }

    /// Counts one tuple `(x, y)` in.
    pub fn insert(&mut self, x: u32, y: u32) {
        self.n += 1;
        // Column side.
        let b = self.col_totals.entry(y).or_insert(0);
        let old_b = *b;
        *b += 1;
        hist_dec(&mut self.hist_cols, old_b);
        hist_inc(&mut self.hist_cols, old_b + 1);
        self.sum_sq_cols += 2 * old_b + 1;
        // Group side.
        let g = self.groups.entry(x).or_default();
        let old_a = g.total;
        let old_sq = g.sq;
        let old_distinct = g.ys.len();
        let c = g.ys.entry(y).or_insert(0);
        let old_c = *c;
        *c += 1;
        g.total += 1;
        g.sq += 2 * old_c + 1;
        if old_c + 1 > g.max {
            self.sum_row_max += old_c + 1 - g.max;
            g.max = old_c + 1;
        }
        let (new_total, new_sq, new_distinct) = (g.total, g.sq, g.ys.len());
        if old_c == 0 {
            self.nonzero_cells += 1;
        }
        self.sum_sq_cells += 2 * old_c + 1;
        self.sum_sq_rows += 2 * old_a + 1;
        hist_dec(&mut self.hist_cells, old_c);
        hist_inc(&mut self.hist_cells, old_c + 1);
        hist_dec(&mut self.hist_rows, old_a);
        hist_inc(&mut self.hist_rows, old_a + 1);
        self.shape_move((old_a, old_sq), (new_total, new_sq));
        if old_distinct >= 2 {
            self.violating_mass -= old_a;
        }
        if new_distinct >= 2 {
            self.violating_mass += new_total;
        }
    }

    /// Counts one tuple `(x, y)` out.
    ///
    /// # Panics
    /// Panics if `(x, y)` is not currently counted (engine bug — callers
    /// translate row ids to side ids, so a miss means corrupted state).
    pub fn delete(&mut self, x: u32, y: u32) {
        self.n -= 1;
        // Column side.
        let b = self
            .col_totals
            .get_mut(&y)
            .expect("delete of uncounted y id");
        let old_b = *b;
        *b -= 1;
        if *b == 0 {
            self.col_totals.remove(&y);
        }
        hist_dec(&mut self.hist_cols, old_b);
        hist_inc(&mut self.hist_cols, old_b - 1);
        self.sum_sq_cols -= 2 * old_b - 1;
        // Group side.
        let g = self.groups.get_mut(&x).expect("delete of uncounted x id");
        let old_a = g.total;
        let old_sq = g.sq;
        let old_distinct = g.ys.len();
        let c = g.ys.get_mut(&y).expect("delete of uncounted cell");
        let old_c = *c;
        *c -= 1;
        if *c == 0 {
            g.ys.remove(&y);
            self.nonzero_cells -= 1;
        }
        g.total -= 1;
        g.sq -= 2 * old_c - 1;
        if old_c == g.max {
            // The decremented cell was (one of) the majority: re-derive
            // the max over this group's remaining cells only.
            let new_max = g.ys.values().copied().max().unwrap_or(0);
            self.sum_row_max -= g.max - new_max;
            g.max = new_max;
        }
        let (new_total, new_sq, new_distinct) = (g.total, g.sq, g.ys.len());
        if new_total == 0 {
            self.groups.remove(&x);
        }
        self.sum_sq_cells -= 2 * old_c - 1;
        self.sum_sq_rows -= 2 * old_a - 1;
        hist_dec(&mut self.hist_cells, old_c);
        hist_inc(&mut self.hist_cells, old_c - 1);
        hist_dec(&mut self.hist_rows, old_a);
        hist_inc(&mut self.hist_rows, old_a - 1);
        self.shape_move((old_a, old_sq), (new_total, new_sq));
        if old_distinct >= 2 {
            self.violating_mass -= old_a;
        }
        if new_distinct >= 2 {
            self.violating_mass += new_total;
        }
    }

    fn shape_move(&mut self, from: (u64, u64), to: (u64, u64)) {
        if from.0 > 0 {
            let m = self
                .hist_row_shape
                .get_mut(&from)
                .expect("shape histogram holds every live group");
            *m -= 1;
            if *m == 0 {
                self.hist_row_shape.remove(&from);
            }
        }
        if to.0 > 0 {
            *self.hist_row_shape.entry(to).or_insert(0) += 1;
        }
    }

    /// Merges shard tables into one table covering their union.
    ///
    /// Each part comes with a *Y-side remap* `local id -> global id`
    /// (length ≥ the part's largest live Y id + 1) identifying which local
    /// Y ids across shards denote the same Y value. The caller guarantees
    /// the parts' **X-group key spaces are value-disjoint** (rows were
    /// hash-partitioned by a key the X side determines — see
    /// `DeltaRouter`); under that contract every X-side aggregate is a
    /// plain sum, while the Y margins (`b_j`, their squares and histogram)
    /// are re-derived from the remapped, summed column totals.
    ///
    /// The merge is **order-independent by design**: all maintained
    /// aggregates are integers or count-value histograms, so any part
    /// order yields bit-identical [`IncTable::scores`] — and those scores
    /// are bit-identical to a single unsharded table over the same rows.
    pub fn merge<'a>(parts: impl IntoIterator<Item = (&'a IncTable, &'a [u32])>) -> IncTable {
        let mut out = IncTable::new();
        let mut next_x: u32 = 0;
        // Global column totals, summed across shards by global Y id.
        let mut cols: BTreeMap<u32, u64> = BTreeMap::new();
        for (t, y_map) in parts {
            out.n += t.n;
            out.nonzero_cells += t.nonzero_cells;
            out.sum_row_max += t.sum_row_max;
            out.violating_mass += t.violating_mass;
            out.sum_sq_rows += t.sum_sq_rows;
            out.sum_sq_cells += t.sum_sq_cells;
            for (&v, &mult) in &t.hist_rows {
                *out.hist_rows.entry(v).or_insert(0) += mult;
            }
            for (&v, &mult) in &t.hist_cells {
                *out.hist_cells.entry(v).or_insert(0) += mult;
            }
            for (&shape, &mult) in &t.hist_row_shape {
                *out.hist_row_shape.entry(shape).or_insert(0) += mult;
            }
            // X groups are disjoint by contract; renumber them densely
            // (in sorted local-id order so the merged map is
            // deterministic) and remap their cell keys to global Y ids.
            let mut xs: Vec<u32> = t.groups.keys().copied().collect();
            xs.sort_unstable();
            for x in xs {
                let g = &t.groups[&x];
                out.groups.insert(
                    next_x,
                    XGroup {
                        total: g.total,
                        sq: g.sq,
                        max: g.max,
                        ys: g.ys.iter().map(|(&y, &c)| (y_map[y as usize], c)).collect(),
                    },
                );
                next_x += 1;
            }
            for (&y, &b) in &t.col_totals {
                *cols.entry(y_map[y as usize]).or_insert(0) += b;
            }
        }
        for (&y, &b) in &cols {
            out.col_totals.insert(y, b);
            out.sum_sq_cols += b * b;
            hist_inc(&mut out.hist_cols, b);
        }
        out
    }

    /// The current scores of the incremental measure family.
    ///
    /// Applies the paper's conventions exactly like
    /// [`afd_core::Measure::score_contingency`]: empty or exactly
    /// satisfied tables score 1 across the board, everything else is
    /// clamped into `[0, 1]`.
    ///
    /// [`afd_core::Measure::score_contingency`]:
    /// https://docs.rs/afd-core (Measure trait)
    pub fn scores(&self) -> StreamScores {
        ScoreAggregates {
            n: self.n,
            kx: self.groups.len() as u64,
            nonzero_cells: self.nonzero_cells,
            sum_row_max: self.sum_row_max,
            violating_mass: self.violating_mass,
            sum_sq_rows: self.sum_sq_rows,
            sum_sq_cols: self.sum_sq_cols,
            sum_sq_cells: self.sum_sq_cells,
            hist_rows: &self.hist_rows,
            hist_cols: &self.hist_cols,
            hist_cells: &self.hist_cells,
            hist_row_shape: &self.hist_row_shape,
        }
        .scores()
    }

    /// The scores of the *union* of shard tables — bit-identical to
    /// `IncTable::merge(parts).scores()` (same contract: X-group key
    /// spaces value-disjoint, remaps to a shared Y-id space) but without
    /// materialising the merged group/cell maps, which scores never
    /// read. Cost is O(histograms + column totals), not
    /// O(groups + cells) — the coordinator's per-apply read path.
    pub fn merged_scores<'a>(
        parts: impl IntoIterator<Item = (&'a IncTable, &'a [u32])>,
    ) -> StreamScores {
        let mut n = 0u64;
        let mut kx = 0u64;
        let mut nonzero_cells = 0u64;
        let mut sum_row_max = 0u64;
        let mut violating_mass = 0u64;
        let mut sum_sq_rows = 0u64;
        let mut sum_sq_cells = 0u64;
        let mut hist_rows = CountHist::new();
        let mut hist_cells = CountHist::new();
        let mut hist_row_shape: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut cols: BTreeMap<u32, u64> = BTreeMap::new();
        for (t, y_map) in parts {
            n += t.n;
            kx += t.groups.len() as u64;
            nonzero_cells += t.nonzero_cells;
            sum_row_max += t.sum_row_max;
            violating_mass += t.violating_mass;
            sum_sq_rows += t.sum_sq_rows;
            sum_sq_cells += t.sum_sq_cells;
            for (&v, &mult) in &t.hist_rows {
                *hist_rows.entry(v).or_insert(0) += mult;
            }
            for (&v, &mult) in &t.hist_cells {
                *hist_cells.entry(v).or_insert(0) += mult;
            }
            for (&shape, &mult) in &t.hist_row_shape {
                *hist_row_shape.entry(shape).or_insert(0) += mult;
            }
            for (&y, &b) in &t.col_totals {
                *cols.entry(y_map[y as usize]).or_insert(0) += b;
            }
        }
        let mut sum_sq_cols = 0u64;
        let mut hist_cols = CountHist::new();
        for &b in cols.values() {
            sum_sq_cols += b * b;
            hist_inc(&mut hist_cols, b);
        }
        ScoreAggregates {
            n,
            kx,
            nonzero_cells,
            sum_row_max,
            violating_mass,
            sum_sq_rows,
            sum_sq_cols,
            sum_sq_cells,
            hist_rows: &hist_rows,
            hist_cols: &hist_cols,
            hist_cells: &hist_cells,
            hist_row_shape: &hist_row_shape,
        }
        .scores()
    }
}

/// The exact inputs a score read consumes — borrowed from one table's
/// fields ([`IncTable::scores`]) or summed across shards
/// ([`IncTable::merged_scores`]). Keeping both paths on this one struct
/// is what guarantees their bit-identical results.
struct ScoreAggregates<'a> {
    n: u64,
    kx: u64,
    nonzero_cells: u64,
    sum_row_max: u64,
    violating_mass: u64,
    sum_sq_rows: u64,
    sum_sq_cols: u64,
    sum_sq_cells: u64,
    hist_rows: &'a CountHist,
    hist_cols: &'a CountHist,
    hist_cells: &'a CountHist,
    hist_row_shape: &'a BTreeMap<(u64, u64), u64>,
}

impl ScoreAggregates<'_> {
    fn scores(&self) -> StreamScores {
        if self.n == 0 || self.nonzero_cells == self.kx {
            return StreamScores::exact();
        }
        let nf = self.n as f64;
        let kx = self.kx as f64;
        let n2 = nf * nf;
        // VIOLATION family (pure integer ratios).
        let rho = kx / self.nonzero_cells as f64;
        let g2 = 1.0 - self.violating_mass as f64 / nf;
        let g3 = self.sum_row_max as f64 / nf;
        let k = self.kx;
        let g3_prime = (self.sum_row_max - k) as f64 / (self.n - k) as f64;
        // LOGICAL family. The integer sums are exact, and every partial
        // f64 sum below 2^53 of integer terms is too, so these match the
        // batch measures bit-for-bit.
        let violating_pairs = (self.sum_sq_rows - self.sum_sq_cells) as f64;
        let g1 = 1.0 - violating_pairs / n2;
        let g1_prime = 1.0 - violating_pairs / (n2 - self.sum_sq_cells as f64);
        // pdep via the group-shape histogram: Σ_i (a_i/N − sq_i/(a_i·N)),
        // identical shapes merged, ascending shape order.
        let mut ecl = 0.0;
        for (&(a, sq), &mult) in self.hist_row_shape {
            let (af, sqf) = (a as f64, sq as f64);
            ecl += mult as f64 * (af / nf - sqf / (af * nf));
        }
        let pdep = 1.0 - ecl.max(0.0);
        let py = self.sum_sq_cols as f64 / n2;
        let tau = (pdep - py) / (1.0 - py);
        let e_pdep = py + (kx - 1.0) / (nf - 1.0) * (1.0 - py);
        let mu_plus = ((pdep - e_pdep) / (1.0 - e_pdep)).max(0.0);
        // SHANNON family via the count histograms:
        // H(Y|X) = (Σ_i a·lg a − Σ_ij c·lg c)/N,
        // H(Y)   = lg N − (Σ_j b·lg b)/N.
        let s_rows = hist_entropy_sum(self.hist_rows);
        let s_cells = hist_entropy_sum(self.hist_cells);
        let s_cols = hist_entropy_sum(self.hist_cols);
        let hyx = ((s_rows - s_cells) / nf).max(0.0);
        let hy = (nf.log2() - s_cols / nf).max(0.0);
        let g1s = (1.0 - hyx).max(0.0);
        // FD violated => |dom(Y)| ≥ 2 => H(Y) > 0.
        let fi = 1.0 - hyx / hy;
        StreamScores {
            rho,
            g2,
            g3,
            g3_prime,
            g1s,
            fi,
            g1,
            g1_prime,
            pdep,
            tau,
            mu_plus,
        }
        .clamped()
    }
}

// ------------------------------------------------------------ state patch

/// The change to one [`IncTable`]: the new value of every X group and
/// column total the change touched, plus the sender's scalar aggregates
/// as a check.
///
/// A shard worker ships one per candidate after every mutating request
/// ([`crate::wire::StatePatch`]), and the coordinator applies it to its
/// mirror of the worker's table ([`IncTable::apply_patch`]) — O(touched),
/// not O(state). A full resync is the same form against an empty table
/// ([`IncTable::full_patch`]). Groups and columns are sorted by id and
/// cells by Y id, so equal changes encode to identical bytes; every
/// carried value is an integer, so the mirror's score reads are
/// **bit-identical** to the sender's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TablePatch {
    /// `(x, cells)` per touched X group in ascending `x`: the group's
    /// nonzero `(y, n_xy)` cells in ascending `y`, empty once the group
    /// is gone.
    pub groups: Vec<(u32, Vec<(u32, u64)>)>,
    /// `(y, b_y)` per touched column in ascending `y`; `0` once the
    /// column is gone.
    pub cols: Vec<(u32, u64)>,
    /// The sender's [`IncTable::check_scalars`] after the change.
    pub check: [u64; 8],
}

impl Encode for TablePatch {
    fn encode(&self, out: &mut Vec<u8>) {
        self.groups.encode(out);
        self.cols.encode(out);
        for v in self.check {
            v.encode(out);
        }
    }
}

impl Decode for TablePatch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let groups = Vec::decode(r)?;
        let cols = Vec::decode(r)?;
        let mut check = [0u64; 8];
        for v in &mut check {
            *v = u64::decode(r)?;
        }
        Ok(TablePatch {
            groups,
            cols,
            check,
        })
    }
}

impl XGroup {
    /// A group from its nonzero cells (ascending `y`, each `< n_y`), whose
    /// total may not exceed `max_count`.
    fn from_cells(cells: &[(u32, u64)], n_y: usize, max_count: u64) -> Result<XGroup, String> {
        let mut g = XGroup {
            ys: HashMap::with_capacity(cells.len()),
            ..XGroup::default()
        };
        let mut last = None;
        for &(y, c) in cells {
            if last.is_some_and(|l| l >= y) {
                return Err(format!("cell {y} out of order"));
            }
            last = Some(y);
            if y as usize >= n_y {
                return Err(format!("Y id {y} beyond the {n_y} Y key(s)"));
            }
            if c == 0 {
                return Err(format!("zero count in cell {y}"));
            }
            g.total = g
                .total
                .checked_add(c)
                .filter(|&t| t <= max_count)
                .ok_or_else(|| format!("group total exceeds {max_count} live rows"))?;
            // c ≤ total ≤ max_count < 2^32, so Σ c² ≤ total² fits.
            g.sq += c * c;
            g.max = g.max.max(c);
            g.ys.insert(y, c);
        }
        Ok(g)
    }
}

impl IncTable {
    /// The eight scalar aggregates a [`TablePatch`] carries as its check:
    /// `N`, nonzero cells, `Σ max`, violating mass, the three sums of
    /// squares (rows, columns, cells) and `K_X`.
    pub fn check_scalars(&self) -> [u64; 8] {
        [
            self.n,
            self.nonzero_cells,
            self.sum_row_max,
            self.violating_mass,
            self.sum_sq_rows,
            self.sum_sq_cols,
            self.sum_sq_cells,
            self.groups.len() as u64,
        ]
    }

    /// The patch from this table's state before a change to its state
    /// now, given the X group and Y column ids the change touched (each
    /// ascending and deduplicated). Costs O(touched ids + their cells).
    pub fn patch(&self, xs: &[u32], ys: &[u32]) -> TablePatch {
        TablePatch {
            groups: xs
                .iter()
                .map(|&x| {
                    let mut cells: Vec<(u32, u64)> = self
                        .groups
                        .get(&x)
                        .map(|g| g.ys.iter().map(|(&y, &c)| (y, c)).collect())
                        .unwrap_or_default();
                    cells.sort_unstable();
                    (x, cells)
                })
                .collect(),
            cols: ys
                .iter()
                .map(|y| (*y, self.col_totals.get(y).copied().unwrap_or(0)))
                .collect(),
            check: self.check_scalars(),
        }
    }

    /// The patch that rebuilds this table from an empty one (a resync).
    pub fn full_patch(&self) -> TablePatch {
        let mut xs: Vec<u32> = self.groups.keys().copied().collect();
        xs.sort_unstable();
        let mut ys: Vec<u32> = self.col_totals.keys().copied().collect();
        ys.sort_unstable();
        self.patch(&xs, &ys)
    }

    /// Applies a [`TablePatch`]: each listed group and column replaces
    /// the current one — its old contribution to every aggregate and
    /// histogram comes out, the new one goes in — and the result is
    /// checked against the sender's scalars.
    ///
    /// Total on any input: the only counts ever taken out are ones an
    /// earlier patch put in, and everything the patch brings is
    /// validated first, so no histogram or arithmetic invariant can
    /// break. `n_y` bounds the Y ids (the Y keys known so far) and
    /// `max_count` every count (the sender's live rows, capped below
    /// 2^32 so squares fit). On `Err` the table may be half-patched and
    /// must be discarded.
    ///
    /// # Errors
    /// The first violated rule: an entry out of order, the removal of a
    /// group or column that is not there, a Y id `≥ n_y`, a zero cell, a
    /// count above `max_count`, column totals that do not move with the
    /// group mass (a column would hold less or more than its cells), or
    /// derived scalars that differ from the sender's.
    pub fn apply_patch(
        &mut self,
        patch: &TablePatch,
        n_y: usize,
        max_count: u64,
    ) -> Result<(), String> {
        let max_count = max_count.min(u64::from(u32::MAX));
        let n_before = self.n;
        let mut last = None;
        for (x, cells) in &patch.groups {
            if last.is_some_and(|l| l >= *x) {
                return Err(format!("X group {x} out of order"));
            }
            last = Some(*x);
            if cells.is_empty() {
                if !self.unlink_group(*x) {
                    return Err(format!("removes unknown X group {x}"));
                }
                continue;
            }
            let g = XGroup::from_cells(cells, n_y, max_count)
                .map_err(|e| format!("X group {x}: {e}"))?;
            self.unlink_group(*x);
            self.link_group(*x, g)
                .ok_or_else(|| format!("X group {x} overflows the aggregates"))?;
        }
        let mut col_moved: i128 = 0;
        let mut last = None;
        for &(y, b) in &patch.cols {
            if last.is_some_and(|l| l >= y) {
                return Err(format!("column {y} out of order"));
            }
            last = Some(y);
            if y as usize >= n_y {
                return Err(format!("column {y} beyond the {n_y} Y key(s)"));
            }
            if b > max_count {
                return Err(format!(
                    "column {y} total {b} exceeds {max_count} live rows"
                ));
            }
            let old = self.col_totals.get(&y).copied().unwrap_or(0);
            if old == 0 && b == 0 {
                return Err(format!("removes unknown column {y}"));
            }
            let sum_sq_cols = (self.sum_sq_cols - old * old)
                .checked_add(b * b)
                .ok_or_else(|| format!("column {y} overflows the aggregates"))?;
            self.sum_sq_cols = sum_sq_cols;
            hist_dec(&mut self.hist_cols, old);
            hist_inc(&mut self.hist_cols, b);
            if b == 0 {
                self.col_totals.remove(&y);
            } else {
                self.col_totals.insert(y, b);
            }
            col_moved += i128::from(b) - i128::from(old);
        }
        let group_moved = i128::from(self.n) - i128::from(n_before);
        if col_moved != group_moved {
            return Err(format!(
                "column totals move N by {col_moved} but the X groups by {group_moved}: a \
                 column count under- or overflows its cells"
            ));
        }
        let derived = self.check_scalars();
        if derived != patch.check {
            return Err(format!(
                "scalar check failed: derived {derived:?}, sender {:?}",
                patch.check
            ));
        }
        Ok(())
    }

    /// Counts a whole group in. `None`, with the table untouched, when an
    /// aggregate would overflow.
    fn link_group(&mut self, x: u32, g: XGroup) -> Option<()> {
        let distinct = g.ys.len() as u64;
        let n = self.n.checked_add(g.total)?;
        // total ≤ max_count < 2^32 (see `XGroup::from_cells`).
        let sum_sq_rows = self.sum_sq_rows.checked_add(g.total * g.total)?;
        let sum_sq_cells = self.sum_sq_cells.checked_add(g.sq)?;
        let sum_row_max = self.sum_row_max.checked_add(g.max)?;
        let nonzero_cells = self.nonzero_cells.checked_add(distinct)?;
        let violating_mass = if distinct >= 2 {
            self.violating_mass.checked_add(g.total)?
        } else {
            self.violating_mass
        };
        self.n = n;
        self.sum_sq_rows = sum_sq_rows;
        self.sum_sq_cells = sum_sq_cells;
        self.sum_row_max = sum_row_max;
        self.nonzero_cells = nonzero_cells;
        self.violating_mass = violating_mass;
        hist_inc(&mut self.hist_rows, g.total);
        for &c in g.ys.values() {
            hist_inc(&mut self.hist_cells, c);
        }
        self.shape_move((0, 0), (g.total, g.sq));
        self.groups.insert(x, g);
        Some(())
    }

    /// Counts group `x` out whole; `false` when there is no such group.
    /// Only removes what [`IncTable::link_group`] or the hot path put in,
    /// so the histogram invariants hold.
    fn unlink_group(&mut self, x: u32) -> bool {
        let Some(g) = self.groups.remove(&x) else {
            return false;
        };
        self.n -= g.total;
        self.nonzero_cells -= g.ys.len() as u64;
        self.sum_row_max -= g.max;
        if g.ys.len() >= 2 {
            self.violating_mass -= g.total;
        }
        self.sum_sq_rows -= g.total * g.total;
        self.sum_sq_cells -= g.sq;
        hist_dec(&mut self.hist_rows, g.total);
        for &c in g.ys.values() {
            hist_dec(&mut self.hist_cells, c);
        }
        self.shape_move((g.total, g.sq), (0, 0));
        true
    }
}

/// Scores of the incrementally maintained measures: the paper's eleven
/// *efficiently computable* measures (everything except the RFI family
/// and SFI, whose permutation/smoothing sums are not decomposable into
/// per-group patches).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamScores {
    /// ρ (CORDS co-occurrence ratio).
    pub rho: f64,
    /// g2 (non-violating tuple probability).
    pub g2: f64,
    /// g3 (largest satisfying subrelation).
    pub g3: f64,
    /// g3′ (rescaled g3).
    pub g3_prime: f64,
    /// g1ˢ (Shannon counterpart of g1).
    pub g1s: f64,
    /// FI (fraction of information).
    pub fi: f64,
    /// g1 (one minus violating-pair probability).
    pub g1: f64,
    /// g1′ (normalised g1).
    pub g1_prime: f64,
    /// pdep (Piatetsky-Shapiro & Matheus).
    pub pdep: f64,
    /// τ (Goodman & Kruskal).
    pub tau: f64,
    /// µ⁺ (the paper's recommended measure).
    pub mu_plus: f64,
}

impl StreamScores {
    /// Measure names in [`StreamScores::values`] order — the same paper
    /// order as `afd_core::fast_measures()`.
    pub const NAMES: [&'static str; 11] = [
        "rho", "g2", "g3", "g3'", "g1S", "FI", "g1", "g1'", "pdep", "tau", "mu+",
    ];

    /// All scores 1.0 — the exactly-satisfied / empty convention.
    pub fn exact() -> Self {
        StreamScores {
            rho: 1.0,
            g2: 1.0,
            g3: 1.0,
            g3_prime: 1.0,
            g1s: 1.0,
            fi: 1.0,
            g1: 1.0,
            g1_prime: 1.0,
            pdep: 1.0,
            tau: 1.0,
            mu_plus: 1.0,
        }
    }

    /// The scores in [`StreamScores::NAMES`] order.
    pub fn values(&self) -> [f64; 11] {
        [
            self.rho,
            self.g2,
            self.g3,
            self.g3_prime,
            self.g1s,
            self.fi,
            self.g1,
            self.g1_prime,
            self.pdep,
            self.tau,
            self.mu_plus,
        ]
    }

    /// Looks a score up by its paper name (case-insensitive).
    pub fn get(&self, name: &str) -> Option<f64> {
        Self::NAMES
            .iter()
            .position(|n| n.eq_ignore_ascii_case(name))
            .map(|i| self.values()[i])
    }

    /// Largest absolute per-measure difference to `other`.
    pub fn max_abs_diff(&self, other: &StreamScores) -> f64 {
        self.values()
            .iter()
            .zip(other.values())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// `true` iff every score is bit-identical to `other`'s.
    pub fn bits_eq(&self, other: &StreamScores) -> bool {
        self.values()
            .iter()
            .zip(other.values())
            .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    fn clamped(mut self) -> Self {
        for v in [
            &mut self.rho,
            &mut self.g2,
            &mut self.g3,
            &mut self.g3_prime,
            &mut self.g1s,
            &mut self.fi,
            &mut self.g1,
            &mut self.g1_prime,
            &mut self.pdep,
            &mut self.tau,
            &mut self.mu_plus,
        ] {
            *v = v.clamp(0.0, 1.0);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserts the hand-computed fixture from the measure tests:
    /// X=a: y1 ×3, y2 ×1 ; X=b: y1 ×4. N = 8.
    fn fixture() -> IncTable {
        let mut t = IncTable::new();
        for _ in 0..3 {
            t.insert(0, 0);
        }
        t.insert(0, 1);
        for _ in 0..4 {
            t.insert(1, 0);
        }
        t
    }

    #[test]
    fn aggregates_match_hand_computation() {
        let t = fixture();
        assert_eq!(t.n(), 8);
        assert_eq!(t.n_x(), 2);
        assert_eq!(t.n_y(), 2);
        assert_eq!(t.nonzero_cells(), 3);
        assert_eq!(t.sum_row_max(), 3 + 4);
        assert_eq!(t.sum_sq_rows, 16 + 16);
        assert_eq!(t.sum_sq_cols, 49 + 1);
        assert_eq!(t.sum_sq_cells, 9 + 1 + 16);
        assert_eq!(t.violating_mass, 4);
        assert!(!t.is_exact_fd());
    }

    #[test]
    fn scores_match_paper_hand_values() {
        let s = fixture().scores();
        assert!((s.rho - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.g2 - 0.5).abs() < 1e-12);
        assert!((s.g3 - 7.0 / 8.0).abs() < 1e-12);
        assert!((s.g1 - (1.0 - 6.0 / 64.0)).abs() < 1e-12);
        assert!((s.g1_prime - (1.0 - 6.0 / 38.0)).abs() < 1e-12);
        assert!((s.pdep - 6.5 / 8.0).abs() < 1e-12);
        assert!((s.tau - 2.0 / 14.0).abs() < 1e-12);
        let h = 0.5 * -(0.75f64 * 0.75f64.log2() + 0.25 * 0.25f64.log2());
        assert!((s.g1s - (1.0 - h)).abs() < 1e-12);
    }

    #[test]
    fn delete_undoes_insert_exactly() {
        let base = fixture();
        let mut t = base.clone();
        t.insert(0, 1);
        t.insert(2, 5);
        t.delete(2, 5);
        t.delete(0, 1);
        assert!(t.scores().bits_eq(&base.scores()));
        assert_eq!(t.n(), base.n());
        assert_eq!(t.hist_rows, base.hist_rows);
        assert_eq!(t.hist_row_shape, base.hist_row_shape);
    }

    #[test]
    fn delete_majority_cell_recomputes_max() {
        let mut t = fixture();
        // X=1 has only y1 ×4; delete two -> max drops to 2.
        t.delete(1, 0);
        t.delete(1, 0);
        assert_eq!(t.sum_row_max(), 3 + 2);
        // Delete X=0's majority down below the minority.
        t.delete(0, 0);
        t.delete(0, 0);
        t.delete(0, 0);
        // X=0 now has only y2 ×1 -> exact-FD shape for that group.
        assert_eq!(t.sum_row_max(), 1 + 2);
    }

    #[test]
    fn empty_and_exact_score_one() {
        let t = IncTable::new();
        assert!(t.scores().bits_eq(&StreamScores::exact()));
        let mut t = IncTable::new();
        t.insert(0, 0);
        t.insert(1, 1);
        t.insert(1, 1);
        assert!(t.is_exact_fd());
        assert_eq!(t.scores().g3, 1.0);
        // One violation flips it.
        t.insert(1, 0);
        assert!(!t.is_exact_fd());
        assert!(t.scores().g3 < 1.0);
    }

    #[test]
    fn group_vanishes_when_emptied() {
        let mut t = IncTable::new();
        t.insert(5, 5);
        t.delete(5, 5);
        assert_eq!(t.n(), 0);
        assert_eq!(t.n_x(), 0);
        assert_eq!(t.n_y(), 0);
        assert_eq!(t.nonzero_cells(), 0);
        assert!(t.hist_rows.is_empty());
        assert!(t.hist_row_shape.is_empty());
    }

    #[test]
    fn merge_of_disjoint_x_partitions_is_bit_exact_and_order_independent() {
        // Whole table: X=a {y1×3, y2×1}, X=b {y1×4}, X=c {y2×2, y3×1}.
        let mut whole = fixture(); // a, b with y ids 0/1
        whole.insert(2, 1);
        whole.insert(2, 1);
        whole.insert(2, 2);
        // Shard 0 holds {a, b} with local y ids 0=y1, 1=y2; shard 1 holds
        // {c} with local y ids 0=y2, 1=y3.
        let s0 = fixture();
        let mut s1 = IncTable::new();
        s1.insert(0, 0);
        s1.insert(0, 0);
        s1.insert(0, 1);
        let (m0, m1): (&[u32], &[u32]) = (&[0, 1], &[1, 2]);
        let merged = IncTable::merge([(&s0, m0), (&s1, m1)]);
        assert_eq!(merged.n(), whole.n());
        assert_eq!(merged.n_x(), whole.n_x());
        assert_eq!(merged.n_y(), whole.n_y());
        assert_eq!(merged.nonzero_cells(), whole.nonzero_cells());
        assert_eq!(merged.sum_sq_cols, whole.sum_sq_cols);
        assert_eq!(merged.hist_cols, whole.hist_cols);
        assert!(merged.scores().bits_eq(&whole.scores()));
        // The materialisation-free score merge agrees bit-for-bit.
        let light = IncTable::merged_scores([(&s0, m0), (&s1, m1)]);
        assert!(light.bits_eq(&whole.scores()));
        // Reversed part order: bit-identical scores.
        let swapped = IncTable::merge([(&s1, m1), (&s0, m0)]);
        assert!(swapped.scores().bits_eq(&whole.scores()));
        assert!(IncTable::merged_scores([(&s1, m1), (&s0, m0)]).bits_eq(&whole.scores()));
        // A merged table keeps working as a live table.
        let mut live = merged;
        live.insert(99, 7);
        live.delete(99, 7);
        assert!(live.scores().bits_eq(&whole.scores()));
    }

    #[test]
    fn merge_of_single_part_is_identity_for_scores() {
        let t = fixture();
        let map: Vec<u32> = vec![0, 1];
        let merged = IncTable::merge([(&t, map.as_slice())]);
        assert!(merged.scores().bits_eq(&t.scores()));
        assert_eq!(merged.hist_rows, t.hist_rows);
        assert_eq!(merged.hist_row_shape, t.hist_row_shape);
    }

    #[test]
    fn wire_roundtrip_is_exact_and_canonical() {
        let mut t = fixture();
        t.insert(7, 9);
        t.delete(1, 0);
        // A table travels as its full patch, applied to an empty mirror.
        let bytes = t.full_patch().encode_to_vec();
        let patch = TablePatch::decode_exact(&bytes).expect("patch decodes");
        let mut back = IncTable::new();
        back.apply_patch(&patch, 10, 100).expect("resync applies");
        assert_eq!(back, t);
        assert!(back.scores().bits_eq(&t.scores()));
        // Canonical form: equal tables encode to identical bytes even
        // though the in-memory maps hash nondeterministically.
        assert_eq!(back.full_patch().encode_to_vec(), bytes);
        // A patched table keeps working as a live table.
        let mut live = back;
        live.insert(42, 1);
        live.delete(42, 1);
        assert!(live.scores().bits_eq(&t.scores()));
    }

    #[test]
    fn touched_patches_keep_a_mirror_equal() {
        let mut worker = fixture();
        let mut mirror = IncTable::new();
        mirror.apply_patch(&worker.full_patch(), 3, 100).unwrap();
        // Empty one group, grow another, add a fresh one.
        for _ in 0..4 {
            worker.delete(1, 0);
        }
        worker.insert(0, 2);
        worker.insert(5, 1);
        mirror
            .apply_patch(&worker.patch(&[0, 1, 5], &[0, 1, 2]), 3, 100)
            .expect("patch applies");
        assert_eq!(mirror, worker);
        assert!(mirror.scores().bits_eq(&worker.scores()));
    }

    #[test]
    fn names_align_with_values() {
        let s = fixture().scores();
        assert_eq!(s.get("mu+"), Some(s.mu_plus));
        assert_eq!(s.get("G3'"), Some(s.g3_prime));
        assert_eq!(s.get("nope"), None);
        assert_eq!(StreamScores::NAMES.len(), s.values().len());
    }
}
