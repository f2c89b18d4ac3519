//! A CDCL SAT solver.
//!
//! MiniSat-style architecture: two-watched-literal propagation, first-UIP
//! conflict analysis with clause learning and backjumping, VSIDS variable
//! activities with an indexed binary heap, phase saving, and Luby restarts.
//! This is the backend the bit-blaster targets, playing the role STP's SAT
//! core plays in the paper's pipeline.

/// A propositional literal: variable index * 2, +1 if negated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub u32);

impl Lit {
    /// Positive literal of variable `v`.
    pub fn pos(v: u32) -> Lit {
        Lit(v << 1)
    }

    /// Negative literal of variable `v`.
    pub fn neg(v: u32) -> Lit {
        Lit((v << 1) | 1)
    }

    /// Make a literal with explicit sign (`true` = negated).
    pub fn new(v: u32, negated: bool) -> Lit {
        Lit((v << 1) | negated as u32)
    }

    /// The underlying variable.
    pub fn var(self) -> u32 {
        self.0 >> 1
    }

    /// True if the literal is negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        self.negate()
    }
}

/// Tri-state assignment value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

impl LBool {
    fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

/// Outcome of a SAT query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatOutcome {
    /// A satisfying assignment was found.
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// Conflict budget exhausted before a verdict.
    Unknown,
}

const CLAUSE_NONE: u32 = u32::MAX;

/// A clause's place in [`SatSolver::arena`]: `len` literals from `start`.
#[derive(Debug, Clone, Copy)]
struct ClauseRef {
    start: u32,
    len: u32,
}

impl ClauseRef {
    fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// Indexed max-heap over variable activities (MiniSat's order heap).
#[derive(Default)]
struct VarHeap {
    heap: Vec<u32>,
    /// position of var in `heap`, or usize::MAX if absent
    pos: Vec<usize>,
}

impl VarHeap {
    fn grow_to(&mut self, nvars: usize) {
        while self.pos.len() < nvars {
            self.pos.push(usize::MAX);
        }
    }

    fn contains(&self, v: u32) -> bool {
        self.pos[v as usize] != usize::MAX
    }

    fn insert(&mut self, v: u32, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v as usize] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop_max(&mut self, act: &[f64]) -> Option<u32> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().unwrap();
        self.pos[top as usize] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn bump(&mut self, v: u32, act: &[f64]) {
        if let Some(&p) = self.pos.get(v as usize) {
            if p != usize::MAX {
                self.sift_up(p, act);
            }
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i] as usize] > act[self.heap[parent] as usize] {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l] as usize] > act[self.heap[best] as usize] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r] as usize] > act[self.heap[best] as usize] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a;
        self.pos[self.heap[b] as usize] = b;
    }
}

/// The level-0 state saved by [`SatSolver::checkpoint`]. Its buffers are
/// kept across checkpoints, so taking one allocates nothing once the
/// instance has held its largest prefix.
#[derive(Default)]
struct Checkpoint {
    taken: bool,
    clauses: usize,
    /// The arena prefix: propagation swaps literals inside clauses.
    arena: Vec<Lit>,
    /// The watch lists of the prefix literals, one after another;
    /// `watch_lens[l]` of them belong to literal `l`.
    watches: Vec<u32>,
    watch_lens: Vec<u32>,
    trail: usize,
    qhead: usize,
    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    activity: Vec<f64>,
    saved_phase: Vec<bool>,
    heap: Vec<u32>,
    pos: Vec<usize>,
    var_inc: f64,
    unsat: bool,
    /// `conflicts`, `decisions` and `propagations`.
    counters: [u64; 3],
}

/// `dst` becomes a copy of `src`, reusing its allocation.
fn save<T: Copy>(dst: &mut Vec<T>, src: &[T]) {
    dst.clear();
    dst.extend_from_slice(src);
}

/// `dst`, which has only grown since `src` was saved from it, becomes
/// `src` again.
fn restore<T: Copy>(dst: &mut Vec<T>, src: &[T]) {
    dst.truncate(src.len());
    dst.copy_from_slice(src);
}

/// Remove adjacent repeats from the sorted `c` in place; returns the
/// length of the deduplicated prefix.
fn dedup_sorted(c: &mut [Lit]) -> usize {
    let mut n = 0;
    for i in 0..c.len() {
        if n == 0 || c[i] != c[n - 1] {
            c[n] = c[i];
            n += 1;
        }
    }
    n
}

/// CDCL SAT solver over clauses added with [`SatSolver::add_clause`].
pub struct SatSolver {
    /// The literals of every clause, original and learned, one after
    /// another in the order they were added.
    arena: Vec<Lit>,
    clauses: Vec<ClauseRef>,
    /// watches[lit] = clauses watching `lit` (i.e. containing it in slot 0/1)
    watches: Vec<Vec<u32>>,
    assign: Vec<LBool>,
    /// decision level at which each var was assigned
    level: Vec<u32>,
    /// reason clause for each implied var (CLAUSE_NONE for decisions)
    reason: Vec<u32>,
    trail: Vec<Lit>,
    /// trail index where each decision level starts
    trail_lim: Vec<usize>,
    /// next trail position to propagate
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    saved_phase: Vec<bool>,
    /// set when an empty clause was added
    unsat: bool,
    /// Model saved at the last `Sat` outcome (indexed by variable). Kept
    /// separate from the working assignment so the solver can backtrack to
    /// level 0 after the query without losing the witness.
    model: Vec<bool>,
    /// Scratch clause: `add_clause`'s copy of a clause of more than three
    /// literals, and the clause conflict analysis learns.
    tmp: Vec<Lit>,
    /// Conflict analysis marks, all false between conflicts.
    seen: Vec<bool>,
    cp: Checkpoint,
    /// Conflicts encountered since construction or the last reset.
    pub conflicts: u64,
    /// Decisions made since construction or the last reset.
    pub decisions: u64,
    /// Literal propagations performed since construction or the last reset.
    pub propagations: u64,
    /// conflict budget; `None` = unlimited
    pub max_conflicts: Option<u64>,
}

impl Default for SatSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl SatSolver {
    /// Fresh, empty solver.
    pub fn new() -> Self {
        SatSolver {
            arena: Vec::new(),
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarHeap::default(),
            saved_phase: Vec::new(),
            unsat: false,
            model: Vec::new(),
            tmp: Vec::new(),
            seen: Vec::new(),
            cp: Checkpoint::default(),
            conflicts: 0,
            decisions: 0,
            propagations: 0,
            max_conflicts: None,
        }
    }

    /// Empty the instance for a new formula while keeping its
    /// allocations: variables, clauses, counters and budgets all restart
    /// from zero, as in [`SatSolver::new`], and the checkpoint is dropped.
    pub fn reset(&mut self) {
        let used = 2 * self.assign.len();
        for w in &mut self.watches[..used] {
            w.clear();
        }
        self.arena.clear();
        self.clauses.clear();
        self.assign.clear();
        self.level.clear();
        self.reason.clear();
        self.trail.clear();
        self.trail_lim.clear();
        self.qhead = 0;
        self.activity.clear();
        self.var_inc = 1.0;
        self.order.heap.clear();
        self.order.pos.clear();
        self.saved_phase.clear();
        self.unsat = false;
        self.model.clear();
        self.cp.taken = false;
        self.reset_stats();
        self.max_conflicts = None;
    }

    /// Save the instance's level-0 state: its clauses (with the order of
    /// their literals), watch lists, trail, per-variable assignment,
    /// activity and phase, decision heap, activity increment, Unsat flag
    /// and counters. [`SatSolver::rollback`] returns to exactly this
    /// state, so a formula that extends the saved one is solved as on a
    /// new instance loaded to this point. A [`SatSolver::reset`] drops the
    /// checkpoint.
    pub fn checkpoint(&mut self) {
        debug_assert!(self.trail_lim.is_empty(), "checkpoint above level 0");
        let cp = &mut self.cp;
        cp.taken = true;
        cp.clauses = self.clauses.len();
        save(&mut cp.arena, &self.arena);
        cp.watches.clear();
        cp.watch_lens.clear();
        for w in &self.watches[..2 * self.assign.len()] {
            cp.watches.extend_from_slice(w);
            cp.watch_lens.push(w.len() as u32);
        }
        cp.trail = self.trail.len();
        cp.qhead = self.qhead;
        save(&mut cp.assign, &self.assign);
        save(&mut cp.level, &self.level);
        save(&mut cp.reason, &self.reason);
        save(&mut cp.activity, &self.activity);
        save(&mut cp.saved_phase, &self.saved_phase);
        save(&mut cp.heap, &self.order.heap);
        save(&mut cp.pos, &self.order.pos);
        cp.var_inc = self.var_inc;
        cp.unsat = self.unsat;
        cp.counters = [self.conflicts, self.decisions, self.propagations];
    }

    /// Return to the state saved by the last [`SatSolver::checkpoint`]:
    /// the variables, original clauses and learned clauses added since
    /// are gone, and everything the checkpoint saved is as it was. The
    /// conflict budget and the checkpoint itself stay. A search cut short
    /// above level 0 (by a panic) is undone too: its decision levels go.
    pub fn rollback(&mut self) {
        assert!(self.cp.taken, "rollback without a checkpoint");
        self.trail_lim.clear();
        let cp = &self.cp;
        let saved_lits = cp.watch_lens.len();
        for w in &mut self.watches[saved_lits..2 * self.assign.len()] {
            w.clear();
        }
        let mut at = 0;
        for (w, &n) in self.watches.iter_mut().zip(&cp.watch_lens) {
            let n = n as usize;
            save(w, &cp.watches[at..at + n]);
            at += n;
        }
        restore(&mut self.arena, &cp.arena);
        self.clauses.truncate(cp.clauses);
        self.trail.truncate(cp.trail);
        self.qhead = cp.qhead;
        restore(&mut self.assign, &cp.assign);
        restore(&mut self.level, &cp.level);
        restore(&mut self.reason, &cp.reason);
        restore(&mut self.activity, &cp.activity);
        restore(&mut self.saved_phase, &cp.saved_phase);
        save(&mut self.order.heap, &cp.heap);
        restore(&mut self.order.pos, &cp.pos);
        self.var_inc = cp.var_inc;
        self.unsat = cp.unsat;
        [self.conflicts, self.decisions, self.propagations] = cp.counters;
        self.model.clear();
    }

    /// Allocate and return a fresh variable.
    pub fn new_var(&mut self) -> u32 {
        let v = self.assign.len() as u32;
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(CLAUSE_NONE);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        // After a reset or a rollback the watch lists beyond the live
        // variables are already empty; reuse them rather than reallocating.
        if self.watches.len() < 2 * self.assign.len() {
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
        }
        self.order.grow_to(self.assign.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of variables fixed at decision level 0: between solves,
    /// the units added or learned so far and what they imply.
    pub fn num_fixed(&self) -> usize {
        debug_assert!(self.trail_lim.is_empty(), "num_fixed above level 0");
        self.trail.len()
    }

    fn value(&self, l: Lit) -> LBool {
        match self.assign[l.var() as usize] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_neg() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
            LBool::False => {
                if l.is_neg() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
        }
    }

    /// Add a clause (disjunction of literals). Must be called before `solve`
    /// at decision level 0. Returns false if the formula became trivially
    /// unsatisfiable. The clause is stored sorted, deduplicated and without
    /// its literals falsified at level 0; a unit is propagated at once.
    /// A clause of up to three literals (every Tseitin gate clause) is
    /// simplified in a stack array, a longer one in a reused buffer.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert!(self.trail_lim.is_empty(), "add_clause above level 0");
        if self.unsat {
            return false;
        }
        if lits.len() <= 3 {
            let mut c = [Lit(0); 3];
            c[..lits.len()].copy_from_slice(lits);
            return self.add_simplified(&mut c[..lits.len()]);
        }
        let mut c = std::mem::take(&mut self.tmp);
        save(&mut c, lits);
        let ok = self.add_simplified(&mut c);
        self.tmp = c;
        ok
    }

    /// [`SatSolver::add_clause`] on a scratch copy `c` of the clause.
    fn add_simplified(&mut self, c: &mut [Lit]) -> bool {
        c.sort_unstable();
        let n = dedup_sorted(c);
        // A tautology (l and !l sit side by side once sorted) or a clause
        // satisfied at level 0 adds nothing.
        if c[..n].windows(2).any(|w| w[0] == w[1].negate())
            || c[..n].iter().any(|&l| self.value(l) == LBool::True)
        {
            return true;
        }
        // Keep the literals not yet falsified at level 0.
        let mut k = 0;
        for i in 0..n {
            if self.value(c[i]) == LBool::Undef {
                c[k] = c[i];
                k += 1;
            }
        }
        match k {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(c[0], CLAUSE_NONE);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_clause(&c[..k]);
                true
            }
        }
    }

    /// Add a Tseitin gate clause of two or three literals to a formula
    /// that has not been solved yet. Unlike [`SatSolver::add_clause`] it
    /// neither sorts nor simplifies against level-0 values: the first
    /// `solve` propagates every unit from the start of the trail, so a
    /// clause whose watched literal is already false at level 0 is still
    /// woken.
    /// Clauses that repeat a variable (a multiplexer whose selector is
    /// also a data input) are deduplicated, and tautologies dropped.
    pub fn add_gate_clause(&mut self, lits: &[Lit]) {
        debug_assert!(self.trail_lim.is_empty() && self.qhead == 0);
        let distinct = match *lits {
            [a, b] => a.var() != b.var(),
            [a, b, c] => a.var() != b.var() && a.var() != c.var() && b.var() != c.var(),
            _ => false,
        };
        if distinct {
            self.attach_clause(lits);
            return;
        }
        let mut buf = [Lit(0); 3];
        let c = &mut buf[..lits.len()];
        c.copy_from_slice(lits);
        c.sort_unstable();
        let n = dedup_sorted(c);
        let c = &c[..n];
        if c.windows(2).any(|w| w[0] == w[1].negate()) {
            return;
        }
        if n == 1 {
            self.add_unit(c[0]);
            return;
        }
        self.attach_clause(c);
    }

    /// Assert the unit `l` for the next `solve` without propagating it
    /// yet (see [`SatSolver::add_gate_clause`]).
    pub fn add_unit(&mut self, l: Lit) {
        match self.value(l) {
            LBool::True => {}
            LBool::False => self.unsat = true,
            LBool::Undef => self.enqueue(l, CLAUSE_NONE),
        }
    }

    fn attach_clause(&mut self, lits: &[Lit]) -> u32 {
        let idx = self.clauses.len() as u32;
        self.watches[lits[0].negate().index()].push(idx);
        self.watches[lits[1].negate().index()].push(idx);
        let start = u32::try_from(self.arena.len()).expect("clause arena outgrew u32 offsets");
        self.clauses.push(ClauseRef {
            start,
            len: lits.len() as u32,
        });
        self.arena.extend_from_slice(lits);
        idx
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        let v = l.var() as usize;
        self.assign[v] = LBool::from_bool(!l.is_neg());
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.saved_phase[v] = !l.is_neg();
        self.trail.push(l);
    }

    /// Unit propagation; returns the index of a conflicting clause if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            // Clauses watching !p (they contain p's negation... we store
            // watches under the *negation* of the watched literal so that
            // assigning p wakes clauses whose watched literal became false).
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let false_lit = p.negate();
            let mut i = 0;
            while i < ws.len() {
                let ci = ws[i];
                let lits = self.clauses[ci as usize].range();
                let s = lits.start;
                // Ensure the false literal is in slot 1.
                if self.arena[s] == false_lit {
                    self.arena.swap(s, s + 1);
                }
                debug_assert_eq!(self.arena[s + 1], false_lit);
                let first = self.arena[s];
                if self.value(first) == LBool::True {
                    i += 1;
                    continue; // clause satisfied
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in s + 2..lits.end {
                    let lk = self.arena[k];
                    if self.value(lk) != LBool::False {
                        self.arena.swap(s + 1, k);
                        self.watches[lk.negate().index()].push(ci);
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting.
                if self.value(first) == LBool::False {
                    self.watches[p.index()] = ws;
                    // leave remaining entries: put back the ones we kept
                    return Some(ci);
                }
                self.enqueue(first, ci);
                i += 1;
            }
            self.watches[p.index()] = ws;
        }
        None
    }

    fn bump_var(&mut self, v: u32) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bump(v, &self.activity);
    }

    /// First-UIP conflict analysis. Returns (learned clause, backjump level);
    /// the clause is the `tmp` buffer, which the caller hands back.
    /// Reason clauses are read in place, and the `seen` marks are cleared
    /// again before returning, so the buffer is reused across conflicts.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let mut learned = std::mem::take(&mut self.tmp);
        save(&mut learned, &[Lit(0)]); // slot for the asserting lit
        let mut seen = std::mem::take(&mut self.seen);
        seen.resize(self.assign.len(), false);
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        let mut clause = conflict;
        let cur_level = self.trail_lim.len() as u32;

        loop {
            let start = if p.is_none() { 0 } else { 1 };
            for k in self.clauses[clause as usize].range().skip(start) {
                let q = self.arena[k];
                let v = q.var() as usize;
                if !seen[v] && self.level[v] > 0 {
                    seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] == cur_level {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Select next literal from the trail.
            loop {
                idx -= 1;
                if seen[self.trail[idx].var() as usize] {
                    break;
                }
            }
            let pl = self.trail[idx];
            p = Some(pl);
            seen[pl.var() as usize] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            clause = self.reason[pl.var() as usize];
            debug_assert_ne!(clause, CLAUSE_NONE);
        }
        learned[0] = p.unwrap().negate();
        // Only the lower-level literals are still marked.
        for l in &learned[1..] {
            seen[l.var() as usize] = false;
        }
        self.seen = seen;

        // Compute backjump level = max level among learned[1..].
        let bj = if learned.len() == 1 {
            0
        } else {
            // Move the max-level literal to slot 1 so it is watched.
            let mut max_i = 1;
            for i in 2..learned.len() {
                if self.level[learned[i].var() as usize] > self.level[learned[max_i].var() as usize]
                {
                    max_i = i;
                }
            }
            learned.swap(1, max_i);
            self.level[learned[1].var() as usize]
        };
        (learned, bj)
    }

    fn backtrack(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().unwrap();
            while self.trail.len() > lim {
                let l = self.trail.pop().unwrap();
                let v = l.var();
                self.assign[v as usize] = LBool::Undef;
                self.reason[v as usize] = CLAUSE_NONE;
                self.order.insert(v, &self.activity);
            }
        }
        self.qhead = self.trail.len();
    }

    fn decide(&mut self) -> bool {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assign[v as usize] == LBool::Undef {
                self.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let phase = self.saved_phase[v as usize];
                self.enqueue(Lit::new(v, !phase), CLAUSE_NONE);
                return true;
            }
        }
        false
    }

    /// Luby restart sequence (1,1,2,1,1,2,4,...), MiniSat formulation.
    fn luby(x: u64) -> u64 {
        let mut size = 1u64;
        let mut seq = 0u32;
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        let mut x = x;
        while size - 1 != x {
            size = (size - 1) >> 1;
            seq -= 1;
            x %= size;
        }
        1u64 << seq
    }

    /// True once the conflict budget is spent.
    fn budget_exhausted(&self) -> bool {
        self.max_conflicts.is_some_and(|max| self.conflicts >= max)
    }

    /// Run the CDCL main loop. The solver backtracks to level 0 before
    /// returning; after `Sat` the witness is read through
    /// [`SatSolver::model_value`].
    pub fn solve(&mut self) -> SatOutcome {
        if self.unsat {
            return SatOutcome::Unsat;
        }
        debug_assert!(self.trail_lim.is_empty(), "solve entered above level 0");
        if self.propagate().is_some() {
            self.unsat = true;
            return SatOutcome::Unsat;
        }
        let out = self.search();
        self.backtrack(0);
        out
    }

    fn search(&mut self) -> SatOutcome {
        let mut restart_count = 0u64;
        let mut conflicts_until_restart = 100 * Self::luby(0);
        let mut conflicts_this_restart = 0u64;
        loop {
            if self.budget_exhausted() {
                return SatOutcome::Unknown;
            }
            if let Some(conf) = self.propagate() {
                self.conflicts += 1;
                conflicts_this_restart += 1;
                if self.trail_lim.is_empty() {
                    self.unsat = true;
                    return SatOutcome::Unsat;
                }
                let (learned, bj) = self.analyze(conf);
                self.backtrack(bj);
                self.var_inc /= 0.95; // VSIDS decay
                if learned.len() == 1 {
                    self.enqueue(learned[0], CLAUSE_NONE);
                } else {
                    let ci = self.attach_clause(&learned);
                    self.enqueue(learned[0], ci);
                }
                self.tmp = learned;
            } else {
                if conflicts_this_restart >= conflicts_until_restart {
                    restart_count += 1;
                    conflicts_this_restart = 0;
                    conflicts_until_restart = 100 * Self::luby(restart_count);
                    self.backtrack(0);
                    continue;
                }
                if !self.decide() {
                    self.save_model();
                    return SatOutcome::Sat;
                }
            }
        }
    }

    fn save_model(&mut self) {
        self.model.clear();
        self.model
            .extend(self.assign.iter().map(|a| matches!(a, LBool::True)));
    }

    /// Value of variable `v` in the model saved by the last `Sat` outcome.
    pub fn model_value(&self, v: u32) -> bool {
        self.model.get(v as usize).copied().unwrap_or(false)
    }

    /// Reset statistics counters.
    pub fn reset_stats(&mut self) {
        self.conflicts = 0;
        self.decisions = 0;
        self.propagations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &[i32], sol: &mut SatSolver) -> Vec<Lit> {
        let maxv = s.iter().map(|x| x.unsigned_abs()).max().unwrap();
        while sol.num_vars() < maxv as usize {
            sol.new_var();
        }
        s.iter()
            .map(|&x| Lit::new(x.unsigned_abs() - 1, x < 0))
            .collect()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = SatSolver::new();
        let c = lits(&[1], &mut s);
        assert!(s.add_clause(&c));
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert!(s.model_value(0));

        let mut s = SatSolver::new();
        let c1 = lits(&[1], &mut s);
        let c2 = lits(&[-1], &mut s);
        s.add_clause(&c1);
        assert!(!s.add_clause(&c2));
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn tautology_and_duplicates_handled() {
        let mut s = SatSolver::new();
        let c = lits(&[1, -1], &mut s);
        assert!(s.add_clause(&c));
        let c = lits(&[2, 2, 2], &mut s);
        assert!(s.add_clause(&c));
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert!(s.model_value(1));
    }

    #[test]
    fn implication_chain_propagates() {
        // (x1) & (!x1 | x2) & (!x2 | x3) ... forces all true.
        let mut s = SatSolver::new();
        let c = lits(&[1], &mut s);
        s.add_clause(&c);
        for i in 1i32..50 {
            let c = lits(&[-i, i + 1], &mut s);
            s.add_clause(&c);
        }
        assert_eq!(s.solve(), SatOutcome::Sat);
        for v in 0..50 {
            assert!(s.model_value(v), "var {v} should be true");
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p_ij: pigeon i in hole j; 3 pigeons, 2 holes.
        // vars: p(i,j) = i*2 + j + 1 for i in 0..3, j in 0..2
        let p = |i: i32, j: i32| i * 2 + j + 1;
        let mut s = SatSolver::new();
        for i in 0..3 {
            let c = lits(&[p(i, 0), p(i, 1)], &mut s);
            s.add_clause(&c);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    let c = lits(&[-p(i1, j), -p(i2, j)], &mut s);
                    s.add_clause(&c);
                }
            }
        }
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_3_is_sat() {
        let p = |i: i32, j: i32| i * 3 + j + 1;
        let mut s = SatSolver::new();
        for i in 0..3 {
            let c = lits(&[p(i, 0), p(i, 1), p(i, 2)], &mut s);
            s.add_clause(&c);
        }
        for j in 0..3 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    let c = lits(&[-p(i1, j), -p(i2, j)], &mut s);
                    s.add_clause(&c);
                }
            }
        }
        assert_eq!(s.solve(), SatOutcome::Sat);
        // verify: each pigeon has a hole, no two share
        let mut holes = vec![];
        for i in 0..3 {
            let h = (0..3i32).find(|&j| s.model_value((p(i, j) - 1) as u32));
            assert!(h.is_some());
            holes.push(h.unwrap());
        }
        holes.sort_unstable();
        holes.dedup();
        assert_eq!(holes.len(), 3);
    }

    #[test]
    fn conflict_budget_yields_unknown() {
        // A hard-ish pigeonhole with tiny budget.
        let p = |i: i32, j: i32| i * 5 + j + 1;
        let mut s = SatSolver::new();
        s.max_conflicts = Some(3);
        for i in 0..6 {
            let c: Vec<i32> = (0..5).map(|j| p(i, j)).collect();
            let c = lits(&c, &mut s);
            s.add_clause(&c);
        }
        for j in 0..5 {
            for i1 in 0..6 {
                for i2 in (i1 + 1)..6 {
                    let c = lits(&[-p(i1, j), -p(i2, j)], &mut s);
                    s.add_clause(&c);
                }
            }
        }
        assert_eq!(s.solve(), SatOutcome::Unknown);
    }

    #[test]
    fn reset_instance_answers_like_a_new_one() {
        // Solve a 5-into-4 pigeonhole into its conflict budget, reset, and
        // load (x1 | x2), (!x1), first as gate clauses and then as a unit
        // clause with a repeated literal: the reused instance must start
        // from zero counters and no budget, like `SatSolver::new`.
        let p = |i: u32, j: u32| i * 4 + j;
        let mut s = SatSolver::new();
        for _ in 0..20 {
            s.new_var();
        }
        for i in 0..5u32 {
            let c: Vec<Lit> = (0..4).map(|j| Lit::pos(p(i, j))).collect();
            s.add_clause(&c);
        }
        for j in 0..4u32 {
            for i1 in 0..5u32 {
                for i2 in (i1 + 1)..5 {
                    s.add_clause(&[Lit::neg(p(i1, j)), Lit::neg(p(i2, j))]);
                }
            }
        }
        s.max_conflicts = Some(2);
        assert_eq!(s.solve(), SatOutcome::Unknown);
        assert!(s.conflicts >= 2);
        s.reset();
        assert_eq!((s.num_vars(), s.num_clauses(), s.conflicts), (0, 0, 0));
        assert_eq!(s.max_conflicts, None);
        let (x1, x2) = (s.new_var(), s.new_var());
        s.add_gate_clause(&[Lit::pos(x1), Lit::pos(x2)]);
        s.add_unit(Lit::neg(x1));
        assert_eq!(s.solve(), SatOutcome::Sat);
        assert!(!s.model_value(x1) && s.model_value(x2));
        s.reset();
        let x = s.new_var();
        s.add_gate_clause(&[Lit::neg(x), Lit::neg(x)]);
        s.add_gate_clause(&[Lit::pos(x), Lit::neg(x), Lit::pos(x)]);
        s.add_unit(Lit::pos(x));
        assert_eq!(s.solve(), SatOutcome::Unsat);

        // `add_clause` on the recycled buffers simplifies exactly as on a
        // new instance: a unit propagates at once, a clause it satisfies
        // and a tautology are dropped, a falsified literal is removed, and
        // a clause left empty makes the formula Unsat.
        fn load(s: &mut SatSolver) -> (Vec<bool>, usize, u64, SatOutcome, Vec<bool>) {
            let (a, b, c) = (s.new_var(), s.new_var(), s.new_var());
            let added = vec![
                s.add_clause(&[Lit::pos(a), Lit::pos(a)]),
                s.add_clause(&[Lit::pos(b), Lit::pos(a)]),
                s.add_clause(&[Lit::pos(c), Lit::neg(c), Lit::pos(b)]),
                s.add_clause(&[Lit::pos(c), Lit::neg(a), Lit::pos(b)]),
                s.add_clause(&[Lit::neg(b)]),
            ];
            let loaded = (s.num_clauses(), s.propagations);
            let out = s.solve();
            let model = (0..3).map(|v| s.model_value(v)).collect();
            (added, loaded.0, loaded.1, out, model)
        }
        s.reset();
        let got = load(&mut s);
        assert_eq!(got, load(&mut SatSolver::new()));
        assert_eq!(got.0, [true; 5]);
        assert_eq!(got.1, 1, "only (b | c) is stored");
        assert_eq!(got.2, 3, "each unit propagates as it is added");
        assert_eq!((got.3, got.4), (SatOutcome::Sat, vec![true, false, true]));
        s.reset();
        let y = s.new_var();
        assert!(s.add_clause(&[Lit::pos(y)]));
        assert!(!s.add_clause(&[Lit::neg(y)]), "falsified at level 0");
        assert_eq!(s.solve(), SatOutcome::Unsat);
        s.reset();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatOutcome::Unsat);
    }

    /// Every part of the instance's state a later `solve` can read.
    fn state(s: &SatSolver) -> String {
        let lits = 2 * s.assign.len();
        format!(
            "{:?}",
            (
                (&s.arena, &s.clauses, &s.watches[..lits], &s.trail, s.qhead),
                (&s.assign, &s.level, &s.reason, &s.activity, &s.saved_phase),
                (&s.order.heap, &s.order.pos, s.var_inc, s.unsat),
                (s.conflicts, s.decisions, s.propagations, &s.trail_lim),
            )
        )
    }

    #[test]
    fn rollback_returns_to_the_state_of_a_new_instance() {
        // Prefix: 60 variables, a few level-0 units and random 3-clauses.
        // Suffix: a 6-into-5 pigeonhole over 30 more variables whose
        // pigeon clauses all hold once a 91st variable `e` does (or a
        // prefix variable that implies `e`), and `e` implies two prefix
        // literals. The search refutes the pigeonhole under `!e`, which
        // it decides first, so it learns clauses over prefix and suffix
        // variables and then the unit `e`, whose implications reach
        // back into the prefix at level 0.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let prefix: Vec<Vec<Lit>> = (0..120)
            .map(|k| {
                let len = if k % 40 == 0 { 1 } else { 3 };
                (0..len)
                    .map(|_| Lit::new((next() % 60) as u32, next() % 2 == 1))
                    .collect()
            })
            .collect();
        let load_prefix = |s: &mut SatSolver| {
            for _ in 0..60 {
                s.new_var();
            }
            for c in &prefix {
                s.add_clause(c);
            }
        };
        let p = |i: u32, j: u32| 60 + i * 5 + j;
        let e = 90;
        let suffix = |s: &mut SatSolver, budget: Option<u64>| {
            for _ in 0..31 {
                s.new_var();
            }
            for i in 0..6u32 {
                let mut c: Vec<Lit> = (0..5).map(|j| Lit::pos(p(i, j))).collect();
                c.extend([Lit::pos(e), Lit::pos(20 + i)]);
                s.add_clause(&c);
                s.add_clause(&[Lit::neg(20 + i), Lit::pos(e)]);
            }
            s.add_clause(&[Lit::neg(e), Lit::pos(7)]);
            s.add_clause(&[Lit::neg(e), Lit::neg(8)]);
            for j in 0..5u32 {
                for i1 in 0..6u32 {
                    for i2 in (i1 + 1)..6 {
                        s.add_clause(&[Lit::neg(p(i1, j)), Lit::neg(p(i2, j))]);
                    }
                }
            }
            s.max_conflicts = budget;
            let out = s.solve();
            let model: Vec<bool> = (0..91).map(|v| s.model_value(v)).collect();
            (out, model, state(s))
        };

        let mut reused = SatSolver::new();
        load_prefix(&mut reused);
        let at_checkpoint = state(&reused);
        let fixed = reused.trail.len();
        assert!(fixed > 0, "the prefix fixes variables at level 0");
        reused.checkpoint();
        let first = suffix(&mut reused, None);
        assert!(
            reused.num_clauses() > reused.cp.clauses + 6 + 2 + 75,
            "the search learned clauses"
        );
        assert!(
            reused.trail.len() > fixed,
            "the search learned level-0 units"
        );
        assert_eq!(reused.value(Lit::pos(e)), LBool::True, "`e` is fixed");
        assert!(
            reused.activity[..60].iter().any(|&a| a > 0.0),
            "conflicts bumped prefix variables"
        );
        assert_eq!(first.0, SatOutcome::Sat);

        for budget in [None, Some(3), None] {
            reused.rollback();
            let mut new = SatSolver::new();
            load_prefix(&mut new);
            assert_eq!(state(&new), at_checkpoint);
            assert_eq!(state(&reused), at_checkpoint, "budget {budget:?}");
            let got = suffix(&mut reused, budget);
            let want = suffix(&mut new, budget);
            assert_eq!(got, want, "budget {budget:?}");
            if budget.is_none() {
                assert_eq!(got, first);
            } else {
                assert_eq!(got.0, SatOutcome::Unknown);
            }
        }

        // A search cut short above level 0, as by a panic inside it, is
        // undone as well.
        reused.rollback();
        for _ in 0..31 {
            reused.new_var();
        }
        reused.add_clause(&[Lit::neg(e), Lit::pos(7)]);
        while reused.trail_lim.len() < 3 && reused.decide() {
            reused.propagate();
        }
        assert!(!reused.trail_lim.is_empty(), "the search left level 0");
        reused.rollback();
        assert_eq!(state(&reused), at_checkpoint);
        assert_eq!(suffix(&mut reused, None), first);
    }

    #[test]
    fn random_3sat_models_verify() {
        // Deterministic pseudo-random 3-SAT instances at low clause ratio
        // (almost surely SAT); verify any returned model satisfies all
        // clauses.
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _round in 0..10 {
            let nvars = 30;
            let nclauses = 60;
            let mut s = SatSolver::new();
            for _ in 0..nvars {
                s.new_var();
            }
            let mut cls = vec![];
            for _ in 0..nclauses {
                let mut c = vec![];
                for _ in 0..3 {
                    let v = (next() % nvars as u64) as u32;
                    let neg = next() % 2 == 1;
                    c.push(Lit::new(v, neg));
                }
                cls.push(c.clone());
                s.add_clause(&c);
            }
            if s.solve() == SatOutcome::Sat {
                for c in &cls {
                    assert!(
                        c.iter().any(|&l| s.model_value(l.var()) != l.is_neg()),
                        "model violates clause"
                    );
                }
            }
        }
    }
}
