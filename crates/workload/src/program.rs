//! The program model: procedures, statements, and address layout.

use std::fmt;

/// Identifies a procedure within a [`Program`].
///
/// Obtained from [`crate::ProgramBuilder::add_procedure`]; only valid for the
/// program built by that builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub(crate) usize);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// Loop trip counts: fixed, or drawn uniformly per loop entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trips {
    /// Always exactly `n` iterations.
    Fixed(u32),
    /// Uniform in `[lo, hi]`, drawn each time the loop is entered.
    Uniform(u32, u32),
}

impl Trips {
    pub(crate) fn draw(self, rng: &mut dynex_cache::SplitMix64) -> u32 {
        match self {
            Trips::Fixed(n) => n,
            Trips::Uniform(lo, hi) => {
                if hi <= lo {
                    lo
                } else {
                    lo + rng.below((hi - lo + 1) as u64) as u32
                }
            }
        }
    }
}

/// One statement of a procedure body.
///
/// Statements are laid out in address order within their procedure; loops
/// add one header word (the compare-and-branch re-fetched every iteration)
/// and one back-edge word, calls are one word plus the callee, so the
/// emitted instruction streams have the shape of compiled loop nests.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `n` sequential instructions.
    Straight(u32),
    /// A counted loop around a body.
    Loop {
        /// Trip count policy, sampled at loop entry.
        trips: Trips,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// A call to another procedure (one call instruction, then the callee).
    Call(ProcId),
    /// A two-way branch taken with probability `prob_then`.
    IfElse {
        /// Probability of the `then` arm, in `[0, 1]`.
        prob_then: f64,
        /// Taken arm.
        then_branch: Vec<Stmt>,
        /// Fall-through arm.
        else_branch: Vec<Stmt>,
    },
    /// `count` memory instructions, each one instruction fetch plus one data
    /// reference drawn from data pattern `pattern`; a fraction
    /// `write_fraction` of the data references are writes.
    Data {
        /// Index into the program's data patterns.
        pattern: usize,
        /// Number of load/store instructions.
        count: u32,
        /// Fraction of references that are stores, in `[0, 1]`.
        write_fraction: f64,
    },
}

/// Helper constructors for readable profile definitions.
impl Stmt {
    /// `n` sequential instructions.
    pub fn straight(n: u32) -> Stmt {
        Stmt::Straight(n)
    }

    /// A fixed-trip loop.
    pub fn loop_n(trips: u32, body: Vec<Stmt>) -> Stmt {
        Stmt::Loop {
            trips: Trips::Fixed(trips),
            body,
        }
    }

    /// A variable-trip loop.
    pub fn loop_range(lo: u32, hi: u32, body: Vec<Stmt>) -> Stmt {
        Stmt::Loop {
            trips: Trips::Uniform(lo, hi),
            body,
        }
    }

    /// A call statement.
    pub fn call(proc: ProcId) -> Stmt {
        Stmt::Call(proc)
    }

    /// `count` reads from data pattern `pattern`.
    pub fn reads(pattern: usize, count: u32) -> Stmt {
        Stmt::Data {
            pattern,
            count,
            write_fraction: 0.0,
        }
    }

    /// `count` mixed reads/writes from data pattern `pattern`.
    pub fn data(pattern: usize, count: u32, write_fraction: f64) -> Stmt {
        Stmt::Data {
            pattern,
            count,
            write_fraction,
        }
    }

    /// Instruction words this statement occupies (not counting callees).
    pub(crate) fn len_words(&self) -> u32 {
        match self {
            Stmt::Straight(n) => *n,
            // One header word (re-fetched each iteration) + body + back-edge.
            Stmt::Loop { body, .. } => 2 + body_len_words(body),
            Stmt::Call(_) => 1,
            Stmt::IfElse {
                then_branch,
                else_branch,
                ..
            } => {
                // Branch word + both arms laid out sequentially + join word.
                2 + body_len_words(then_branch) + body_len_words(else_branch)
            }
            Stmt::Data { count, .. } => *count,
        }
    }
}

pub(crate) fn body_len_words(body: &[Stmt]) -> u32 {
    body.iter().map(Stmt::len_words).sum()
}

/// A procedure: a statement list with an assigned address range.
#[derive(Debug, Clone, PartialEq)]
pub struct Procedure {
    pub(crate) body: Vec<Stmt>,
    /// First instruction byte address (assigned at layout).
    pub(crate) base_addr: u32,
    /// Code size in words, including the return instruction.
    pub(crate) len_words: u32,
    /// Words of stack frame this procedure pushes/pops (0 = leaf w/o frame).
    pub(crate) frame_words: u32,
}

impl Procedure {
    /// First instruction byte address.
    pub fn base_addr(&self) -> u32 {
        self.base_addr
    }

    /// Code size in bytes.
    pub fn size_bytes(&self) -> u32 {
        self.len_words * 4
    }
}

/// A complete program: laid-out procedures, data patterns, and an entry
/// point. Built with [`crate::ProgramBuilder`]; executed with
/// [`crate::Executor`] (or the [`Program::trace`] convenience).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub(crate) procs: Vec<Procedure>,
    pub(crate) patterns: Vec<crate::data::DataPattern>,
    pub(crate) entry: ProcId,
    pub(crate) seed: u64,
}

impl Program {
    /// The entry procedure.
    pub fn entry(&self) -> ProcId {
        self.entry
    }

    /// Looks up a procedure.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this program.
    pub fn procedure(&self, id: ProcId) -> &Procedure {
        &self.procs[id.0]
    }

    /// Total code footprint in bytes (sum of procedure sizes, excluding
    /// layout padding).
    pub fn code_bytes(&self) -> u64 {
        self.procs.iter().map(|p| p.size_bytes() as u64).sum()
    }

    /// Generates the first `n_refs` references of the program's execution.
    ///
    /// The program restarts from its entry point (with data cursors
    /// preserved) as often as needed to fill the budget.
    pub fn trace(&self, n_refs: usize) -> dynex_trace::Trace {
        let mut trace = dynex_trace::Trace::with_capacity(n_refs);
        let mut executor = crate::Executor::new(self);
        executor.generate_into(n_refs, |a| trace.push(a));
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stmt_lengths() {
        assert_eq!(Stmt::straight(7).len_words(), 7);
        assert_eq!(Stmt::loop_n(3, vec![Stmt::straight(5)]).len_words(), 7);
        assert_eq!(Stmt::call(ProcId(0)).len_words(), 1);
        assert_eq!(Stmt::reads(0, 4).len_words(), 4);
        let branch = Stmt::IfElse {
            prob_then: 0.5,
            then_branch: vec![Stmt::straight(3)],
            else_branch: vec![Stmt::straight(2)],
        };
        assert_eq!(branch.len_words(), 7);
    }

    #[test]
    fn nested_loop_length() {
        let inner = Stmt::loop_n(10, vec![Stmt::straight(4)]);
        let outer = Stmt::loop_n(5, vec![Stmt::straight(2), inner]);
        // outer: 2 + (2 + (2 + 4)) = 10
        assert_eq!(outer.len_words(), 10);
    }

    #[test]
    fn trips_draw() {
        let mut rng = dynex_cache::SplitMix64::new(1);
        assert_eq!(Trips::Fixed(9).draw(&mut rng), 9);
        for _ in 0..100 {
            let t = Trips::Uniform(3, 6).draw(&mut rng);
            assert!((3..=6).contains(&t));
        }
        assert_eq!(Trips::Uniform(5, 5).draw(&mut rng), 5);
        assert_eq!(
            Trips::Uniform(7, 2).draw(&mut rng),
            7,
            "degenerate range clamps to lo"
        );
    }

    #[test]
    fn proc_id_display() {
        assert_eq!(ProcId(3).to_string(), "proc#3");
    }
}
