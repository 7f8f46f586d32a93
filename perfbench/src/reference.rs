//! The reference kernel: a fixed piece of benchmark-side work that tells
//! how fast the machine runs at the moment.
//!
//! The benchmark is meant for a few cores of a shared host, where the load
//! of other tenants changes the speed of every process within seconds, by
//! half or more. Each end-to-end run therefore times this kernel right
//! before and right after each measured piece of work and scales the
//! piece's time to [`REFERENCE_RATE`]: a piece during which the machine ran
//! the kernel at 80% of that rate counts 0.8 times its measured time, in
//! *reference seconds*.
//!
//! The kernel grows small s-expression trees, prints them, parses them
//! back and prints them again. Like fusion, printing, parsing and solving
//! it allocates small nodes and strings and branches on their contents, so
//! a neighbour's load slows it much as it slows the workloads (`README.md`
//! says how closely); a pure arithmetic loop does not follow them. It calls no code of the
//! repository, so no change to the program can move it.
//!
//! The kernel and [`REFERENCE_RATE`] are fixed. Changing either rescales
//! every end-to-end figure, so two commits are only comparable when both
//! were measured with the same kernel.

use crate::stats::median;
use crate::{timed, Timing};
use std::fmt::Write as _;

/// Kernel units per second that make the reference speed: a round figure
/// near the kernel's rate on a 2-core x86-64 box (Intel Xeon, 2.1 GHz),
/// where it ran at 95 to 170 units per second as the host's load changed.
pub const REFERENCE_RATE: f64 = 100.0;

/// Trees one kernel unit grows, prints and re-parses.
const TREES: usize = 600;

/// Kernel units one speed sample times, about 50 ms at the reference rate.
const SAMPLE_UNITS: usize = 5;

/// Operator names the trees use.
const OPS: [&str; 6] = ["and", "or", "+", "<=", "str.++", "ite"];

/// A kernel tree: a numbered leaf, or an operator over children.
#[derive(Debug, PartialEq, Eq)]
enum Tree {
    Leaf(u32),
    Node(String, Vec<Tree>),
}

fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn grow(x: &mut u64, depth: u32) -> Tree {
    let r = next(x);
    if depth == 0 || r.is_multiple_of(4) {
        Tree::Leaf((r >> 20) as u32 % 1000)
    } else {
        let op = OPS[(r >> 8) as usize % OPS.len()].to_owned();
        Tree::Node(op, (0..1 + r % 3).map(|_| grow(x, depth - 1)).collect())
    }
}

fn print(tree: &Tree, out: &mut String) {
    match tree {
        Tree::Leaf(n) => write!(out, "v{n}").expect("writing to a String"),
        Tree::Node(op, children) => {
            out.push('(');
            out.push_str(op);
            for child in children {
                out.push(' ');
                print(child, out);
            }
            out.push(')');
        }
    }
}

fn parse(text: &[u8], at: &mut usize) -> Tree {
    let token = |at: &mut usize, stop: fn(u8) -> bool| {
        let start = *at;
        while *at < text.len() && !stop(text[*at]) {
            *at += 1;
        }
        std::str::from_utf8(&text[start..*at]).expect("ASCII")
    };
    if text[*at] == b'(' {
        *at += 1;
        let op = token(at, |c| c == b' ').to_owned();
        let mut children = Vec::new();
        while text[*at] == b' ' {
            *at += 1;
            children.push(parse(text, at));
        }
        *at += 1;
        Tree::Node(op, children)
    } else {
        *at += 1;
        Tree::Leaf(token(at, |c| !c.is_ascii_digit()).parse().expect("a leaf number"))
    }
}

/// One kernel unit: [`TREES`] trees grown from a fixed seed, each printed,
/// parsed back and printed again. Returns the printed bytes, the same on
/// every call.
pub fn unit() -> usize {
    let mut x = 0x005E_ED0F_7EE5_u64;
    let mut bytes = 0;
    for _ in 0..TREES {
        let tree = grow(&mut x, 7);
        let mut text = String::new();
        print(&tree, &mut text);
        let back = parse(text.as_bytes(), &mut 0);
        let mut again = String::new();
        print(&back, &mut again);
        assert!(back == tree && again == text, "the kernel misread its own tree");
        bytes += again.len();
    }
    bytes
}

/// The machine's speed over one run, sampled with the kernel right before
/// and right after each measured piece of work.
///
/// The speed of a shared host changes within seconds, by half or more, so
/// each piece is scaled by the speed around it rather than by a run-wide
/// figure.
#[derive(Debug, Default)]
pub struct Speed {
    /// Speed at each sampling point, as a share of the reference: the
    /// median of that point's kernel samples, by wall and by CPU time.
    points: Vec<(f64, f64)>,
}

impl Speed {
    /// Samples the machine's speed now from `samples` kernel samples.
    pub fn sample(&mut self, samples: usize) {
        let (mut rates, mut cpu_rates) = (Vec::new(), Vec::new());
        for _ in 0..samples.max(1) {
            let (bytes, t) = timed(|| (0..SAMPLE_UNITS).map(|_| unit()).sum::<usize>());
            std::hint::black_box(bytes);
            rates.push(SAMPLE_UNITS as f64 / t.wall.max(1e-9));
            cpu_rates.push(SAMPLE_UNITS as f64 / t.cpu.max(1e-9));
        }
        self.points.push((median(&rates) / REFERENCE_RATE, median(&cpu_rates) / REFERENCE_RATE));
    }

    /// Samples the machine's speed right after a measured `piece` and
    /// returns the piece's time in reference seconds: its wall and CPU time
    /// scaled by the mean of the speeds sampled right before and right
    /// after it. A piece with no sample before it is scaled by the speed
    /// after it.
    pub fn rescale(&mut self, piece: Timing, samples: usize) -> Timing {
        let before = self.points.last().copied();
        self.sample(samples);
        let after = self.now();
        let (wall, cpu) = before.map_or(after, |b| ((b.0 + after.0) / 2.0, (b.1 + after.1) / 2.0));
        Timing { wall: piece.wall * wall, cpu: piece.cpu * cpu }
    }

    /// A short `piece`'s time in reference seconds, scaled by the speed at
    /// the latest sampling point.
    pub fn scale(&self, piece: Timing) -> Timing {
        let (wall, cpu) = self.now();
        Timing { wall: piece.wall * wall, cpu: piece.cpu * cpu }
    }

    /// The speed at the latest sampling point, by wall and by CPU time;
    /// the reference speed before any.
    fn now(&self) -> (f64, f64) {
        self.points.last().copied().unwrap_or((1.0, 1.0))
    }

    /// The median speed over the run's sampling points, by wall time.
    pub fn median(&self) -> f64 {
        median(&self.points.iter().map(|p| p.0).collect::<Vec<_>>())
    }

    /// Sampling points so far.
    pub fn points(&self) -> usize {
        self.points.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        assert_eq!(unit(), unit());
    }

    #[test]
    fn a_piece_is_scaled_by_the_speed_around_it() {
        let piece = Timing { wall: 2.0, cpu: 1.5 };
        let mut speed = Speed::default();
        // No sampling point before the first piece: the one after it counts.
        let first = speed.rescale(piece, 1);
        let after_first = speed.now();
        assert_eq!((first.wall, first.cpu), (2.0 * after_first.0, 1.5 * after_first.1));
        let second = speed.rescale(piece, 1);
        let after_second = speed.now();
        let mean = |a: f64, b: f64| (a + b) / 2.0;
        assert_eq!(second.wall, 2.0 * mean(after_first.0, after_second.0));
        assert_eq!(second.cpu, 1.5 * mean(after_first.1, after_second.1));
        assert_eq!(speed.scale(piece).wall, 2.0 * after_second.0);
        assert_eq!(speed.points(), 2);
    }
}
