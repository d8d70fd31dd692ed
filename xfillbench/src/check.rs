//! The output checks every timed run passes before its time counts.
//!
//! A run's output must re-parse; be a filling of the input; have
//! the peaks the run reported; and, on unit workloads, meet its
//! certified lower bound. The caller then compares the bytes with the
//! first run's, the traced run's and those `dpfill-xfill` writes.
//!
//! On the monolithic pipeline the fill's ordered input is at hand, so
//! the output is checked with `CubeSet::is_filling_of`. The streaming
//! pipeline's banded order stays inside the library, so its output is
//! checked to be a filling of *some* order of the input, by a bipartite
//! matching (see [`is_permuted_filling`]).

use std::ops::Range;

use dpfill_cubes::format;
use dpfill_cubes::{peak_toggles, weighted_peak_toggles, Bit, CubeSet};

use crate::flow::Run;

/// FNV-1a over output bytes: a short name for an output in reports.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Checks `run`'s output `bytes`.
///
/// `input` is the unordered input; `weights` the objective's weights
/// when it has any.
pub fn output(
    run: &Run,
    bytes: &[u8],
    input: &CubeSet,
    weights: Option<&[u64]>,
) -> Result<(), String> {
    let parsed = format::read_patterns(bytes).map_err(|e| format!("output re-parse: {e}"))?;

    match &run.ordered {
        Some(ordered) => {
            if !CubeSet::is_filling_of(&parsed, ordered) {
                return Err("output is not a filling of the ordered input".to_owned());
            }
        }
        None => {
            if !is_permuted_filling(&parsed, input) {
                return Err("output is not a filling of any order of the input".to_owned());
            }
        }
    }

    let peak = peak_toggles(&parsed).map_err(|e| format!("output peak: {e}"))? as u64;
    let objective_peak = match weights {
        Some(w) => weighted_peak_toggles(&parsed, w).map_err(|e| format!("output peak: {e}"))?,
        None => peak,
    };
    if peak != run.peak_toggles || objective_peak != run.objective_peak {
        return Err(format!(
            "recomputed peaks {peak}/{objective_peak} differ from reported {}/{}",
            run.peak_toggles, run.objective_peak
        ));
    }
    if let Some((scored, scored_weighted)) = run.scored {
        if scored != peak || scored_weighted.unwrap_or(peak) != objective_peak {
            return Err(format!(
                "scored peaks {scored}/{scored_weighted:?} differ from recomputed {peak}/{objective_peak}"
            ));
        }
    }
    if weights.is_none() {
        if let Some(lb) = run.lower_bound {
            if lb != peak {
                return Err(format!("unit peak {peak} misses its lower bound {lb}"));
            }
        }
    }
    Ok(())
}

/// `true` when `filled` is, cube for cube, a filling of some
/// permutation of `input`: a perfect matching exists between input
/// cubes and the output cubes that keep their care bits.
///
/// Each output pin row is a few long runs of equal values, so the
/// output cubes that keep one input cube's care bits form a short list
/// of position intervals: the intersection, over its care bits, of the
/// runs holding the right value. The matching runs on those interval
/// lists (Hopcroft–Karp, exact), never testing cube pairs one by one.
pub fn is_permuted_filling(filled: &CubeSet, input: &CubeSet) -> bool {
    let n = input.len();
    if filled.len() != n || filled.width() != input.width() || !filled.is_fully_specified() {
        return false;
    }
    let runs = PinRuns::of(filled);
    let everywhere = vec![Range { start: 0, end: n }];
    let spans: Vec<Vec<Range<usize>>> = input
        .packed_cubes()
        .iter()
        .map(|cube| {
            cube.care_positions()
                .fold(everywhere.clone(), |kept, (pin, bit)| {
                    intersect(&kept, &runs.holding(pin, bit))
                })
        })
        .collect();
    Matching::new(spans, n).perfect()
}

/// Where each output pin row changes value.
struct PinRuns {
    n: usize,
    first: Vec<Bit>,
    toggles: Vec<Vec<usize>>,
}

impl PinRuns {
    fn of(filled: &CubeSet) -> PinRuns {
        let cubes = filled.packed_cubes();
        let width = filled.width();
        let mut toggles = vec![Vec::new(); width];
        for (j, pair) in cubes.windows(2).enumerate() {
            let words = pair[0].value_words().iter().zip(pair[1].value_words());
            for (k, (a, b)) in words.enumerate() {
                let mut diff = a ^ b;
                while diff != 0 {
                    toggles[k * 64 + diff.trailing_zeros() as usize].push(j + 1);
                    diff &= diff - 1;
                }
            }
        }
        let first = cubes
            .first()
            .map_or_else(Vec::new, |c| (0..width).map(|p| c.get(p)).collect());
        PinRuns {
            n: cubes.len(),
            first,
            toggles,
        }
    }

    /// The output positions whose pin `pin` holds `bit`.
    fn holding(&self, pin: usize, bit: Bit) -> Vec<Range<usize>> {
        let bounds: Vec<usize> = std::iter::once(0)
            .chain(self.toggles[pin].iter().copied())
            .chain(std::iter::once(self.n))
            .collect();
        // Runs alternate values, starting from the first cube's.
        let skip = usize::from(self.first[pin] != bit);
        bounds
            .windows(2)
            .skip(skip)
            .step_by(2)
            .map(|w| w[0]..w[1])
            .collect()
    }
}

/// The intersection of two sorted, disjoint interval lists.
fn intersect(a: &[Range<usize>], b: &[Range<usize>]) -> Vec<Range<usize>> {
    let (mut i, mut k, mut out) = (0, 0, Vec::new());
    while i < a.len() && k < b.len() {
        let lo = a[i].start.max(b[k].start);
        let hi = a[i].end.min(b[k].end);
        if lo < hi {
            out.push(lo..hi);
        }
        if a[i].end < b[k].end {
            i += 1;
        } else {
            k += 1;
        }
    }
    out
}

const NONE: usize = usize::MAX;

/// Hopcroft–Karp between input cubes (left) and output positions
/// (right), each left vertex's edges given as intervals of positions.
struct Matching {
    spans: Vec<Vec<Range<usize>>>,
    left: Vec<usize>,
    right: Vec<usize>,
    dist: Vec<usize>,
}

impl Matching {
    fn new(spans: Vec<Vec<Range<usize>>>, positions: usize) -> Matching {
        let mut m = Matching {
            left: vec![NONE; spans.len()],
            right: vec![NONE; positions],
            dist: vec![0; spans.len()],
            spans,
        };
        // Greedy start: each input cube takes the first free position
        // it fits, found through a skip list over taken positions.
        let mut next_free: Vec<usize> = (0..=positions).collect();
        let find = |next: &mut Vec<usize>, mut j: usize| {
            while next[j] != j {
                next[j] = next[next[j]];
                j = next[j];
            }
            j
        };
        for i in 0..m.spans.len() {
            for span in &m.spans[i] {
                let j = find(&mut next_free, span.start);
                if j < span.end {
                    m.left[i] = j;
                    m.right[j] = i;
                    next_free[j] = j + 1;
                    break;
                }
            }
        }
        m
    }

    /// Augments to a maximum matching; `true` when it is perfect.
    fn perfect(&mut self) -> bool {
        while self.left.contains(&NONE) && self.layer() {
            for i in 0..self.spans.len() {
                if self.left[i] == NONE {
                    self.augment(i);
                }
            }
        }
        !self.left.contains(&NONE)
    }

    /// Breadth-first layering from the free left vertices; `true` when
    /// some free right vertex is reachable.
    fn layer(&mut self) -> bool {
        let mut queue = Vec::new();
        for i in 0..self.spans.len() {
            self.dist[i] = if self.left[i] == NONE {
                queue.push(i);
                0
            } else {
                NONE
            };
        }
        let mut found = false;
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            for span in &self.spans[i] {
                for j in span.clone() {
                    match self.right[j] {
                        NONE => found = true,
                        next if self.dist[next] == NONE => {
                            self.dist[next] = self.dist[i] + 1;
                            queue.push(next);
                        }
                        _ => {}
                    }
                }
            }
        }
        found
    }

    /// Depth-first search for an augmenting path along the layers.
    fn augment(&mut self, i: usize) -> bool {
        for s in 0..self.spans[i].len() {
            for j in self.spans[i][s].clone() {
                let next = self.right[j];
                let advances =
                    next == NONE || (self.dist[next] == self.dist[i] + 1 && self.augment(next));
                if advances {
                    self.left[i] = j;
                    self.right[j] = i;
                    return true;
                }
            }
        }
        self.dist[i] = NONE;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(rows: &[&str]) -> CubeSet {
        CubeSet::parse_rows(rows).expect("valid rows")
    }

    #[test]
    fn permuted_filling_needs_a_perfect_matching() {
        let input = set(&["1X", "X0", "0X"]);
        // A greedy pass would give "10" to "1X" and strand "X0".
        assert!(is_permuted_filling(&set(&["00", "10", "11"]), &input));
        assert!(!is_permuted_filling(&set(&["11", "10", "11"]), &input));
        assert!(!is_permuted_filling(&set(&["0X", "10", "11"]), &input));
        assert!(!is_permuted_filling(&set(&["00", "10"]), &input));
    }

    #[test]
    fn hopcroft_karp_reroutes_a_greedy_start() {
        // Greedy gives position 0 to input 0; only input 0 can move.
        assert!(Matching::new(vec![vec![0..2], vec![0..1]], 2).perfect());
        assert!(!Matching::new(vec![vec![0..1], vec![0..1]], 2).perfect());
    }

    #[test]
    fn interval_lists_intersect() {
        assert_eq!(intersect(&[0..4, 6..9], &[2..7, 8..10]), [2..4, 6..7, 8..9]);
        assert_eq!(intersect(&[0..4, 5..6], &[]), []);
    }
}
