//! Bit-packed two-plane storage for cubes and pin matrices.
//!
//! Every hot kernel of the DP-fill pipeline — Hamming/toggle profiling,
//! the pin-matrix transpose, §V-C stretch scanning and the fills — walks
//! bits. Packing 64 three-valued bits into two `u64` *planes* turns those
//! walks into word ops:
//!
//! * **care plane** — bit `i` set ⇔ position `i` carries a care bit;
//! * **value plane** — bit `i` holds the care value (`0` where `X`).
//!
//! The paper's metric `hd(T_j, T_{j+1})` then becomes
//! `popcount((a.val ^ b.val) & a.care & b.care)` per word, the transpose
//! becomes 64×64 bit-block swaps, and stretch scanning becomes
//! `trailing_zeros` hops over the care plane. Three types cover the
//! pipeline:
//!
//! * [`PackedBits`] — one packed row (a cube over pins, or a pin row over
//!   cubes) with word kernels and mask-splice fills;
//! * [`PackedCubeSet`] — the pattern sequence `T1..Tn`, one [`PackedBits`]
//!   per cube, with popcount toggle kernels;
//! * [`PackedMatrix`] — the transposed pins × cubes view, produced by a
//!   word-blocked bit transpose.
//!
//! Invariants maintained by every operation (so derived equality is
//! structural equality): `val & !care == 0`, and bits past `len` are zero
//! in both planes.

use crate::popcount::{self, PopcountKernel};
use crate::{Bit, CubeError, CubeSet, PinMatrix, TestCube};

/// Number of positions per plane word.
const WORD: usize = 64;

#[inline]
fn words_for(len: usize) -> usize {
    len.div_ceil(WORD)
}

/// Mask of the live bits in the last word of a `len`-bit plane.
#[inline]
fn tail_mask(len: usize) -> u64 {
    match len % WORD {
        0 => u64::MAX,
        r => (1u64 << r) - 1,
    }
}

/// The plane store of one row. Which variant holds the planes is a
/// function of the row's `len` alone, so the derived equality and hash
/// stay structural.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Planes {
    /// `len <= 64`: the care word and the value word, no heap block.
    Inline([u64; 2]),
    /// `len > 64`: the care words, then the value words, in one
    /// exact-size block.
    Heap(Box<[u64]>),
}

/// A packed vector of three-valued bits: a care plane and a value plane.
///
/// A row is 32 bytes. Rows of up to 64 positions keep both plane words
/// inline; wider rows keep both planes in one heap block of
/// `2 · ⌈len/64⌉` words, so building, cloning or dropping a row costs at
/// most one allocation.
///
/// # Example
///
/// ```
/// use dpfill_cubes::packed::PackedBits;
/// use dpfill_cubes::Bit;
///
/// let row: PackedBits = "0XX1".parse::<dpfill_cubes::TestCube>().unwrap().bits().into();
/// assert_eq!(row.len(), 4);
/// assert_eq!(row.x_count(), 2);
/// assert_eq!(row.get(3), Bit::One);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PackedBits {
    len: usize,
    planes: Planes,
}

impl Default for PackedBits {
    fn default() -> PackedBits {
        PackedBits::all_x(0)
    }
}

impl std::fmt::Debug for PackedBits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedBits")
            .field("len", &self.len)
            .field("care", &self.care_words())
            .field("val", &self.value_words())
            .finish()
    }
}

impl PackedBits {
    /// An all-`X` vector of `len` bits.
    pub fn all_x(len: usize) -> PackedBits {
        let planes = if len <= WORD {
            Planes::Inline([0; 2])
        } else {
            Planes::Heap(vec![0; 2 * words_for(len)].into_boxed_slice())
        };
        PackedBits { len, planes }
    }

    /// The care and value planes, `⌈len/64⌉` words each.
    #[inline]
    fn planes(&self) -> (&[u64], &[u64]) {
        let n = words_for(self.len);
        match &self.planes {
            Planes::Inline(w) => (&w[..n], &w[1..1 + n]),
            Planes::Heap(b) => b.split_at(n),
        }
    }

    /// Both planes, mutably — the one split borrow every writing kernel
    /// goes through.
    #[inline]
    fn planes_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        let n = words_for(self.len);
        match &mut self.planes {
            Planes::Inline(w) => {
                let (care, val) = w.split_at_mut(1);
                (&mut care[..n], &mut val[..n])
            }
            Planes::Heap(b) => b.split_at_mut(n),
        }
    }

    /// Packs a `01Xx-` ASCII pattern row straight into plane words — the
    /// streaming-parser kernel. A 256-entry table maps each byte to its
    /// `(care, value)` plane bits branchlessly (pattern data is random
    /// `0/1/X`, so a match would mispredict on nearly every byte), and 64
    /// characters accumulate into two register words, stored by word
    /// index into an [`PackedBits::all_x`] row of the text's width.
    /// Returns the first byte outside the alphabet as `Err` (multi-byte
    /// UTF-8 sequences fail on their lead byte).
    pub fn from_pattern_ascii(text: &[u8]) -> Result<PackedBits, u8> {
        // Encoding: bit0 = value, bit1 = care, 0xFF = invalid byte.
        const INVALID: u8 = 0xFF;
        const LUT: [u8; 256] = {
            let mut t = [INVALID; 256];
            t[b'0' as usize] = 0b10;
            t[b'1' as usize] = 0b11;
            t[b'x' as usize] = 0b00;
            t[b'X' as usize] = 0b00;
            t[b'-' as usize] = 0b00;
            t
        };
        let mut row = PackedBits::all_x(text.len());
        let (care, val) = row.planes_mut();
        for (chunk, (cw, vw)) in text.chunks(WORD).zip(care.iter_mut().zip(val)) {
            let mut care_w = 0u64;
            let mut val_w = 0u64;
            for (b, &byte) in chunk.iter().enumerate() {
                let e = LUT[byte as usize];
                if e == INVALID {
                    return Err(byte);
                }
                care_w |= ((e >> 1) as u64) << b;
                val_w |= ((e & 1) as u64) << b;
            }
            *cw = care_w;
            *vw = val_w;
        }
        Ok(row)
    }

    /// Appends the row as `01X` ASCII (no newline) — the emit kernel,
    /// the inverse of [`PackedBits::from_pattern_ascii`]. A 256-entry
    /// table spreads one care byte and one value byte into eight byte
    /// lanes, which blend branchlessly into `care ? 0x30 | v : 0x58`, so
    /// each group of 8 pins is one `u64` store; a partial last group
    /// stores only its live bytes. The per-char [`Display`] rendering is
    /// kept as the differential oracle.
    ///
    /// [`Display`]: std::fmt::Display
    pub fn append_pattern_ascii(&self, out: &mut Vec<u8>) {
        /// Bit `i` of the index → byte `i` (little-endian) set to 1.
        const SPREAD: [u64; 256] = {
            let mut t = [0u64; 256];
            let mut b = 0;
            while b < 256 {
                let mut i = 0;
                while i < 8 {
                    t[b] |= ((b as u64 >> i) & 1) << (8 * i);
                    i += 1;
                }
                b += 1;
            }
            t
        };
        const ZEROS: u64 = u64::from_le_bytes([b'0'; 8]);
        const XS: u64 = u64::from_le_bytes([b'X'; 8]);
        #[inline]
        fn group(care: u64, val: u64) -> [u8; 8] {
            // Each spread lane is 0 or 1, so `* 0xFF` widens it to a
            // 0x00/0xFF lane mask without carries.
            let care_mask = SPREAD[(care & 0xFF) as usize] * 0xFF;
            let digits = ZEROS | SPREAD[(val & 0xFF) as usize];
            (digits & care_mask | XS & !care_mask).to_le_bytes()
        }

        let (care_plane, val_plane) = self.planes();
        let start = out.len();
        out.resize(start + self.len, 0);
        for (chunk, (&care, &val)) in out[start..]
            .chunks_mut(WORD)
            .zip(care_plane.iter().zip(val_plane))
        {
            let mut groups = chunk.chunks_exact_mut(8);
            let mut shift = 0;
            for lanes in &mut groups {
                lanes.copy_from_slice(&group(care >> shift, val >> shift));
                shift += 8;
            }
            let tail = groups.into_remainder();
            if !tail.is_empty() {
                let n = tail.len();
                tail.copy_from_slice(&group(care >> shift, val >> shift)[..n]);
            }
        }
    }

    /// Packs a scalar bit slice.
    pub fn from_bits(bits: &[Bit]) -> PackedBits {
        let mut p = PackedBits::all_x(bits.len());
        let (care, val) = p.planes_mut();
        for (chunk, (cw, vw)) in bits.chunks(WORD).zip(care.iter_mut().zip(val)) {
            let (c, v) = pack_word(chunk);
            *cw = c;
            *vw = v;
        }
        p
    }

    /// Unpacks to a scalar bit vector (branchless table decode).
    pub fn to_bits(&self) -> Vec<Bit> {
        // Indexed by (!care << 1 | val): care-1 -> One, care-0 -> Zero,
        // no-care -> X (val is 0 there by canonicality).
        const DECODE: [Bit; 4] = [Bit::Zero, Bit::One, Bit::X, Bit::X];
        let (care, val) = self.planes();
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            let (w, b) = (i / WORD, i % WORD);
            let key = (!care[w] >> b & 1) << 1 | (val[w] >> b & 1);
            out.push(DECODE[key as usize]);
        }
        out
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the vector has no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The care plane (bit set ⇔ care position).
    #[inline]
    pub fn care_words(&self) -> &[u64] {
        self.planes().0
    }

    /// The value plane (`0` wherever the care bit is clear).
    #[inline]
    pub fn value_words(&self) -> &[u64] {
        self.planes().1
    }

    /// Bit at `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Bit {
        assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        let (w, b) = (i / WORD, i % WORD);
        let (care, val) = self.planes();
        if care[w] >> b & 1 == 0 {
            Bit::X
        } else if val[w] >> b & 1 == 1 {
            Bit::One
        } else {
            Bit::Zero
        }
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: usize, value: Bit) {
        assert!(i < self.len, "bit {i} out of range 0..{}", self.len);
        let (w, b) = (i / WORD, i % WORD);
        let (care, val) = self.planes_mut();
        splice_word(&mut care[w], &mut val[w], 1u64 << b, value);
    }

    /// Number of care bits (one `popcount` per word).
    pub fn care_count(&self) -> usize {
        self.care_words()
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Number of `X` bits.
    pub fn x_count(&self) -> usize {
        self.len - self.care_count()
    }

    /// Column of the first care bit, if any (`trailing_zeros` hop).
    pub fn first_care(&self) -> Option<usize> {
        self.care_words()
            .iter()
            .enumerate()
            .find_map(|(w, &cw)| (cw != 0).then(|| w * WORD + cw.trailing_zeros() as usize))
    }

    /// Column of the last care bit, if any (`leading_zeros` hop).
    pub fn last_care(&self) -> Option<usize> {
        self.care_words()
            .iter()
            .enumerate()
            .rev()
            .find_map(|(w, &cw)| {
                (cw != 0).then(|| w * WORD + (WORD - 1 - cw.leading_zeros() as usize))
            })
    }

    /// First care bit at column `pos` or later, if any — the resumable
    /// probe behind [`crate::stretch::scan_row_mut`]. Unlike
    /// [`PackedBits::care_positions`] it holds no iterator state, so the
    /// caller may interleave probes with plane writes at columns below
    /// `pos` (mask splices of already-classified stretches) without
    /// invalidating anything: each probe re-reads the planes from `pos`.
    pub fn next_care_at_or_after(&self, pos: usize) -> Option<(usize, Bit)> {
        let (care, val) = self.planes();
        let mut w = pos / WORD;
        if w >= care.len() {
            return None;
        }
        let mut m = care[w] & (u64::MAX << (pos % WORD));
        loop {
            if m != 0 {
                let b = m.trailing_zeros() as usize;
                let value = Bit::from_bool(val[w] >> b & 1 == 1);
                return Some((w * WORD + b, value));
            }
            w += 1;
            if w >= care.len() {
                return None;
            }
            m = care[w];
        }
    }

    /// Iterates over `(position, value)` of every care bit, skipping `X`
    /// runs in word-sized hops.
    pub fn care_positions(&self) -> CarePositions<'_> {
        let (care, val) = self.planes();
        CarePositions {
            care,
            val,
            word: 0,
            mask: care.first().copied().unwrap_or(0),
        }
    }

    /// The paper's `hd`: positions where both vectors carry opposite care
    /// bits — `popcount((a.val ^ b.val) & a.care & b.care)`, reduced by
    /// the active [`popcount`] kernel tier (scalar / SWAR / AVX2).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ. Use [`PackedBits::try_hamming`]
    /// where the widths come from untrusted input.
    pub fn hamming(&self, other: &PackedBits) -> usize {
        self.try_hamming(other)
            .unwrap_or_else(|e| panic!("hamming distance requires equal widths: {e}"))
    }

    /// [`PackedBits::hamming`] with the width check routed through
    /// [`CubeError`] instead of a panic — the entry point for callers
    /// fed by pattern files, where a malformed row must surface as a
    /// typed error rather than abort the process.
    ///
    /// # Errors
    ///
    /// Returns [`CubeError::WidthMismatch`] when the widths differ.
    pub fn try_hamming(&self, other: &PackedBits) -> Result<usize, CubeError> {
        self.check_width(other)?;
        Ok(self.hamming_with(popcount::active_kernel(), other))
    }

    /// The Hamming reduction on an explicit kernel tier, widths already
    /// validated — the per-pair step of the whole-set sweeps, which
    /// resolve the kernel once and hoist the dispatch out of the loop.
    #[inline]
    pub fn hamming_with(&self, kernel: PopcountKernel, other: &PackedBits) -> usize {
        debug_assert_eq!(
            self.len, other.len,
            "hamming distance requires equal widths"
        );
        let (care_a, val_a) = self.planes();
        let (care_b, val_b) = other.planes();
        kernel.masked_xor_popcount(val_a, val_b, care_a, care_b)
    }

    /// Weighted Hamming distance: `Σ weights[i]` over positions `i`
    /// where both vectors carry opposite care bits — the per-pair step
    /// of the weighted sweeps behind the pluggable fill objectives.
    /// Weights are fixed-point integers so the reduction is exact and
    /// order-independent; the conflict mask is the same
    /// `(a.val ^ b.val) & a.care & b.care` word the unit kernel
    /// popcounts, walked by `trailing_zeros` hops (conflict masks are
    /// sparse on ATPG-shaped inputs, so per-set-bit hops beat a full
    /// per-bit multiply-accumulate).
    ///
    /// # Errors
    ///
    /// Returns [`CubeError::WidthMismatch`] when the vector widths or
    /// the weight-table length differ from this vector's width, and
    /// [`CubeError::Overflow`] when the weighted sum exceeds `u64`.
    pub fn weighted_hamming(&self, other: &PackedBits, weights: &[u64]) -> Result<u64, CubeError> {
        self.check_width(other)?;
        if weights.len() != self.len {
            return Err(CubeError::WidthMismatch {
                expected: self.len,
                found: weights.len(),
            });
        }
        let mut total = 0u64;
        for (w, ((&va, &vb), (&ca, &cb))) in self.plane_pairs(other).enumerate() {
            let mut m = (va ^ vb) & ca & cb;
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                total = total
                    .checked_add(weights[w * WORD + b])
                    .ok_or(CubeError::Overflow {
                        what: "weighted toggle load",
                    })?;
                m &= m - 1;
            }
        }
        Ok(total)
    }

    /// Typed width guard shared by the fallible plane kernels.
    #[inline]
    fn check_width(&self, other: &PackedBits) -> Result<(), CubeError> {
        if self.len == other.len {
            Ok(())
        } else {
            Err(CubeError::WidthMismatch {
                expected: self.len,
                found: other.len,
            })
        }
    }

    /// Word-by-word `((val_a, val_b), (care_a, care_b))` over two rows,
    /// the walk shared by the pairwise plane kernels.
    fn plane_pairs<'a>(
        &'a self,
        other: &'a PackedBits,
    ) -> impl Iterator<Item = ((&'a u64, &'a u64), (&'a u64, &'a u64))> {
        let (care_a, val_a) = self.planes();
        let (care_b, val_b) = other.planes();
        val_a.iter().zip(val_b).zip(care_a.iter().zip(care_b))
    }

    /// `true` when no position carries opposite care bits.
    pub fn is_compatible(&self, other: &PackedBits) -> bool {
        self.len == other.len
            && self
                .plane_pairs(other)
                .all(|((&va, &vb), (&ca, &cb))| (va ^ vb) & ca & cb == 0)
    }

    /// Merges two compatible vectors into their intersection — the packed
    /// primitive of static test compaction. With no conflicting care bits,
    /// the merge is one OR per plane word (`val ⊆ care` is preserved
    /// because shared care positions agree). Returns `None` when the
    /// vectors are incompatible or differ in width; use
    /// [`PackedBits::try_merge`] to tell those cases apart.
    pub fn merge(&self, other: &PackedBits) -> Option<PackedBits> {
        self.try_merge(other).ok().flatten()
    }

    /// [`PackedBits::merge`] with the width check routed through
    /// [`CubeError`]: `Err` for mismatched widths (malformed input),
    /// `Ok(None)` for genuinely conflicting care bits (a normal
    /// compaction outcome), `Ok(Some(_))` for the merged cube.
    ///
    /// # Errors
    ///
    /// Returns [`CubeError::WidthMismatch`] when the widths differ.
    pub fn try_merge(&self, other: &PackedBits) -> Result<Option<PackedBits>, CubeError> {
        self.check_width(other)?;
        if !self.is_compatible(other) {
            return Ok(None);
        }
        let mut merged = self.clone();
        let (care, val) = merged.planes_mut();
        let (other_care, other_val) = other.planes();
        for (w, &o) in care.iter_mut().zip(other_care) {
            *w |= o;
        }
        for (w, &o) in val.iter_mut().zip(other_val) {
            *w |= o;
        }
        Ok(Some(merged))
    }

    /// `true` when every care bit of `other` is matched by `self` — the
    /// word-level containment check behind filling validation: per word,
    /// `other`'s care positions must be care in `self`
    /// (`cb & !ca == 0`) and carry the same value (`cb & (va^vb) == 0`).
    ///
    /// A width mismatch reports `false` (two differently sized vectors
    /// contain nothing of each other); [`PackedBits::try_is_contained_in`]
    /// surfaces it as a typed error instead.
    pub fn is_contained_in(&self, other: &PackedBits) -> bool {
        self.try_is_contained_in(other).unwrap_or(false)
    }

    /// [`PackedBits::is_contained_in`] with the width check routed
    /// through [`CubeError`].
    ///
    /// # Errors
    ///
    /// Returns [`CubeError::WidthMismatch`] when the widths differ.
    pub fn try_is_contained_in(&self, other: &PackedBits) -> Result<bool, CubeError> {
        self.check_width(other)?;
        Ok(self
            .plane_pairs(other)
            .all(|((&va, &vb), (&ca, &cb))| cb & !ca == 0 && cb & (va ^ vb) == 0))
    }

    /// `true` when no position is `X` (the care plane is all ones over
    /// the live bits).
    pub fn is_fully_specified(&self) -> bool {
        let care = self.care_words();
        let tail = tail_mask(self.len);
        care.iter()
            .enumerate()
            .all(|(w, &cw)| cw == if w + 1 == care.len() { tail } else { u64::MAX })
    }

    /// Overwrites columns `[lo, hi)` with the care value `value` — the
    /// mask-splice primitive behind the word-level fills.
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= hi <= self.len()`.
    pub fn fill_range(&mut self, lo: usize, hi: usize, value: Bit) {
        assert!(lo <= hi && hi <= self.len, "range {lo}..{hi} out of bounds");
        if lo == hi {
            return;
        }
        let (first_w, last_w) = (lo / WORD, (hi - 1) / WORD);
        let (care, val) = self.planes_mut();
        for w in first_w..=last_w {
            let from = if w == first_w { lo % WORD } else { 0 };
            let until = if w == last_w {
                (hi - 1) % WORD + 1
            } else {
                WORD
            };
            splice_word(&mut care[w], &mut val[w], span_mask(from, until), value);
        }
    }

    /// Fills every remaining `X` with the care value `value` in
    /// whole-word writes; filling with `X` is a no-op.
    pub fn fill_x_with(&mut self, value: Bit) {
        let Some(fill_one) = value.to_bool() else {
            return;
        };
        let tail = tail_mask(self.len);
        let (care, val) = self.planes_mut();
        let n = care.len();
        for (w, (cw, vw)) in care.iter_mut().zip(val).enumerate() {
            let live = if w + 1 == n { tail } else { u64::MAX };
            let x = !*cw & live;
            if fill_one {
                *vw |= x;
            }
            *cw |= x;
        }
    }

    /// Fills every `X` with the word `fill` restricted to the X
    /// positions — the whole-word primitive behind the packed R-fill.
    /// `fill_for_word(w)` supplies 64 random bits for word `w`.
    pub fn fill_x_from_words(&mut self, mut fill_for_word: impl FnMut(usize) -> u64) {
        let tail = tail_mask(self.len);
        let (care, val) = self.planes_mut();
        let n = care.len();
        for (w, (cw, vw)) in care.iter_mut().zip(val).enumerate() {
            let live = if w + 1 == n { tail } else { u64::MAX };
            let x = !*cw & live;
            *vw |= fill_for_word(w) & x;
            *cw |= x;
        }
    }

    /// Calls `f(t)` for every transition `t` (between positions `t` and
    /// `t+1`) where both positions carry opposite care bits — the
    /// word-level scan behind per-transition toggle loads. One
    /// XOR+AND+`trailing_zeros` pass per word.
    pub fn for_each_adjacent_conflict(&self, mut f: impl FnMut(usize)) {
        if self.len < 2 {
            return;
        }
        let (care, val) = self.planes();
        for w in 0..care.len() {
            let mut m = adjacent_conflict_word(care, val, w);
            while m != 0 {
                f(w * WORD + m.trailing_zeros() as usize);
                m &= m - 1;
            }
        }
    }

    /// Pull-based twin of [`PackedBits::for_each_adjacent_conflict`],
    /// yielding the conflict transitions in ascending order — what the
    /// dense-care stretch scanner merges against its X-run events.
    pub fn adjacent_conflicts(&self) -> AdjacentConflicts<'_> {
        let (care, val) = self.planes();
        let first = if self.len < 2 {
            0
        } else {
            adjacent_conflict_word(care, val, 0)
        };
        AdjacentConflicts {
            care,
            val,
            word: 0,
            mask: first,
        }
    }

    /// Number of adjacent care-care conflicts — a pure XOR+popcount
    /// sweep, no per-bit iteration. On a fully specified row this is the
    /// row's entire toggle contribution (it has no stretches), which is
    /// what makes the dense-care fast path skip classification.
    pub fn adjacent_conflict_count(&self) -> usize {
        if self.len < 2 {
            return 0;
        }
        let (care, val) = self.planes();
        (0..care.len())
            .map(|w| adjacent_conflict_word(care, val, w).count_ones() as usize)
            .sum()
    }

    /// First `X` position at column `pos` or later, if any — the
    /// complement twin of [`PackedBits::next_care_at_or_after`], probing
    /// the inverted care plane under the live-bit tail mask. The X-run
    /// ("dense-care") scanner hops between don't-care runs with this, so
    /// its cost scales with the number of runs instead of care bits.
    pub fn next_x_at_or_after(&self, pos: usize) -> Option<usize> {
        if pos >= self.len {
            return None;
        }
        let care = self.care_words();
        let n = care.len();
        let tail = tail_mask(self.len);
        let mut w = pos / WORD;
        let live = |w: usize| if w + 1 == n { tail } else { u64::MAX };
        let mut m = !care[w] & live(w) & (u64::MAX << (pos % WORD));
        loop {
            if m != 0 {
                return Some(w * WORD + m.trailing_zeros() as usize);
            }
            w += 1;
            if w >= n {
                return None;
            }
            m = !care[w] & live(w);
        }
    }

    /// MT/Adj-style run fill, entirely by mask splices: every `X` run
    /// copies the care value to its left, a leading run copies the first
    /// care value, and an all-`X` vector becomes all `default`.
    ///
    /// This reproduces MT-fill semantics bit-for-bit along a pin row,
    /// and Adj-fill semantics along a cube.
    pub fn fill_runs_copy_left(&mut self, default: Bit) {
        let Some(first) = self.first_care() else {
            self.fill_range(0, self.len, default);
            return;
        };
        let first_value = self.get(first);
        self.fill_range(0, first, first_value);
        let mut prev: Option<(usize, Bit)> = None;
        // Collect splices first: care_positions borrows self immutably.
        let mut splices: Vec<(usize, usize, Bit)> = Vec::new();
        for (pos, value) in self.care_positions() {
            if let Some((p, pv)) = prev {
                if pos > p + 1 {
                    splices.push((p + 1, pos, pv));
                }
            }
            prev = Some((pos, value));
        }
        if let Some((p, pv)) = prev {
            if p + 1 < self.len {
                splices.push((p + 1, self.len, pv));
            }
        }
        for (lo, hi, v) in splices {
            self.fill_range(lo, hi, v);
        }
    }
}

/// Iterator over the care positions of a [`PackedBits`].
#[derive(Clone, Debug)]
pub struct CarePositions<'a> {
    care: &'a [u64],
    val: &'a [u64],
    word: usize,
    mask: u64,
}

impl Iterator for CarePositions<'_> {
    type Item = (usize, Bit);

    fn next(&mut self) -> Option<(usize, Bit)> {
        while self.mask == 0 {
            self.word += 1;
            if self.word >= self.care.len() {
                return None;
            }
            self.mask = self.care[self.word];
        }
        let b = self.mask.trailing_zeros() as usize;
        self.mask &= self.mask - 1;
        let pos = self.word * WORD + b;
        let value = Bit::from_bool(self.val[self.word] >> b & 1 == 1);
        Some((pos, value))
    }
}

/// Mask of the adjacent care-care conflicts whose left column sits in
/// word `w` of the planes: bit `b` set ⇔ positions `w*64+b` and
/// `w*64+b+1` hold opposite care bits. Canonical tails (zero care past
/// `len`) keep phantom transitions out of the mask.
#[inline]
fn adjacent_conflict_word(care: &[u64], val: &[u64], w: usize) -> u64 {
    let n = care.len();
    let carry_c = if w + 1 < n { care[w + 1] << 63 } else { 0 };
    let carry_v = if w + 1 < n { val[w + 1] << 63 } else { 0 };
    let c2 = care[w] >> 1 | carry_c;
    let v2 = val[w] >> 1 | carry_v;
    (val[w] ^ v2) & care[w] & c2
}

/// Iterator over the adjacent care-care conflict transitions of a
/// [`PackedBits`], in ascending column order.
#[derive(Clone, Debug)]
pub struct AdjacentConflicts<'a> {
    care: &'a [u64],
    val: &'a [u64],
    word: usize,
    mask: u64,
}

impl Iterator for AdjacentConflicts<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.mask == 0 {
            self.word += 1;
            if self.word >= self.care.len() {
                return None;
            }
            self.mask = adjacent_conflict_word(self.care, self.val, self.word);
        }
        let b = self.mask.trailing_zeros() as usize;
        self.mask &= self.mask - 1;
        Some(self.word * WORD + b)
    }
}

impl std::fmt::Display for PackedBits {
    /// Renders the row as a `01X` string straight from the planes, one
    /// `write_char` per bit. Pattern emission uses
    /// [`PackedBits::append_pattern_ascii`]; this is its differential
    /// oracle.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use std::fmt::Write as _;
        let (care, val) = self.planes();
        for i in 0..self.len {
            let (w, b) = (i / WORD, i % WORD);
            let c = if care[w] >> b & 1 == 0 {
                'X'
            } else if val[w] >> b & 1 == 1 {
                '1'
            } else {
                '0'
            };
            f.write_char(c)?;
        }
        Ok(())
    }
}

impl From<&[Bit]> for PackedBits {
    fn from(bits: &[Bit]) -> PackedBits {
        PackedBits::from_bits(bits)
    }
}

impl From<&TestCube> for PackedBits {
    fn from(cube: &TestCube) -> PackedBits {
        PackedBits::from_bits(cube.bits())
    }
}

/// Packs up to 64 scalar bits into `(care, value)` planes.
///
/// Branchless: the enum discriminants (`Zero = 0`, `One = 1`, `X = 2`)
/// turn into plane bits with two shifts per element, which keeps the
/// pack leg of the one-shot public kernels out of the branch predictor.
#[inline]
pub fn pack_word(bits: &[Bit]) -> (u64, u64) {
    debug_assert!(bits.len() <= WORD);
    let mut care = 0u64;
    let mut val = 0u64;
    for (i, &b) in bits.iter().enumerate() {
        let d = b as u64; // Zero=0, One=1, X=2
        care |= ((d >> 1) ^ 1) << i;
        val |= (d & 1) << i;
    }
    (care, val)
}

/// A packed pattern sequence: one [`PackedBits`] per cube, all of one
/// width. The popcount backing store of [`CubeSet`].
///
/// # Example
///
/// ```
/// use dpfill_cubes::packed::PackedCubeSet;
/// use dpfill_cubes::CubeSet;
///
/// let set = CubeSet::parse_rows(&["0101", "0011", "XX11"]).unwrap();
/// let packed = PackedCubeSet::from_cube_set(&set);
/// assert_eq!(packed.toggle_profile(), vec![2, 0]);
/// assert_eq!(packed.peak_toggles(), 2);
/// assert_eq!(packed.to_cube_set(), set);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PackedCubeSet {
    width: usize,
    cubes: Vec<PackedBits>,
}

impl PackedCubeSet {
    /// An empty set of the given width.
    pub fn new(width: usize) -> PackedCubeSet {
        PackedCubeSet {
            width,
            cubes: Vec::new(),
        }
    }

    /// Clones a cube set's packed backing store. Since PR 2 the
    /// [`CubeSet`] *is* packed-backed, so this is a plane copy, not a
    /// pack; kept for API compatibility with packed-kernel call sites.
    pub fn from_cube_set(set: &CubeSet) -> PackedCubeSet {
        set.as_packed().clone()
    }

    /// Wraps a clone of this set in the [`CubeSet`] facade (plane copy;
    /// use [`CubeSet::from_packed`] to move without copying).
    pub fn to_cube_set(&self) -> CubeSet {
        CubeSet::from_packed(self.clone())
    }

    /// Cube width in pins.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of cubes.
    #[inline]
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// `true` when the set holds no cubes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// The packed cubes in order.
    #[inline]
    pub fn cubes(&self) -> &[PackedBits] {
        &self.cubes
    }

    /// Mutable access for word-level fills.
    #[inline]
    pub fn cubes_mut(&mut self) -> &mut [PackedBits] {
        &mut self.cubes
    }

    /// Cube at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn cube(&self, index: usize) -> &PackedBits {
        &self.cubes[index]
    }

    /// Appends a packed cube.
    ///
    /// # Panics
    ///
    /// Panics if the cube width differs from the set width.
    pub fn push(&mut self, cube: PackedBits) {
        assert_eq!(cube.len(), self.width, "cube width mismatch");
        self.cubes.push(cube);
    }

    /// Per-transition toggle counts `hd(T_j, T_{j+1})` — one batched
    /// sweep over the adjacent pairs: the popcount kernel is resolved
    /// once and every pair reduces through it, instead of per-pair
    /// [`PackedBits::hamming`] calls re-dispatching each time.
    pub fn toggle_profile(&self) -> Vec<usize> {
        let kernel = popcount::active_kernel();
        self.cubes
            .windows(2)
            .map(|w| w[0].hamming_with(kernel, &w[1]))
            .collect()
    }

    /// Peak toggles `max_j hd(T_j, T_{j+1})`; `0` for fewer than two
    /// cubes. One batched adjacent-pair sweep.
    pub fn peak_toggles(&self) -> usize {
        let kernel = popcount::active_kernel();
        self.cubes
            .windows(2)
            .map(|w| w[0].hamming_with(kernel, &w[1]))
            .max()
            .unwrap_or(0)
    }

    /// Total toggles across the sequence. One batched adjacent-pair
    /// sweep.
    pub fn total_toggles(&self) -> usize {
        self.total_conflicts()
    }

    /// Total adjacent conflicts `Σ_j hd(T_j, T_{j+1})` — the same
    /// reduction under its pre-fill name: on a partially specified set
    /// the count is the unavoidable-toggle floor of the ordering, which
    /// is what the ordering scorers minimize.
    pub fn total_conflicts(&self) -> usize {
        let kernel = popcount::active_kernel();
        self.cubes
            .windows(2)
            .map(|w| w[0].hamming_with(kernel, &w[1]))
            .sum()
    }

    /// Pairwise-distance sweep from cube `from` to every cube of the
    /// set: element `i` is `hd(T_from, T_i)` (`0` at `from` itself).
    /// One kernel resolve for the whole sweep. This is the one-vs-all
    /// set-level primitive; chunked candidate loops that filter as they
    /// go (the XStat ordering) hold a kernel-hoisted scorer instead and
    /// skip the materialized vector.
    ///
    /// # Panics
    ///
    /// Panics if `from >= self.len()`.
    pub fn distances_from(&self, from: usize) -> Vec<usize> {
        let kernel = popcount::active_kernel();
        let anchor = &self.cubes[from];
        self.cubes
            .iter()
            .map(|c| anchor.hamming_with(kernel, c))
            .collect()
    }

    /// Batched distance sweep over arbitrary index pairs: element `k` is
    /// `hd(T_{pairs[k].0}, T_{pairs[k].1})`, all pairs sharing one
    /// kernel resolve. Allocation-averse hot loops (the ISA annealer's
    /// move rescoring) hold the kernel themselves and call
    /// [`PackedBits::hamming_with`] per pair; this is the set-level
    /// batch entry point for everyone else.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn hamming_pairs(&self, pairs: &[(usize, usize)]) -> Vec<usize> {
        let kernel = popcount::active_kernel();
        pairs
            .iter()
            .map(|&(a, b)| self.cubes[a].hamming_with(kernel, &self.cubes[b]))
            .collect()
    }

    /// Weighted per-transition toggle loads: element `j` is the
    /// weighted Hamming distance between cubes `j` and `j + 1` under
    /// the per-pin `weights` table — the weighted twin of
    /// [`PackedCubeSet::toggle_profile`], batched the same way (one
    /// sweep over adjacent pairs).
    ///
    /// # Errors
    ///
    /// Returns [`CubeError::WidthMismatch`] when the weight table's
    /// length differs from the set width, and [`CubeError::Overflow`]
    /// when any transition's weighted sum exceeds `u64`.
    pub fn weighted_toggle_profile(&self, weights: &[u64]) -> Result<Vec<u64>, CubeError> {
        self.cubes
            .windows(2)
            .map(|w| w[0].weighted_hamming(&w[1], weights))
            .collect()
    }

    /// Weighted peak toggle load `max_j whd(T_j, T_{j+1})`; `0` for
    /// fewer than two cubes.
    ///
    /// # Errors
    ///
    /// Same as [`PackedCubeSet::weighted_toggle_profile`].
    pub fn weighted_peak_toggles(&self, weights: &[u64]) -> Result<u64, CubeError> {
        let mut peak = 0u64;
        for w in self.cubes.windows(2) {
            peak = peak.max(w[0].weighted_hamming(&w[1], weights)?);
        }
        Ok(peak)
    }

    /// Weighted one-vs-all distance sweep — the weighted twin of
    /// [`PackedCubeSet::distances_from`].
    ///
    /// # Errors
    ///
    /// Same as [`PackedCubeSet::weighted_toggle_profile`].
    ///
    /// # Panics
    ///
    /// Panics if `from >= self.len()`.
    pub fn weighted_distances_from(
        &self,
        from: usize,
        weights: &[u64],
    ) -> Result<Vec<u64>, CubeError> {
        let anchor = &self.cubes[from];
        self.cubes
            .iter()
            .map(|c| anchor.weighted_hamming(c, weights))
            .collect()
    }

    /// Weighted batched distance sweep over arbitrary index pairs — the
    /// weighted twin of [`PackedCubeSet::hamming_pairs`].
    ///
    /// # Errors
    ///
    /// Same as [`PackedCubeSet::weighted_toggle_profile`].
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn weighted_hamming_pairs(
        &self,
        pairs: &[(usize, usize)],
        weights: &[u64],
    ) -> Result<Vec<u64>, CubeError> {
        pairs
            .iter()
            .map(|&(a, b)| self.cubes[a].weighted_hamming(&self.cubes[b], weights))
            .collect()
    }

    /// Total number of `X` bits.
    pub fn x_count(&self) -> usize {
        self.cubes.iter().map(PackedBits::x_count).sum()
    }

    /// A new set whose cube `p` is this set's cube `order[p]` (row
    /// clones, no unpack/repack).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn reordered(&self, order: &[usize]) -> PackedCubeSet {
        PackedCubeSet {
            width: self.width,
            cubes: order.iter().map(|&i| self.cubes[i].clone()).collect(),
        }
    }

    /// Consumes the set and returns its packed rows.
    pub fn into_cubes(self) -> Vec<PackedBits> {
        self.cubes
    }

    /// Builds a set from packed rows of uniform width.
    ///
    /// # Panics
    ///
    /// Panics if any row's width differs from `width`.
    pub fn from_rows(width: usize, cubes: Vec<PackedBits>) -> PackedCubeSet {
        assert!(
            cubes.iter().all(|c| c.len() == width),
            "cube width mismatch"
        );
        PackedCubeSet { width, cubes }
    }
}

impl From<&CubeSet> for PackedCubeSet {
    fn from(set: &CubeSet) -> PackedCubeSet {
        PackedCubeSet::from_cube_set(set)
    }
}

/// Transposes a 64×64 bit matrix in place: afterwards bit `j` of word
/// `i` is the old bit `i` of word `j`.
///
/// Recursive block-swap (Hacker's Delight 7-3, adapted to LSB-first bit
/// order on both axes): at stride `j` the high-`j` sub-block of `a[k]`
/// swaps with the low-`j` sub-block of `a[k | j]`.
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// The packed pins × cubes matrix: row `p` holds pin `p`'s value across
/// the ordered cubes. Built from a [`PackedCubeSet`] by a word-blocked
/// 64×64 bit transpose of each plane.
///
/// # Example
///
/// ```
/// use dpfill_cubes::packed::{PackedCubeSet, PackedMatrix};
/// use dpfill_cubes::{Bit, CubeSet};
///
/// let set = CubeSet::parse_rows(&["0X", "1X", "X1"]).unwrap();
/// let m = PackedMatrix::from_packed_set(&PackedCubeSet::from(&set));
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m.row(0).to_bits(), vec![Bit::Zero, Bit::One, Bit::X]);
/// assert_eq!(m.to_packed_set().to_cube_set(), set);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PackedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<PackedBits>,
}

impl PackedMatrix {
    /// An all-`X` matrix of `rows` pins × `cols` cubes.
    pub fn all_x(rows: usize, cols: usize) -> PackedMatrix {
        PackedMatrix {
            rows,
            cols,
            data: (0..rows).map(|_| PackedBits::all_x(cols)).collect(),
        }
    }

    /// Word-blocked transpose of a packed cube set into the row-per-pin
    /// view: both planes are carved into 64×64 tiles and flipped with
    /// [`transpose64`], so the cost is `rows·cols/64` word ops instead of
    /// `rows·cols` bit scatters.
    pub fn from_packed_set(set: &PackedCubeSet) -> PackedMatrix {
        Self::gather_transpose(set, set.len(), |col| col)
    }

    /// Word-blocked transpose of `set` *as seen through* the permutation
    /// `order`: column `p` of the result is cube `order[p]`. The gather
    /// happens during tile loading, so candidate orderings (the
    /// I-ordering's Algorithm 3 loop) never materialize a reordered cube
    /// set at all.
    ///
    /// # Panics
    ///
    /// Panics if an index in `order` is out of range.
    pub fn from_reordered_set(set: &PackedCubeSet, order: &[usize]) -> PackedMatrix {
        Self::gather_transpose(set, order.len(), |col| order[col])
    }

    /// The shared tile kernel behind [`PackedMatrix::from_packed_set`]
    /// and [`PackedMatrix::from_reordered_set`]: matrix column `col`
    /// reads cube `cube_index(col)`.
    fn gather_transpose(
        set: &PackedCubeSet,
        cols: usize,
        cube_index: impl Fn(usize) -> usize,
    ) -> PackedMatrix {
        let rows = set.width();
        let mut m = PackedMatrix::all_x(rows, cols);
        let mut care_tile = [0u64; 64];
        let mut val_tile = [0u64; 64];
        for pin_block in 0..words_for(rows) {
            for cube_block in 0..words_for(cols) {
                let cube_lo = cube_block * WORD;
                let cube_hi = (cube_lo + WORD).min(cols);
                for (t, col) in (cube_lo..cube_hi).enumerate() {
                    let (care, val) = set.cubes[cube_index(col)].planes();
                    care_tile[t] = care[pin_block];
                    val_tile[t] = val[pin_block];
                }
                for t in cube_hi - cube_lo..64 {
                    care_tile[t] = 0;
                    val_tile[t] = 0;
                }
                transpose64(&mut care_tile);
                transpose64(&mut val_tile);
                let pin_lo = pin_block * WORD;
                let pin_hi = (pin_lo + WORD).min(rows);
                for (t, pin_idx) in (pin_lo..pin_hi).enumerate() {
                    let (care, val) = m.data[pin_idx].planes_mut();
                    care[cube_block] = care_tile[t];
                    val[cube_block] = val_tile[t];
                }
            }
        }
        m
    }

    /// Inverse word-blocked transpose back to the cube-major view.
    pub fn to_packed_set(&self) -> PackedCubeSet {
        let mut set = PackedCubeSet {
            width: self.rows,
            cubes: (0..self.cols)
                .map(|_| PackedBits::all_x(self.rows))
                .collect(),
        };
        let mut care_tile = [0u64; 64];
        let mut val_tile = [0u64; 64];
        for cube_block in 0..words_for(self.cols) {
            for pin_block in 0..words_for(self.rows) {
                let pin_lo = pin_block * WORD;
                let pin_hi = (pin_lo + WORD).min(self.rows);
                for (t, pin_idx) in (pin_lo..pin_hi).enumerate() {
                    let (care, val) = self.data[pin_idx].planes();
                    care_tile[t] = care[cube_block];
                    val_tile[t] = val[cube_block];
                }
                for t in pin_hi - pin_lo..64 {
                    care_tile[t] = 0;
                    val_tile[t] = 0;
                }
                transpose64(&mut care_tile);
                transpose64(&mut val_tile);
                let cube_lo = cube_block * WORD;
                let cube_hi = (cube_lo + WORD).min(self.cols);
                for (t, cube_idx) in (cube_lo..cube_hi).enumerate() {
                    let (care, val) = set.cubes[cube_idx].planes_mut();
                    care[pin_block] = care_tile[t];
                    val[pin_block] = val_tile[t];
                }
            }
        }
        set
    }

    /// Packs a scalar [`PinMatrix`].
    pub fn from_pin_matrix(matrix: &PinMatrix) -> PackedMatrix {
        PackedMatrix {
            rows: matrix.rows(),
            cols: matrix.cols(),
            data: (0..matrix.rows())
                .map(|r| PackedBits::from_bits(matrix.row(r)))
                .collect(),
        }
    }

    /// Unpacks to the scalar [`PinMatrix`].
    pub fn to_pin_matrix(&self) -> PinMatrix {
        let mut m = PinMatrix::all_x(self.rows, self.cols);
        for (r, row) in self.data.iter().enumerate() {
            for (pos, value) in row.care_positions() {
                m.set(r, pos, value);
            }
        }
        m
    }

    /// Number of pins (rows).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of cubes (columns).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Packed row for pin `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub fn row(&self, row: usize) -> &PackedBits {
        &self.data[row]
    }

    /// Mutable packed row (for mask-splice fills).
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut PackedBits {
        &mut self.data[row]
    }

    /// Iterates over the packed rows.
    pub fn iter_rows(&self) -> std::slice::Iter<'_, PackedBits> {
        self.data.iter()
    }

    /// The packed rows as one slice (row `p` = pin `p`) — the unit the
    /// parallel pipeline chunks across workers.
    #[inline]
    pub fn packed_rows(&self) -> &[PackedBits] {
        &self.data
    }

    /// Mutable packed rows, for chunked parallel mask-splice fills
    /// (disjoint sub-slices go to different workers).
    #[inline]
    pub fn packed_rows_mut(&mut self) -> &mut [PackedBits] {
        &mut self.data
    }

    /// Number of `X` bits left in the matrix.
    pub fn x_count(&self) -> usize {
        self.data.iter().map(PackedBits::x_count).sum()
    }
}

/// Mask with bits `[from, until)` set (`until <= 64`).
#[inline]
fn span_mask(from: usize, until: usize) -> u64 {
    debug_assert!(from <= until && until <= WORD);
    let hi = if until == WORD {
        u64::MAX
    } else {
        (1u64 << until) - 1
    };
    let lo = (1u64 << from) - 1;
    hi & !lo
}

/// Writes `value` into the positions of `mask` in one word of each
/// plane.
#[inline]
fn splice_word(care: &mut u64, val: &mut u64, mask: u64, value: Bit) {
    match value {
        Bit::X => {
            *care &= !mask;
            *val &= !mask;
        }
        Bit::Zero => {
            *care |= mask;
            *val &= !mask;
        }
        Bit::One => {
            *care |= mask;
            *val |= mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_cube_set;

    fn bits(s: &str) -> Vec<Bit> {
        s.chars().map(|c| Bit::from_char(c).unwrap()).collect()
    }

    #[test]
    fn round_trip_all_lengths_near_word_boundary() {
        for len in [0, 1, 63, 64, 65, 127, 128, 130] {
            let set = random_cube_set(len, 3, 0.5, len as u64);
            for cube in set.iter() {
                let packed = PackedBits::from(&cube);
                assert_eq!(packed.to_bits(), cube.bits(), "len {len}");
                assert_eq!(packed.x_count(), cube.x_count());
            }
        }
    }

    #[test]
    fn get_set_agree_with_scalar() {
        let mut packed = PackedBits::all_x(70);
        packed.set(0, Bit::Zero);
        packed.set(63, Bit::One);
        packed.set(64, Bit::One);
        packed.set(69, Bit::Zero);
        assert_eq!(packed.get(0), Bit::Zero);
        assert_eq!(packed.get(63), Bit::One);
        assert_eq!(packed.get(64), Bit::One);
        assert_eq!(packed.get(69), Bit::Zero);
        assert_eq!(packed.get(1), Bit::X);
        packed.set(63, Bit::X);
        assert_eq!(packed.get(63), Bit::X);
        assert_eq!(packed.x_count(), 70 - 3);
    }

    #[test]
    fn hamming_matches_scalar() {
        for seed in 0..6u64 {
            let set = random_cube_set(130, 6, 0.5, seed);
            for i in 0..set.len() {
                for j in 0..set.len() {
                    let a = PackedBits::from(&set.cube(i));
                    let b = PackedBits::from(&set.cube(j));
                    let scalar = set
                        .cube(i)
                        .iter()
                        .zip(set.cube(j).iter())
                        .filter(|(x, y)| x.conflicts(*y))
                        .count();
                    assert_eq!(a.hamming(&b), scalar, "seed {seed} cubes {i},{j}");
                }
            }
        }
    }

    #[test]
    fn care_positions_skip_x_runs() {
        let mut p = PackedBits::all_x(67);
        p.set(2, Bit::Zero);
        p.set(64, Bit::One);
        let positions: Vec<(usize, Bit)> = p.care_positions().collect();
        assert_eq!(positions, vec![(2, Bit::Zero), (64, Bit::One)]);
        assert_eq!(p.first_care(), Some(2));
        assert_eq!(p.last_care(), Some(64));
        assert_eq!(PackedBits::all_x(5).first_care(), None);
        assert_eq!(PackedBits::all_x(5).last_care(), None);
    }

    #[test]
    fn fill_range_spans_word_boundaries() {
        let mut p = PackedBits::all_x(130);
        p.fill_range(60, 70, Bit::One);
        p.fill_range(0, 2, Bit::Zero);
        p.fill_range(128, 130, Bit::One);
        for i in 0..130 {
            let want = if (60..70).contains(&i) || i >= 128 {
                Bit::One
            } else if i < 2 {
                Bit::Zero
            } else {
                Bit::X
            };
            assert_eq!(p.get(i), want, "bit {i}");
        }
        // Splicing X back out also works.
        p.fill_range(60, 70, Bit::X);
        assert_eq!(p.get(65), Bit::X);
    }

    #[test]
    fn fill_x_with_leaves_care_bits() {
        let mut p = PackedBits::from_bits(&bits("0XX1"));
        p.fill_x_with(Bit::One);
        assert_eq!(p.to_bits(), bits("0111"));
        let mut q = PackedBits::from_bits(&bits("0XX1"));
        q.fill_x_with(Bit::Zero);
        assert_eq!(q.to_bits(), bits("0001"));
    }

    #[test]
    fn fill_runs_copy_left_matches_mt_semantics() {
        let mut p = PackedBits::from_bits(&bits("XX0XX1XXX0XX"));
        p.fill_runs_copy_left(Bit::Zero);
        assert_eq!(
            p.to_bits(),
            bits("000001111000"),
            "leading copies first care, runs copy left, trailing copies last"
        );
        let mut all_x = PackedBits::all_x(5);
        all_x.fill_runs_copy_left(Bit::Zero);
        assert_eq!(all_x.to_bits(), bits("00000"));
    }

    #[test]
    fn transpose64_is_involutive_and_correct() {
        let mut a = [0u64; 64];
        for (i, w) in a.iter_mut().enumerate() {
            *w = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (1 << (i % 64));
        }
        let orig = a;
        transpose64(&mut a);
        for (i, &row) in a.iter().enumerate() {
            for (j, &col) in orig.iter().enumerate() {
                assert_eq!(row >> j & 1, col >> i & 1, "({i},{j})");
            }
        }
        transpose64(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn matrix_transpose_round_trips_odd_shapes() {
        for (w, n, seed) in [
            (1, 1, 1u64),
            (5, 3, 2),
            (64, 64, 3),
            (65, 63, 4),
            (130, 70, 5),
            (200, 129, 6),
        ] {
            let set = random_cube_set(w, n, 0.6, seed);
            let packed = PackedCubeSet::from(&set);
            let m = PackedMatrix::from_packed_set(&packed);
            assert_eq!(m.rows(), w);
            assert_eq!(m.cols(), n);
            assert_eq!(m.to_packed_set(), packed, "{w}x{n}");
            assert_eq!(m.to_packed_set().to_cube_set(), set);
            // Agrees with the scalar transpose.
            let scalar = set.to_pin_matrix();
            assert_eq!(m.to_pin_matrix(), scalar, "{w}x{n} vs scalar");
            assert_eq!(PackedMatrix::from_pin_matrix(&scalar), m);
        }
    }

    #[test]
    fn reordered_gather_transpose_matches_materialized_reorder() {
        // Shapes spanning several 64-wide tiles on both axes, so the
        // gather path exercises the same boundary handling as the
        // identity transpose.
        for (w, n, seed) in [
            (5usize, 3usize, 1u64),
            (65, 63, 2),
            (130, 70, 3),
            (200, 129, 4),
        ] {
            let set = random_cube_set(w, n, 0.6, seed);
            let packed = PackedCubeSet::from(&set);
            let order: Vec<usize> = (0..n).rev().collect();
            let gathered = PackedMatrix::from_reordered_set(&packed, &order);
            let materialized = PackedMatrix::from_packed_set(&packed.reordered(&order));
            assert_eq!(gathered, materialized, "{w}x{n}");
        }
    }

    #[test]
    fn packed_set_toggle_kernels_match_docs() {
        let set = CubeSet::parse_rows(&["000", "011", "010", "101"]).unwrap();
        let packed = PackedCubeSet::from(&set);
        assert_eq!(packed.toggle_profile(), vec![2, 1, 3]);
        assert_eq!(packed.peak_toggles(), 3);
        assert_eq!(packed.total_toggles(), 6);
        assert_eq!(packed.x_count(), 0);
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let set = PackedCubeSet::new(4);
        assert!(set.is_empty());
        assert_eq!(set.peak_toggles(), 0);
        let m = PackedMatrix::from_packed_set(&set);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 0);
        let back = m.to_packed_set();
        assert_eq!(back.width(), 4);
        assert!(back.is_empty());

        let zero_width = PackedMatrix::all_x(0, 0);
        assert_eq!(zero_width.x_count(), 0);
        assert!(zero_width.to_packed_set().is_empty());
    }

    #[test]
    fn adjacent_conflict_scan_matches_scalar() {
        for seed in 0..8u64 {
            let len = 60 + seed as usize * 13;
            let set = random_cube_set(1, len, 0.5, seed);
            let m = set.to_pin_matrix();
            let row = m.row(0);
            let mut scalar = Vec::new();
            for t in 0..len.saturating_sub(1) {
                if row[t].conflicts(row[t + 1]) {
                    scalar.push(t);
                }
            }
            let mut packed_hits = Vec::new();
            PackedBits::from_bits(row).for_each_adjacent_conflict(|t| packed_hits.push(t));
            assert_eq!(packed_hits, scalar, "seed {seed} len {len}");
        }
        // Degenerate lengths.
        PackedBits::all_x(0).for_each_adjacent_conflict(|_| panic!("no transitions"));
        PackedBits::all_x(1).for_each_adjacent_conflict(|_| panic!("no transitions"));
    }

    #[test]
    fn adjacent_conflict_iterator_and_count_match_visitor() {
        for seed in 0..8u64 {
            let len = 50 + seed as usize * 21;
            let set = random_cube_set(1, len, 0.4, seed);
            let row = PackedBits::from_bits(set.to_pin_matrix().row(0));
            let mut visited = Vec::new();
            row.for_each_adjacent_conflict(|t| visited.push(t));
            let pulled: Vec<usize> = row.adjacent_conflicts().collect();
            assert_eq!(pulled, visited, "seed {seed}");
            assert_eq!(row.adjacent_conflict_count(), visited.len(), "seed {seed}");
        }
        assert_eq!(PackedBits::all_x(0).adjacent_conflict_count(), 0);
        assert_eq!(PackedBits::all_x(1).adjacent_conflicts().next(), None);
    }

    #[test]
    fn next_x_probe_hops_word_boundaries() {
        let mut p = PackedBits::all_x(130);
        p.fill_range(0, 70, Bit::One);
        assert_eq!(p.next_x_at_or_after(0), Some(70));
        assert_eq!(p.next_x_at_or_after(70), Some(70));
        assert_eq!(p.next_x_at_or_after(129), Some(129));
        assert_eq!(p.next_x_at_or_after(130), None);
        p.fill_range(70, 130, Bit::Zero);
        assert_eq!(p.next_x_at_or_after(0), None, "fully specified row");
        // The probe must not report phantom X bits past `len`.
        let q = PackedBits::from_bits(&bits("01"));
        assert_eq!(q.next_x_at_or_after(0), None);
        assert_eq!(PackedBits::all_x(0).next_x_at_or_after(0), None);
    }

    #[test]
    fn fallible_kernels_report_width_mismatch() {
        let a = PackedBits::from_bits(&bits("0X1X"));
        let b = PackedBits::from_bits(&bits("0X1"));
        let mismatch = CubeError::WidthMismatch {
            expected: 4,
            found: 3,
        };
        assert_eq!(a.try_hamming(&b), Err(mismatch.clone()));
        assert_eq!(a.try_merge(&b), Err(mismatch.clone()));
        assert_eq!(a.try_is_contained_in(&b), Err(mismatch));
        // The infallible views keep their documented lenient behavior.
        assert_eq!(a.merge(&b), None);
        assert!(!a.is_contained_in(&b));
        // Equal widths: typed paths agree with the originals.
        let c = PackedBits::from_bits(&bits("0XXX"));
        assert_eq!(a.try_hamming(&c).unwrap(), a.hamming(&c));
        assert_eq!(a.try_merge(&c).unwrap(), a.merge(&c));
        assert_eq!(a.try_is_contained_in(&c).unwrap(), a.is_contained_in(&c));
    }

    #[test]
    #[should_panic(expected = "equal widths")]
    fn packed_hamming_panics_on_width_mismatch() {
        let a = PackedBits::all_x(4);
        let b = PackedBits::all_x(5);
        let _ = a.hamming(&b);
    }

    #[test]
    fn whole_set_sweeps_match_per_pair_kernels() {
        for seed in 0..4u64 {
            let set = random_cube_set(130, 12, 0.5, seed);
            let packed = PackedCubeSet::from(&set);
            let per_pair: Vec<usize> = packed
                .cubes()
                .windows(2)
                .map(|w| w[0].hamming(&w[1]))
                .collect();
            assert_eq!(packed.toggle_profile(), per_pair, "seed {seed}");
            assert_eq!(
                packed.peak_toggles(),
                per_pair.iter().copied().max().unwrap_or(0)
            );
            assert_eq!(packed.total_conflicts(), per_pair.iter().sum::<usize>());
            assert_eq!(packed.total_toggles(), packed.total_conflicts());
            for from in [0, packed.len() / 2, packed.len() - 1] {
                let sweep = packed.distances_from(from);
                for (i, &d) in sweep.iter().enumerate() {
                    assert_eq!(d, packed.cube(from).hamming(packed.cube(i)));
                }
            }
            let pairs: Vec<(usize, usize)> = (0..packed.len() - 1).map(|i| (i, i + 1)).collect();
            assert_eq!(packed.hamming_pairs(&pairs), per_pair);
        }
        assert!(PackedCubeSet::new(8).hamming_pairs(&[]).is_empty());
    }

    #[test]
    fn compatibility_and_canonical_equality() {
        let a = PackedBits::from_bits(&bits("0X1X"));
        let b = PackedBits::from_bits(&bits("0XX1"));
        let c = PackedBits::from_bits(&bits("1XXX"));
        assert!(a.is_compatible(&b));
        assert!(!a.is_compatible(&c));
        // Setting a bit to X restores exact equality with a fresh pack.
        let mut d = a.clone();
        d.set(2, Bit::X);
        assert_eq!(d, PackedBits::from_bits(&bits("0XXX")));
    }
}
