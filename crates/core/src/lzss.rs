//! Minimal std-only LZSS codec backing `RELOG002` compressed frame records
//! (see [`crate::relog`]).
//!
//! Classic byte-oriented LZSS: a control byte announces eight items, one
//! bit each — literal byte (bit clear) or back-reference (bit set). A
//! back-reference is a little-endian u16 token packing a 12-bit distance
//! (1-based, up to 4096 bytes back) and a 4-bit length (3..=18 bytes).
//! The decoder validates every distance and length against the declared
//! raw size and rejects malformed input instead of panicking — `.relog`
//! files are external input.
//!
//! The encoder is a greedy parse over a 3-byte hash chain: at each
//! position it walks at most [`MAX_CHAIN`] earlier positions with the same
//! hash, newest first, and takes the *first* longest match within the
//! window (or a literal when none reaches [`MIN_MATCH`]). Its output is a
//! pure function of the input and is pinned byte for byte — cached
//! artifacts written by one build are compared and replayed by another —
//! so the match finder may only get cheaper, never choose differently:
//!
//! * the chain links live in a ring of [`RING`] slots indexed by
//!   `pos & (RING - 1)` instead of one slot per source byte. Any ring of
//!   more than [`WINDOW`] slots is exact: a walk stops at the first
//!   candidate further back than the window *before* it follows that
//!   candidate's link, and a slot is only overwritten by a position at
//!   least `RING` bytes newer;
//! * a candidate whose byte at offset `best_len` differs from the current
//!   position's cannot beat the best match so far, so it is skipped
//!   without a full comparison;
//! * the full comparison runs 8 bytes at a time (`u64` XOR, then
//!   `trailing_zeros` locates the first differing byte).
//!
//! The byte-identity tests compare it against a plain reference encoder
//! (`tests::reference_compress`: one chain slot per source byte, byte-wise
//! comparison).
//!
//! Relog frame payloads are dominated by small-integer little-endian
//! fields (runs of zero bytes) and repeated event structures, which this
//! scheme compresses well at near-memcpy decode speed — decode cost is
//! what matters, because the point of a compressed `.relog` is cheap
//! replay, not archival density.

const WINDOW: usize = 1 << 12;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = MIN_MATCH + 0xF;
const HASH_SIZE: usize = 1 << 13;
/// Hash-chain positions examined per match attempt; bounds worst-case
/// encode time on adversarial (highly self-similar) input.
const MAX_CHAIN: usize = 32;
/// Chain-link ring size: a power of two above [`WINDOW`] (see the module
/// docs for why that is exact).
const RING: usize = 2 * WINDOW;

/// Why a compressed block failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LzError {
    /// A back-reference pointed before the start of the output.
    BadDistance,
    /// The input ran out mid-token or mid-group.
    Truncated,
    /// The input decoded past (or stopped short of) the declared raw
    /// length, or carried trailing bytes.
    LengthMismatch,
}

fn hash3(b: &[u8]) -> usize {
    let v = u32::from_le_bytes([b[0], b[1], b[2], 0]);
    (v.wrapping_mul(0x9E37_79B1) >> 19) as usize & (HASH_SIZE - 1)
}

/// Compresses `src`. The output is not self-describing — the caller must
/// carry the raw length (the `.relog` frame header does).
pub(crate) fn compress(src: &[u8]) -> Vec<u8> {
    if src.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(src.len() / 2 + 16);
    // head[h] = most recent position hashing to h; prev[p & (RING - 1)] =
    // the position before p with p's hash (a chain through the window).
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; RING];
    let mut i = 0;
    let mut ctrl_idx = 0;
    out.push(0);
    let mut ctrl = 0u8;
    let mut items = 0u8;
    while i < src.len() {
        if items == 8 {
            out[ctrl_idx] = ctrl;
            ctrl = 0;
            items = 0;
            ctrl_idx = out.len();
            out.push(0);
        }
        let mut best_len = 0;
        let mut best_dist = 0;
        if i + MIN_MATCH <= src.len() {
            let max = MAX_MATCH.min(src.len() - i);
            let cur = &src[i..i + max];
            let h = hash3(cur);
            let mut cand = head[h];
            for _ in 0..MAX_CHAIN {
                if cand == usize::MAX {
                    break;
                }
                if i - cand > WINDOW {
                    break; // chain positions only get older
                }
                // best_len < max here, and a candidate can only beat it
                // by also matching the byte at offset best_len.
                if src[cand + best_len] == cur[best_len] {
                    let l = common_prefix(&src[cand..cand + max], cur);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l == max {
                            break;
                        }
                    }
                }
                cand = prev[cand & (RING - 1)];
            }
            // i joins its chain only after its own search.
            prev[i & (RING - 1)] = head[h];
            head[h] = i;
        }
        if best_len >= MIN_MATCH {
            ctrl |= 1 << items;
            let token = (((best_dist - 1) as u16) << 4) | (best_len - MIN_MATCH) as u16;
            out.extend_from_slice(&token.to_le_bytes());
            // The rest of the match joins the chains too (positions
            // with a full 3-byte hash only).
            for p in i + 1..(i + best_len).min(src.len() + 1 - MIN_MATCH) {
                let h = hash3(&src[p..]);
                prev[p & (RING - 1)] = head[h];
                head[h] = p;
            }
            i += best_len;
        } else {
            out.push(src[i]);
            i += 1;
        }
        items += 1;
    }
    out[ctrl_idx] = ctrl;
    out
}

/// Length of the common prefix of two equally long slices, compared 8
/// bytes at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len();
    let mut l = 0;
    while l + 8 <= n {
        let x = u64::from_le_bytes(a[l..l + 8].try_into().expect("8-byte slice"));
        let y = u64::from_le_bytes(b[l..l + 8].try_into().expect("8-byte slice"));
        if x != y {
            return l + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < n && a[l] == b[l] {
        l += 1;
    }
    l
}

/// Decompresses `src` into `out` (cleared first), which must come out to
/// exactly `raw_len` bytes. Reusing `out` across calls is what keeps
/// streamed frame decode allocation-free after the first frame.
pub(crate) fn decompress_into(
    src: &[u8],
    raw_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), LzError> {
    out.clear();
    // Bounded reservation: `raw_len` comes from an untrusted length field,
    // so a corrupt value must fail via Truncated when the input runs dry,
    // not attempt a near-usize::MAX upfront allocation.
    out.reserve(raw_len.min(1 << 20));
    let mut i = 0;
    while out.len() < raw_len {
        let ctrl = *src.get(i).ok_or(LzError::Truncated)?;
        i += 1;
        for bit in 0..8 {
            if out.len() == raw_len {
                break;
            }
            if ctrl & (1 << bit) != 0 {
                let token = src.get(i..i + 2).ok_or(LzError::Truncated)?;
                let token = u16::from_le_bytes([token[0], token[1]]);
                i += 2;
                let dist = (token >> 4) as usize + 1;
                let len = (token & 0xF) as usize + MIN_MATCH;
                if dist > out.len() {
                    return Err(LzError::BadDistance);
                }
                if out.len() + len > raw_len {
                    return Err(LzError::LengthMismatch);
                }
                let start = out.len() - dist;
                if dist >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // Byte-at-a-time on purpose: an overlapping copy
                    // replicates the leading bytes, RLE-style.
                    for k in start..start + len {
                        let b = out[k];
                        out.push(b);
                    }
                }
            } else {
                out.push(*src.get(i).ok_or(LzError::Truncated)?);
                i += 1;
            }
        }
    }
    if i != src.len() {
        return Err(LzError::LengthMismatch);
    }
    Ok(())
}

/// [`decompress_into`] allocating a fresh buffer (tests, one-shot use).
#[cfg(test)]
pub(crate) fn decompress(src: &[u8], raw_len: usize) -> Result<Vec<u8>, LzError> {
    let mut out = Vec::new();
    decompress_into(src, raw_len, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original encoder, one chain slot per source byte and a
    /// byte-at-a-time comparison: [`compress`] must emit exactly its bytes.
    fn reference_compress(src: &[u8]) -> Vec<u8> {
        if src.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(src.len() / 2 + 16);
        // head[h] = most recent position hashing to h; prev[i] = previous
        // position with i's hash (a per-position chain through the window).
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; src.len()];
        let insert = |head: &mut Vec<usize>, prev: &mut Vec<usize>, i: usize| {
            if i + MIN_MATCH <= src.len() {
                let h = hash3(&src[i..]);
                prev[i] = head[h];
                head[h] = i;
            }
        };

        let mut i = 0;
        let mut ctrl_idx = 0;
        out.push(0);
        let mut ctrl = 0u8;
        let mut items = 0u8;
        while i < src.len() {
            if items == 8 {
                out[ctrl_idx] = ctrl;
                ctrl = 0;
                items = 0;
                ctrl_idx = out.len();
                out.push(0);
            }
            let mut best_len = 0;
            let mut best_dist = 0;
            if i + MIN_MATCH <= src.len() {
                let max = MAX_MATCH.min(src.len() - i);
                let mut cand = head[hash3(&src[i..])];
                for _ in 0..MAX_CHAIN {
                    if cand == usize::MAX {
                        break;
                    }
                    if i - cand > WINDOW {
                        break; // chain positions only get older
                    }
                    let mut l = 0;
                    while l < max && src[cand + l] == src[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l == max {
                            break;
                        }
                    }
                    cand = prev[cand];
                }
            }
            if best_len >= MIN_MATCH {
                ctrl |= 1 << items;
                let token = (((best_dist - 1) as u16) << 4) | (best_len - MIN_MATCH) as u16;
                out.extend_from_slice(&token.to_le_bytes());
                for p in i..i + best_len {
                    insert(&mut head, &mut prev, p);
                }
                i += best_len;
            } else {
                out.push(src[i]);
                insert(&mut head, &mut prev, i);
                i += 1;
            }
            items += 1;
        }
        out[ctrl_idx] = ctrl;
        out
    }

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let packed = compress(data);
        decompress(&packed, data.len()).expect("roundtrip")
    }

    #[test]
    fn roundtrips_structured_and_hostile_shapes() {
        let cases: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![7],
            vec![0; 10_000],                                         // long zero runs
            (0..=255u8).collect(),                                   // incompressible ramp
            (0..5_000).map(|i| (i % 7) as u8).collect(),             // short period
            b"abcabcabcabcabcXabcabcabc".to_vec(),                   // overlap copies
            (0..4_000).flat_map(|i: u32| i.to_le_bytes()).collect(), // LE ints
        ];
        for data in &cases {
            assert_eq!(&roundtrip(data), data);
        }
    }

    #[test]
    fn roundtrips_pseudorandom_bytes() {
        // xorshift so the case is deterministic but pattern-free.
        let mut x = 0x2545_F491u32;
        let data: Vec<u8> = (0..20_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        assert_eq!(roundtrip(&data), data);
    }

    /// Deterministic pattern-free bytes (xorshift32).
    fn noise(seed: u32, len: usize) -> Vec<u8> {
        let mut x = seed.max(1);
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    fn assert_same_bytes(data: &[u8]) {
        let packed = compress(data);
        assert!(
            packed == reference_compress(data),
            "encoder output diverged from the reference on {} input bytes",
            data.len()
        );
        assert_eq!(decompress(&packed, data.len()).expect("roundtrip"), data);
    }

    #[test]
    fn encoder_matches_reference_on_structured_inputs() {
        let zero_runs: Vec<u8> = (0..24_000u32)
            .map(|i| {
                if (i / 700) % 3 == 0 {
                    (i % 11) as u8
                } else {
                    0
                }
            })
            .collect();
        let ramp: Vec<u8> = (0..12_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let wide_ramp: Vec<u8> = (0..3_000u64)
            .flat_map(|i| (i * 0x1_0001).to_le_bytes())
            .collect();
        let periods: Vec<u8> = (1..=9)
            .flat_map(|p| (0..2_000).map(move |i| (i % p) as u8 * 17))
            .collect();
        // Noise with islands of a repeated record, as in relog payloads:
        // many candidates share a hash but diverge after a few bytes.
        let mut records = Vec::new();
        for (k, chunk) in noise(99, 30_000).chunks(37).enumerate() {
            records.extend_from_slice(&[0, 0, 0, 1, (k % 5) as u8, 0, 0]);
            records.extend_from_slice(&chunk[..(k % 29).min(chunk.len())]);
        }
        let cases = [
            vec![0u8; 50_000],
            zero_runs,
            ramp,
            wide_ramp,
            periods,
            noise(0x2545_F491, 20_000),
            records,
            b"abcabcabcabcabcXabcabcabc".to_vec(),
            vec![1, 2],
            vec![9; 3],
        ];
        for data in &cases {
            assert_same_bytes(data);
        }
        // Inputs well past the ring size, so chain slots wrap many times.
        assert!(cases.iter().any(|c| c.len() > 4 * RING));
    }

    #[test]
    fn encoder_matches_reference_at_the_window_edge() {
        let block = noise(7, 64);
        for dist in [WINDOW - 1, WINDOW, WINDOW + 1] {
            let mut data = block.clone();
            data.extend(noise(dist as u32, dist - block.len()));
            data.extend_from_slice(&block);
            data.extend(noise(3, 100));
            assert_same_bytes(&data);
        }
    }

    proptest! {
        #[test]
        fn encoder_matches_reference_on_generated_inputs(
            segments in proptest::collection::vec(
                (0u8..4, any::<u32>(), 1usize..2_000, 1usize..=WINDOW + 64),
                1..16,
            ),
        ) {
            // Concatenated segments: noise, byte runs, copies of earlier
            // data at window-scale distances, and a tiny alphabet.
            let mut data: Vec<u8> = Vec::new();
            for (kind, seed, len, dist) in segments {
                match kind {
                    0 => data.extend(noise(seed, len)),
                    1 => data.extend(std::iter::repeat_n(seed as u8, len)),
                    2 if !data.is_empty() => {
                        let start = data.len() - dist.min(data.len());
                        for k in start..start + len {
                            data.push(data[k]);
                        }
                    }
                    _ => data.extend(noise(seed, len).into_iter().map(|b| b & 3)),
                }
            }
            let packed = compress(&data);
            prop_assert!(packed == reference_compress(&data));
            prop_assert_eq!(decompress(&packed, data.len()).expect("roundtrip"), data);
        }
    }

    #[test]
    fn compresses_repetitive_input() {
        let data = vec![0u8; 1 << 16];
        let packed = compress(&data);
        // Max-length matches cost ~2.1 bytes per 18 raw bytes, so the best
        // possible ratio is ~8.5×; demand most of it.
        assert!(
            packed.len() * 8 < data.len(),
            "64 KiB of zeros must shrink well (got {} bytes)",
            packed.len()
        );
    }

    #[test]
    fn matches_never_cross_the_window() {
        // Two identical blocks further apart than WINDOW: the second must
        // still roundtrip (encoded as literals or nearer matches).
        let block: Vec<u8> = (0..200u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut data = block.clone();
        data.extend(vec![0xABu8; WINDOW + 64]);
        data.extend_from_slice(&block);
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn decoder_rejects_malformed_input() {
        // A back-reference with nothing behind it.
        let bad = [0b0000_0001u8, 0x00, 0x00];
        assert_eq!(decompress(&bad, 3), Err(LzError::BadDistance));
        // Truncated mid-token and mid-literal.
        assert_eq!(decompress(&[0b0000_0001, 0x00], 3), Err(LzError::Truncated));
        assert_eq!(decompress(&[0b0000_0000], 1), Err(LzError::Truncated));
        assert_eq!(decompress(&[], 1), Err(LzError::Truncated));
        // Trailing bytes after the declared raw length.
        let mut packed = compress(b"xyz");
        packed.push(0);
        assert_eq!(decompress(&packed, 3), Err(LzError::LengthMismatch));
        // A match that would overrun the declared raw length.
        let packed = compress(&[5u8; 12]);
        assert_eq!(decompress(&packed, 7), Err(LzError::LengthMismatch));
    }
}
