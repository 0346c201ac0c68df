//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) for the journal
//! framing. One streaming entry point, [`crc32_update`], picks between two
//! kernels that compute the same register:
//!
//! * **folding** — carry-less multiplication (`pclmulqdq`), after Gopal et
//!   al., *Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//!   Instruction* (Intel, 2009), the scheme zlib and crc32fast use. It takes
//!   inputs of 16 bytes or more on an x86-64 host that has `pclmulqdq` and
//!   `sse4.1`, both detected at run time;
//! * **slicing-by-8 tables** — everything else: shorter inputs, the fold's
//!   last < 16 bytes, other hosts and other architectures.
//!
//! Which kernel ran never shows in a file: the tests hold both to the
//! byte-at-a-time loop.

/// Slicing-by-8 tables: `t[0]` is the classic byte-at-a-time table, and
/// `t[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so eight
/// input bytes fold into the state with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Register value of an empty CRC; [`crc32_update`] threads it and the final
/// checksum is its complement.
pub(super) const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Folds `bytes` into the raw CRC register `c`. Streaming: feeding a split
/// input piece by piece gives the register of the whole. Inputs of 16 bytes
/// or more take the folding kernel where the host has it, all others the
/// tables (see the module docs).
pub(super) fn crc32_update(c: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 16
        && is_x86_feature_detected!("pclmulqdq")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: the condition above detected both features the kernel is compiled for.
        return unsafe { fold::crc32_update_fold(c, bytes) };
    }
    crc32_update_table(c, bytes)
}

/// The slicing-by-8 kernel: eight bytes per eight table lookups, then the
/// last < 8 bytes one at a time.
pub(super) fn crc32_update_table(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (words, rest) = bytes.as_chunks::<8>();
    for w in words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in rest {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 (IEEE) of `bytes`, as used by the journal framing.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(CRC_INIT, bytes)
}

/// Checksum of one frame: CRC-32 over `kind ‖ len` then the payload, so a
/// bit flip anywhere in the frame (header included) is caught.
pub(super) fn frame_crc(kind_len: &[u8], payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(CRC_INIT, kind_len), payload)
}

/// The folding kernel. The input is kept as a 128-bit remainder (four of
/// them while 64-byte groups last), and each step multiplies it by
/// `x^k mod P` for the distance it moves forward and adds the next block, so
/// the register stays congruent to the input seen so far. At the end 128
/// bits are reduced to 64, to 32, and then by Barrett reduction to the CRC
/// register; the last < 16 bytes go through the tables.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::*;

    // `x^k mod P` for the distances named, bit-reflected and shifted left
    // one bit (a reflected product of two 64-bit halves is 127 bits wide).
    // Four lanes, 512 bits apart: x^(4·128+32) and x^(4·128−32).
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    // One lane, 128 bits apart: x^(128+32) and x^(128−32).
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    // 64 → 32 bits: x^64.
    const K5: i64 = 0x1_63cd_6124;
    // Barrett reduction: the polynomial P and μ = x^64 / P.
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Folds `bytes` (at least 16 of them) into the raw register `c`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32_update_fold(c: u32, bytes: &[u8]) -> u32 {
        let k3k4 = _mm_set_epi64x(K4, K3);
        let register = _mm_cvtsi32_si128(c.cast_signed());
        let (mut x, rest) = if bytes.len() >= 128 {
            let k1k2 = _mm_set_epi64x(K2, K1);
            let (groups, rest) = bytes.as_chunks::<64>();
            let mut lanes = load4(&groups[0]);
            lanes[0] = _mm_xor_si128(lanes[0], register);
            for group in &groups[1..] {
                for (lane, block) in lanes.iter_mut().zip(load4(group)) {
                    *lane = fold16(*lane, block, k1k2);
                }
            }
            let [l0, l1, l2, l3] = lanes;
            let x = fold16(fold16(fold16(l0, l1, k3k4), l2, k3k4), l3, k3k4);
            (x, rest)
        } else {
            let (blocks, _) = bytes.as_chunks::<16>();
            (_mm_xor_si128(load(&blocks[0]), register), &bytes[16..])
        };
        let (blocks, tail) = rest.as_chunks::<16>();
        for block in blocks {
            x = fold16(x, load(block), k3k4);
        }

        let low32 = _mm_set_epi32(0, 0, 0, -1);
        // 128 → 96 bits: the low half times K4, plus the high half.
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64 bits: the low 32 bits times K5, plus the rest.
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett, bit-reflected: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P,
        // and the register is the upper half of R ⊕ T2.
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1).cast_unsigned();
        super::crc32_update_table(c, tail)
    }

    /// `a` carried 128 (or 512) bits forward by `keys`, plus `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold16(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// A 64-byte group as four 16-byte lanes.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load4(group: &[u8; 64]) -> [__m128i; 4] {
        let (blocks, _) = group.as_chunks::<16>();
        [
            load(&blocks[0]),
            load(&blocks[1]),
            load(&blocks[2]),
            load(&blocks[3]),
        ]
    }

    /// Sixteen bytes, little-endian, as one vector.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load(block: &[u8; 16]) -> __m128i {
        let (halves, _) = block.as_chunks::<8>();
        _mm_set_epi64x(i64::from_le_bytes(halves[1]), i64::from_le_bytes(halves[0]))
    }
}

/// The byte-at-a-time loop both kernels are held to.
#[cfg(test)]
pub(super) fn crc32_bytewise_update(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `len` bytes from a fixed xorshift stream.
    fn seeded(len: usize) -> Vec<u8> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 56) as u8
            })
            .collect()
    }

    const REGISTERS: [u32; 3] = [CRC_INIT, 0, 0x5A17_C0DE];

    /// Without this an x86-64 host lacking the features would pass every
    /// differential below by comparing the tables with themselves.
    fn assert_the_fold_is_reachable() {
        #[cfg(target_arch = "x86_64")]
        assert!(
            is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1"),
            "this x86-64 host lacks pclmulqdq or sse4.1: the folding kernel is untested"
        );
    }

    fn assert_kernels_agree(c: u32, bytes: &[u8], what: &str) {
        let want = crc32_bytewise_update(c, bytes);
        assert_eq!(crc32_update_table(c, bytes), want, "tables, {what}");
        assert_eq!(crc32_update(c, bytes), want, "dispatch, {what}");
    }

    #[test]
    fn both_kernels_equal_the_bytewise_oracle_at_every_length_and_offset() {
        assert_the_fold_is_reachable();
        let buf = seeded(1024 + 16);
        for start in 0..16 {
            for len in 0..=1024 {
                for c in REGISTERS {
                    let what = format!("start {start}, len {len}, register {c:#x}");
                    assert_kernels_agree(c, &buf[start..start + len], &what);
                }
            }
        }
    }

    #[test]
    fn both_kernels_equal_the_bytewise_oracle_on_4_mib() {
        assert_the_fold_is_reachable();
        let buf = seeded((4 << 20) + 15);
        for start in [0, 1, 15] {
            for c in REGISTERS {
                let what = format!("4 MiB from {start} to the end, register {c:#x}");
                assert_kernels_agree(c, &buf[start..], &what);
            }
        }
    }

    #[test]
    fn streaming_splits_give_the_whole_buffer_value() {
        assert_the_fold_is_reachable();
        for len in [129, 200, 1000, 4099] {
            let buf = seeded(len);
            let whole = crc32_update(CRC_INIT, &buf);
            for split in [15, 16, 17, 63, 64, 127, 128, 129] {
                let (a, b) = buf.split_at(split);
                assert_eq!(
                    crc32_update(crc32_update(CRC_INIT, a), b),
                    whole,
                    "len {len}, split {split}"
                );
            }
        }
    }
}
