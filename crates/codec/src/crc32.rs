//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the record
//! checksum of the on-disk formats.
//!
//! The wire protocol rides TCP, whose checksums make an extra CRC
//! redundant; a WAL record or snapshot read back after a crash has no
//! such transport, so every durable payload carries one of these and a
//! mismatch marks the record as torn/corrupt instead of decoding
//! garbage. Slicing-by-8: eight lookup tables, built at compile time,
//! fold eight bytes per step — no runtime initialisation, no
//! dependencies.

/// `TABLES[0]` is the byte-at-a-time table for the reflected IEEE
/// polynomial; `TABLES[j][b]` is the CRC of byte `b` followed by `j`
/// zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0u32;
    while i < 256 {
        let mut crc = i;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i as usize] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

/// The CRC-32 of `bytes` (IEEE, as used by zlib/PNG/Ethernet).
pub fn checksum(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let byte = |x: u32, shift: u32| ((x >> shift) & 0xFF) as usize;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][byte(crc ^ u32::from(b), 0)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(checksum(b""), 0x0000_0000);
        assert_eq!(checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            checksum(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"wqrtq wal record payload".to_vec();
        let crc = checksum(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(checksum(&flipped), crc, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn matches_the_bytewise_loop_at_any_length_and_offset() {
        // The byte-at-a-time loop the sliced one replaced, as reference.
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
            }
            !crc
        }
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let buf: Vec<u8> = (0..4_096 + 8).map(|_| next() as u8).collect();
        for _ in 0..200 {
            let len = (next() % 4_097) as usize;
            let start = (next() % 8) as usize;
            let bytes = &buf[start..start + len];
            assert_eq!(checksum(bytes), bytewise(bytes), "len {len} start {start}");
        }
        for len in 0..=64 {
            for start in 0..8 {
                let bytes = &buf[start..start + len];
                assert_eq!(checksum(bytes), bytewise(bytes), "len {len} start {start}");
            }
        }
    }
}
