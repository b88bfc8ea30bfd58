//! Operation codes and log-record parameter encodings.
//!
//! DIPPER logs *logical* operations: "We capture each operation and its
//! parameters within the log record … The input parameters (excluding
//! data) for all operations are stored in the log record" (§3.4, §4.3).
//! One exception goes beyond the paper: a value of at most
//! [`crate::INLINE_MAX`] bytes travels in its [`OP_PUT_INLINE`] record
//! and lives in the metadata arena, not on the SSD (DESIGN §6a, 10).
//! Each op's parameters are little-endian u64s — fixed fields, then the
//! blocks the op claimed as runs of consecutive ids, one word a run — so
//! decoding tolerates the record's padding (under 8 bytes). Next-fit
//! claims are mostly one long run, so a record's size does not grow with
//! its object's; a claim too scattered to fit one record is refused with
//! [`DsError::RecordTooLarge`] (DESIGN §6c).
//!
//! The physical encoding ([`PhysImage`]) is used only in
//! [`crate::LoggingMode::Physical`]: it carries the metadata post-image,
//! explicit block-pool deltas, and page-image padding emulating the
//! ARIES-style records of DudeTM/NV-HTM — several cache lines instead of
//! less than one.

use crate::error::{DsError, DsResult};

/// `oput` / full-object write that (re)allocates blocks. Params:
/// [`PutParams`] naming the new blocks.
pub const OP_PUT: u16 = 1;
/// Same-size update of an existing object (metadata version bump only).
/// Params: [`PutParams`] (the new size, no blocks).
pub const OP_TOUCH: u16 = 2;
/// `odelete`. No params.
pub const OP_DELETE: u16 = 3;
/// `oopen` with create: preallocates an object. Params: [`PutParams`]
/// naming its blocks; a size > 0 with no blocks is an inline object of
/// that many zero bytes (the arena hands out zeroed slots, so the record
/// carries none).
pub const OP_CREATE: u16 = 4;
/// `owrite` that extends an object holding blocks. Params:
/// [`ExtendParams`] naming the extra blocks.
pub const OP_EXTEND: u16 = 5;
/// `oput`, or an `owrite` of an inline object, whose result is an inline
/// value. Params: [`InlineParams`], the whole value.
pub const OP_PUT_INLINE: u16 = 6;
/// Physical-mode install (post-image). Params: [`PhysImage`].
pub const OP_PHYS_INSTALL: u16 = 16;
/// Physical-mode delete. Params: [`PhysImage`] with zero blocks.
pub const OP_PHYS_DELETE: u16 = 17;

// OP 0 is dstore_dipper::OP_NOOP (olock).

/// Bits of a run word holding the run's length less one; the run's first
/// block id sits above them.
const RUN_LEN_BITS: u32 = 16;

/// Encodes `fields`, then `blocks` as runs of consecutive ids, all
/// little-endian u64s. A run word is `first << RUN_LEN_BITS | (len - 1)`.
fn encode_u64s(fields: &[u64], blocks: &[u64]) -> Vec<u8> {
    let mut b = Vec::with_capacity(8 * (fields.len() + blocks.len()));
    for v in fields {
        b.extend_from_slice(&v.to_le_bytes());
    }
    let mut rest = blocks;
    while let Some(&first) = rest.first() {
        assert!(
            first < 1 << (64 - RUN_LEN_BITS),
            "block id {first} does not fit a run word"
        );
        let len = (1..rest.len().min(1 << RUN_LEN_BITS))
            .find(|&i| rest[i] != first + i as u64)
            .unwrap_or(rest.len().min(1 << RUN_LEN_BITS));
        b.extend_from_slice(&(first << RUN_LEN_BITS | (len as u64 - 1)).to_le_bytes());
        rest = &rest[len..];
    }
    b
}

/// Decodes `N` fixed u64 fields and the block runs after them into ids;
/// a trailing partial word is record padding.
fn decode_u64s<const N: usize>(params: &[u8], what: &str) -> DsResult<([u64; N], Vec<u64>)> {
    if params.len() < 8 * N {
        return Err(DsError::Io(format!("short {what}")));
    }
    let mut words = params
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().unwrap()));
    let fields = std::array::from_fn(|_| words.next().unwrap());
    let mut blocks = Vec::new();
    for run in words {
        let first = run >> RUN_LEN_BITS;
        blocks.extend(first..=first + (run & ((1 << RUN_LEN_BITS) - 1)));
    }
    Ok((fields, blocks))
}

/// Parameters of [`OP_PUT`] / [`OP_TOUCH`] / [`OP_CREATE`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutParams {
    /// Object size in bytes.
    pub size: u64,
    /// The blocks the op claimed: the object's new block list (none for
    /// a touch).
    pub blocks: Vec<u64>,
}

impl PutParams {
    /// Encodes to the record parameter bytes.
    pub fn encode(size: u64, blocks: &[u64]) -> Vec<u8> {
        encode_u64s(&[size], blocks)
    }

    /// Decodes from record parameter bytes.
    pub fn decode(params: &[u8]) -> DsResult<Self> {
        let ([size], blocks) = decode_u64s(params, "PutParams")?;
        Ok(Self { size, blocks })
    }
}

/// Parameters of [`OP_PUT_INLINE`]: a size word, then the value's bytes.
pub struct InlineParams;

impl InlineParams {
    /// Encodes `value` to the record parameter bytes.
    pub fn encode(value: &[u8]) -> Vec<u8> {
        let mut b = Vec::with_capacity(8 + value.len());
        b.extend_from_slice(&(value.len() as u64).to_le_bytes());
        b.extend_from_slice(value);
        b
    }

    /// The value in record parameter bytes (which may carry padding).
    pub fn decode(params: &[u8]) -> DsResult<&[u8]> {
        let Some((size, rest)) = params.split_first_chunk::<8>() else {
            return Err(DsError::Io("short InlineParams".into()));
        };
        let size = u64::from_le_bytes(*size);
        rest.get(..size as usize)
            .ok_or_else(|| DsError::Io("truncated InlineParams".into()))
    }
}

/// Parameters of [`OP_EXTEND`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtendParams {
    /// Write offset.
    pub offset: u64,
    /// Write length.
    pub len: u64,
    /// The blocks the op claimed, appended to the object's list.
    pub blocks: Vec<u64>,
}

impl ExtendParams {
    /// Encodes to the record parameter bytes.
    pub fn encode(offset: u64, len: u64, blocks: &[u64]) -> Vec<u8> {
        encode_u64s(&[offset, len], blocks)
    }

    /// Decodes from record parameter bytes.
    pub fn decode(params: &[u8]) -> DsResult<Self> {
        let ([offset, len], blocks) = decode_u64s(params, "ExtendParams")?;
        Ok(Self {
            offset,
            len,
            blocks,
        })
    }
}

/// Bytes of page-image padding appended to physical records, emulating the
/// btree/metadata page images ARIES-style logging must carry.
pub const PHYS_PAD: usize = 192;

/// Physical-mode record: metadata post-image plus the blocks it claimed
/// and freed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysImage {
    /// Final object size (0 + empty blocks = deleted).
    pub size: u64,
    /// Final block list of the object.
    pub blocks: Vec<u64>,
    /// How many ids at the end of `blocks` this op claimed.
    pub pops: u32,
    /// Block ids this op freed.
    pub pushes: Vec<u64>,
    /// The value of an inline object (no blocks, `size` bytes); empty
    /// otherwise.
    pub inline: Vec<u8>,
}

impl PhysImage {
    /// Encodes to record parameter bytes (including [`PHYS_PAD`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(
            24 + 8 * (self.blocks.len() + self.pushes.len()) + self.inline.len() + PHYS_PAD,
        );
        b.extend_from_slice(&self.size.to_le_bytes());
        b.extend_from_slice(&(self.blocks.len() as u32).to_le_bytes());
        b.extend_from_slice(&self.pops.to_le_bytes());
        b.extend_from_slice(&(self.pushes.len() as u32).to_le_bytes());
        b.extend_from_slice(&(self.inline.len() as u32).to_le_bytes());
        for blk in &self.blocks {
            b.extend_from_slice(&blk.to_le_bytes());
        }
        for blk in &self.pushes {
            b.extend_from_slice(&blk.to_le_bytes());
        }
        b.extend_from_slice(&self.inline);
        b.extend_from_slice(&[0u8; PHYS_PAD]);
        b
    }

    /// Decodes from record parameter bytes.
    pub fn decode(params: &[u8]) -> DsResult<Self> {
        if params.len() < 24 {
            return Err(DsError::Io("short PhysImage".into()));
        }
        let size = u64::from_le_bytes(params[..8].try_into().unwrap());
        let nblocks = u32::from_le_bytes(params[8..12].try_into().unwrap()) as usize;
        let pops = u32::from_le_bytes(params[12..16].try_into().unwrap());
        let npushes = u32::from_le_bytes(params[16..20].try_into().unwrap()) as usize;
        let ninline = u32::from_le_bytes(params[20..24].try_into().unwrap()) as usize;
        let need = 24 + 8 * (nblocks + npushes) + ninline;
        if params.len() < need {
            return Err(DsError::Io("truncated PhysImage".into()));
        }
        let mut at = 24;
        let read_u64s = |n: usize, at: &mut usize| {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(u64::from_le_bytes(params[*at..*at + 8].try_into().unwrap()));
                *at += 8;
            }
            v
        };
        let blocks = read_u64s(nblocks, &mut at);
        let pushes = read_u64s(npushes, &mut at);
        Ok(Self {
            size,
            blocks,
            pops,
            pushes,
            inline: params[at..at + ninline].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_params_roundtrip() {
        let p = PutParams {
            size: 123456,
            blocks: vec![7, 8, 40],
        };
        let enc = PutParams::encode(p.size, &p.blocks);
        assert_eq!(PutParams::decode(&enc).unwrap(), p);
        // Padded decode still works (records pad to 8 bytes).
        let mut padded = enc.clone();
        padded.extend_from_slice(&[0; 7]);
        assert_eq!(PutParams::decode(&padded).unwrap(), p);
        // A touch names no blocks: the encoding is the size alone.
        assert_eq!(PutParams::encode(5, &[]), 5u64.to_le_bytes());
        assert!(PutParams::decode(&[1, 2]).is_err());
    }

    #[test]
    fn claims_are_logged_as_runs() {
        let words = |blocks: &[u64]| (PutParams::encode(0, blocks).len() - 8) / 8;
        let roundtrip = |blocks: Vec<u64>| {
            let enc = PutParams::encode(9, &blocks);
            assert_eq!(PutParams::decode(&enc).unwrap().blocks, blocks);
        };
        // A run is ascending consecutive ids; order within the list is kept.
        assert_eq!(words(&[7, 8, 9, 40, 3, 4]), 3);
        assert_eq!(words(&[5, 4]), 2);
        roundtrip(vec![7, 8, 9, 40, 3, 4]);
        roundtrip(vec![5, 4, 0, 1]);
        // One run word holds at most 2^16 blocks.
        let long: Vec<u64> = (100..100 + (1 << RUN_LEN_BITS) + 1).collect();
        assert_eq!(words(&long), 2);
        roundtrip(long);
        let top = (1 << (64 - RUN_LEN_BITS)) - 1;
        roundtrip(vec![top]);
    }

    #[test]
    #[should_panic(expected = "does not fit a run word")]
    fn block_ids_past_the_run_word_panic() {
        PutParams::encode(0, &[1 << (64 - RUN_LEN_BITS)]);
    }

    #[test]
    fn extend_params_roundtrip() {
        let p = ExtendParams {
            offset: 4096,
            len: 512,
            blocks: vec![3],
        };
        let enc = ExtendParams::encode(p.offset, p.len, &p.blocks);
        assert_eq!(ExtendParams::decode(&enc).unwrap(), p);
        assert!(ExtendParams::decode(&[0; 8]).is_err());
    }

    #[test]
    fn phys_image_roundtrip() {
        let img = PhysImage {
            size: 12288,
            blocks: vec![5, 9, 11],
            pops: 3,
            pushes: vec![2, 4],
            inline: vec![],
        };
        let enc = img.encode();
        assert!(enc.len() >= PHYS_PAD + 24 + 40);
        assert_eq!(PhysImage::decode(&enc).unwrap(), img);
        let inline = PhysImage {
            size: 5,
            blocks: vec![],
            pops: 0,
            pushes: vec![7],
            inline: b"hello".to_vec(),
        };
        let enc = inline.encode();
        assert_eq!(PhysImage::decode(&enc).unwrap(), inline);
        assert!(PhysImage::decode(&enc[..24 + 8 + 4]).is_err());
    }

    #[test]
    fn inline_params_roundtrip() {
        let enc = InlineParams::encode(b"small value");
        assert_eq!(enc.len(), 8 + 11);
        assert_eq!(InlineParams::decode(&enc).unwrap(), b"small value");
        // Record padding after the value is ignored.
        let mut padded = enc.clone();
        padded.extend_from_slice(&[0; 5]);
        assert_eq!(InlineParams::decode(&padded).unwrap(), b"small value");
        assert!(InlineParams::decode(&enc[..12]).is_err());
        assert!(InlineParams::decode(&[1, 2]).is_err());
    }

    #[test]
    fn phys_records_are_much_larger_than_logical() {
        let logical = PutParams::encode(4096, &[1]).len();
        let physical = PhysImage {
            size: 4096,
            blocks: vec![1],
            pops: 1,
            pushes: vec![],
            inline: vec![],
        }
        .encode()
        .len();
        assert!(
            physical > 4 * logical,
            "physical ({physical}B) should dwarf logical ({logical}B)"
        );
    }

    #[test]
    fn phys_decode_rejects_truncation() {
        let img = PhysImage {
            size: 1,
            blocks: vec![1, 2, 3, 4],
            pops: 4,
            pushes: vec![],
            inline: vec![],
        };
        let enc = img.encode();
        assert!(PhysImage::decode(&enc[..30]).is_err());
    }
}
