//! RFC 4648 base64 (standard alphabet, `=` padding) of `f32` slices as
//! little-endian bytes: the wire form of a serialized tensor's values.
//!
//! Four bytes per value, four characters per three bytes, so an encoded
//! tensor is about 5.3 characters per value against ~20 for the decimal
//! digits it replaced, and every bit pattern (NaN payloads, `-0.0`,
//! subnormals, ±inf) round-trips exactly. The decoder is strict: it
//! accepts only the canonical encoding of a whole number of `f32`s.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside the alphabet in [`DECODE`].
const INVALID: u8 = 0xFF;

/// Maps an ASCII byte to its 6-bit value, or [`INVALID`].
const DECODE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Encodes `values` as base64 of their little-endian bytes.
pub(crate) fn encode_f32(values: &[f32]) -> String {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    let mut out = Vec::with_capacity(bytes.len().div_ceil(3) * 4);
    for group in bytes.chunks(3) {
        let b =
            [group[0], group.get(1).copied().unwrap_or(0), group.get(2).copied().unwrap_or(0)];
        let n = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        let sextets = [n >> 18, n >> 12, n >> 6, n].map(|s| ALPHABET[(s & 63) as usize]);
        // One input byte yields two characters, two yield three.
        let used = group.len() + 1;
        out.extend_from_slice(&sextets[..used]);
        out.resize(out.len() + 4 - used, b'=');
    }
    String::from_utf8(out).expect("the base64 alphabet is ASCII")
}

/// Characters in one decoding step: four quanta, twelve bytes, three values.
const BLOCK: usize = 16;

/// Decodes base64 of little-endian `f32` bytes back into values.
///
/// Rejects a length that is not a multiple of 4, a character outside the
/// alphabet, padding anywhere but the end of the last quantum, non-zero
/// bits under the padding, and a byte count that is not a multiple of 4.
pub(crate) fn decode_f32(text: &str) -> Result<Vec<f32>, String> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(4) {
        return Err(format!("base64 length {} is not a multiple of 4", text.len()));
    }
    let pad = text.iter().rev().take(2).take_while(|&&c| c == b'=').count();
    let byte_len = text.len() / 4 * 3 - pad;
    if !byte_len.is_multiple_of(4) {
        return Err(format!("base64 holds {byte_len} bytes, not a whole number of f32s"));
    }
    let values = byte_len / 4;
    let whole = values / 3 * BLOCK;
    let as_f32 = |w: &[u8]| f32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let mut out = Vec::with_capacity(values);
    for (b, block) in text[..whole].chunks_exact(BLOCK).enumerate() {
        let bytes = decode_block(block).ok_or_else(|| invalid(block, b * BLOCK))?;
        out.extend(bytes.chunks_exact(4).map(as_f32));
    }
    // The rest, at most 12 characters, decodes as one block filled out
    // with 'A', which like the padding it replaces reads as zero bits.
    let mut tail = [b'A'; BLOCK];
    let rest = &text[whole..text.len() - pad];
    tail[..rest.len()].copy_from_slice(rest);
    let bytes = decode_block(&tail).ok_or_else(|| invalid(&tail, whole))?;
    let (last, filler) = bytes.split_at(4 * (values - out.len()));
    if filler.iter().any(|&b| b != 0) {
        return Err("non-zero bits under the base64 padding".to_string());
    }
    out.extend(last.chunks_exact(4).map(as_f32));
    Ok(out)
}

/// Decodes [`BLOCK`] characters into their twelve bytes, or `None` when
/// one is outside the alphabet.
#[inline(always)]
fn decode_block(block: &[u8]) -> Option<[u8; 12]> {
    let mut bytes = [0u8; 12];
    let mut seen = 0;
    for (quad, dst) in block.chunks_exact(4).zip(bytes.chunks_exact_mut(3)) {
        let s = [0, 1, 2, 3].map(|i| DECODE[quad[i] as usize]);
        seen |= s[0] | s[1] | s[2] | s[3];
        let n = (u32::from(s[0]) << 18)
            | (u32::from(s[1]) << 12)
            | (u32::from(s[2]) << 6)
            | u32::from(s[3]);
        dst.copy_from_slice(&n.to_be_bytes()[1..]);
    }
    // Sextets are below 64; only INVALID sets the high bits.
    (seen < 64).then_some(bytes)
}

/// Names the first character outside the alphabet in a block that starts
/// at offset `at` of the text.
#[cold]
fn invalid(block: &[u8], at: usize) -> String {
    let i = block.iter().position(|&c| DECODE[c as usize] == INVALID).expect("a foreign byte");
    let (c, pos) = (block[i], at + i);
    if c == b'=' {
        format!("misplaced base64 padding at offset {pos}")
    } else {
        format!("invalid base64 character {:?} at offset {pos}", c as char)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_the_rfc_4648_vectors() {
        // 1.0f32 is 00 00 80 3F little-endian.
        assert_eq!(encode_f32(&[]), "");
        assert_eq!(encode_f32(&[1.0]), "AACAPw==");
        assert_eq!(encode_f32(&[1.0, -2.0]), "AACAPwAAAMA=");
        assert_eq!(encode_f32(&[1.0, -2.0, 0.5]), "AACAPwAAAMAAAAA/");
    }

    #[test]
    fn roundtrips_every_block_and_padding_length() {
        for n in 0..40usize {
            let values: Vec<f32> = (0..n).map(|i| i as f32 * -1.25 + 0.1).collect();
            let text = encode_f32(&values);
            assert_eq!(text.len(), (n * 4).div_ceil(3) * 4);
            assert_eq!(decode_f32(&text).unwrap(), values);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for (bad, why) in [
            ("AACAPw=", "multiple of 4"),
            ("AACA*w==", "invalid base64 character '*'"),
            ("AA=APw==", "misplaced base64 padding"),
            ("========", "misplaced base64 padding"),
            ("AACAPwAA", "not a whole number of f32s"),
            ("AACAPx==", "non-zero bits"),
            ("AACAé==", "invalid base64 character"),
        ] {
            let err = decode_f32(bad).expect_err(bad);
            assert!(err.contains(why), "{bad}: {err}");
        }
        // Offsets count from the start of the text, in a whole block and in
        // the last, partial one (31 values: ten blocks, then 8 characters).
        let long = encode_f32(&[0.25; 31]);
        assert_eq!(long.len(), 168);
        for (at, c, why) in [
            (37, b'.', "invalid base64 character '.' at offset 37"),
            (161, b'.', "invalid base64 character '.' at offset 161"),
            (165, b'=', "misplaced base64 padding at offset 165"),
        ] {
            let mut text = long.clone().into_bytes();
            text[at] = c;
            assert_eq!(decode_f32(std::str::from_utf8(&text).unwrap()).unwrap_err(), why);
        }
    }
}
