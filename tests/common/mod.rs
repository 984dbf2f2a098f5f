//! What the byte-for-byte format tests share (`wire_format.rs`,
//! `record_layout.rs`).

/// Bytes from hex fields; `xx*n` repeats a byte `n` times.
pub fn hex(fields: &[&str]) -> Vec<u8> {
    let mut out = Vec::new();
    for token in fields.iter().flat_map(|f| f.split_whitespace()) {
        let (byte, times) = token.split_once('*').unwrap_or((token, "1"));
        let byte = u8::from_str_radix(byte, 16).expect("hex byte");
        out.extend(std::iter::repeat_n(byte, times.parse().expect("count")));
    }
    out
}
