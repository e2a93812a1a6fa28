//! Owned byte copies that start on a cache line.
//!
//! The simulator's cache model charges copies by address. A plain `Vec<u8>`
//! copy lands wherever the heap puts it, so its offset within a 64-byte
//! line — and with it the number of lines a charged copy touches — shifts
//! with every earlier allocation. Library-owned copies that are later
//! charged (retained requests a client retransmits, for one) live in a
//! [`LineBytes`] instead, whose first byte always starts a line.

/// Cache line size the alignment targets, in bytes.
const LINE: usize = 64;

/// An owned byte buffer whose contents start on a 64-byte boundary.
#[derive(Debug)]
pub struct LineBytes {
    /// Over-allocated by up to `LINE - 1` bytes of leading padding; never
    /// grown after construction, so the alignment holds.
    buf: Vec<u8>,
    start: usize,
}

impl LineBytes {
    /// Copies `data` into a fresh line-aligned buffer.
    pub fn new(data: &[u8]) -> Self {
        let mut buf: Vec<u8> = Vec::with_capacity(data.len() + LINE - 1);
        let start = buf.as_ptr().align_offset(LINE);
        buf.resize(start, 0);
        buf.extend_from_slice(data);
        LineBytes { buf, start }
    }

    /// The copied bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

impl Clone for LineBytes {
    fn clone(&self) -> Self {
        LineBytes::new(self.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copies_start_on_a_line_whatever_came_before() {
        for pad in 0..80 {
            let _junk = vec![0u8; pad];
            for len in [0, 1, 30, 64, 65, 300] {
                let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
                let copy = LineBytes::new(&data);
                assert_eq!(copy.as_slice(), &data[..]);
                assert_eq!(copy.as_slice().as_ptr() as usize % LINE, 0);
                let twin = copy.clone();
                assert_eq!(twin.as_slice(), &data[..]);
                assert_eq!(twin.as_slice().as_ptr() as usize % LINE, 0);
            }
        }
    }
}
