//! Reply checking, done outside every timed call.
//!
//! Every reply is checked for its request id, flags, value length and fill
//! bytes. A key's expected value is the deterministic pattern
//! `KvStore::preload` wrote, until the workload puts to it; from then on
//! the shadow map holds the fill byte and length of the last acked put.

use cf_kv::store::KvStore;

/// What a reply must carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Value length in bytes.
    pub len: usize,
    /// Every value byte.
    pub fill: u8,
}

/// A reply reduced to what the oracle checks.
#[derive(Clone, Copy, Debug)]
pub struct Reply<'a> {
    /// Echoed request id.
    pub id: Option<u32>,
    /// Reply flags (any non-zero flag — `DEGRADED`, `SHED` — is a failure).
    pub flags: u8,
    /// Returned values (one for a GET, none for a put ack).
    pub vals: &'a [Vec<u8>],
}

/// Why a reply failed the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mismatch {
    /// No reply arrived within the round budget.
    Timeout,
    /// The reply has the wrong message type.
    MsgType(u8),
    /// The reply answers another request.
    WrongId { want: u32, got: Option<u32> },
    /// `DEGRADED`, `SHED` or another flag was set.
    Flags(u8),
    /// Wrong number of values.
    ValueCount { want: usize, got: usize },
    /// Wrong value length.
    ValueLen { want: usize, got: usize },
    /// A value byte differs from the expected fill.
    ValueByte { at: usize, want: u8, got: u8 },
}

/// Checks a reply to request `id`: a GET when `get` is `Some`, a put
/// acknowledgement otherwise.
pub fn check(id: u32, reply: Reply<'_>, get: Option<Expected>) -> Result<(), Mismatch> {
    if reply.id != Some(id) {
        return Err(Mismatch::WrongId {
            want: id,
            got: reply.id,
        });
    }
    if reply.flags != 0 {
        return Err(Mismatch::Flags(reply.flags));
    }
    let want_vals = usize::from(get.is_some());
    if reply.vals.len() != want_vals {
        return Err(Mismatch::ValueCount {
            want: want_vals,
            got: reply.vals.len(),
        });
    }
    if let Some(e) = get {
        let v = &reply.vals[0];
        if v.len() != e.len {
            return Err(Mismatch::ValueLen {
                want: e.len,
                got: v.len(),
            });
        }
        if let Some(at) = v.iter().position(|&b| b != e.fill) {
            return Err(Mismatch::ValueByte {
                at,
                want: e.fill,
                got: v[at],
            });
        }
    }
    Ok(())
}

/// Expected single-segment values per key id: preloaded pattern until a
/// put overwrites it.
#[derive(Debug)]
pub struct Shadow {
    /// Last acked put per key: (fill, len).
    put: Vec<Option<(u8, u32)>>,
}

impl Shadow {
    /// A shadow over key ids `0..keys`, nothing put yet.
    pub fn new(keys: usize) -> Self {
        Shadow {
            put: vec![None; keys],
        }
    }

    /// What a GET of key `id` (bytes `key`, preloaded with `preload_len`
    /// bytes) must return.
    pub fn expect(&self, id: usize, key: &[u8], preload_len: usize) -> Expected {
        match self.put[id] {
            Some((fill, len)) => Expected {
                len: len as usize,
                fill,
            },
            None => Expected {
                len: preload_len,
                fill: KvStore::expected_fill(key, 0),
            },
        }
    }

    /// Records an acked put of `len` bytes of `fill` to key `id`.
    pub fn put(&mut self, id: usize, fill: u8, len: usize) {
        self.put[id] = Some((fill, len as u32));
    }
}

/// Put values: `len` bytes of one fill byte, from a table built once in
/// set-up so the timed window never builds a value.
#[derive(Debug)]
pub struct Fills {
    bufs: Vec<Vec<u8>>,
    next: u8,
}

impl Fills {
    /// Values of up to `max_len` bytes for every fill byte.
    pub fn new(max_len: usize) -> Self {
        Fills {
            bufs: (0..=255u8).map(|b| vec![b; max_len]).collect(),
            next: 0,
        }
    }

    /// The next put's fill byte (cycling through all 256).
    pub fn next_fill(&mut self) -> u8 {
        self.next = self.next.wrapping_add(1);
        self.next
    }

    /// `len` bytes of `fill`.
    pub fn value(&self, fill: u8, len: usize) -> &[u8] {
        &self.bufs[usize::from(fill)][..len]
    }
}

/// Flips one byte of the first value, or the request id when there is no
/// value: a deliberately corrupted reply for the oracle's own tests.
pub fn corrupt(id: &mut Option<u32>, vals: &mut [Vec<u8>]) {
    match vals.first_mut().and_then(|v| v.last_mut()) {
        Some(b) => *b ^= 0xFF,
        None => *id = id.map(|i| i.wrapping_add(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get_reply(vals: &[Vec<u8>]) -> Reply<'_> {
        Reply {
            id: Some(9),
            flags: 0,
            vals,
        }
    }

    #[test]
    fn accepts_the_expected_value_and_rejects_each_corruption() {
        let e = Expected { len: 4, fill: 0xAB };
        let good = vec![vec![0xAB; 4]];
        assert_eq!(check(9, get_reply(&good), Some(e)), Ok(()));

        let mut bad = good.clone();
        let mut id = Some(9);
        corrupt(&mut id, &mut bad);
        assert!(matches!(
            check(9, get_reply(&bad), Some(e)),
            Err(Mismatch::ValueByte { at: 3, .. })
        ));
        let short = vec![vec![0xAB; 3]];
        assert!(check(9, get_reply(&short), Some(e)).is_err());
        assert!(check(8, get_reply(&good), Some(e)).is_err());
        let degraded = Reply {
            flags: cf_kv::flags::DEGRADED,
            ..get_reply(&good)
        };
        assert_eq!(
            check(9, degraded, Some(e)),
            Err(Mismatch::Flags(cf_kv::flags::DEGRADED))
        );
        assert!(
            check(9, get_reply(&good), None).is_err(),
            "ack with a value"
        );
    }

    #[test]
    fn shadow_tracks_puts_over_the_preload() {
        let mut s = Shadow::new(2);
        let pre = s.expect(1, b"k", 10);
        assert_eq!(pre.len, 10);
        assert_eq!(pre.fill, KvStore::expected_fill(b"k", 0));
        s.put(1, 7, 3);
        assert_eq!(s.expect(1, b"k", 10), Expected { len: 3, fill: 7 });
    }
}
