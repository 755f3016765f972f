//! Wire encoding: turning language values into bytes.
//!
//! §3 of the paper: strict message-passing implementations "send
//! messages through channels by copying. This buys scalability at the
//! cost of some memory bandwidth overhead." On-die channels move Rust
//! values without encoding; crossing a *cluster* link (§1's
//! BlueGene-style shared-nothing world, §6's thousand-VM alternative)
//! requires marshalling. [`Wire`] is that marshalling, and its cost
//! is charged explicitly by [`rpc`](crate::rpc) endpoints.
//!
//! Encodings are little-endian and length-prefixed; no
//! self-description, no versioning — the protocol layer
//! (`chanos-proto`) owns agreement between the two parties.

use std::fmt;

/// Error from [`Wire::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// Input bytes do not form a valid value of the target type.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => f.write_str("input truncated"),
            WireError::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Values that can cross a cluster link.
///
/// `decode` consumes from the front of `input`, leaving the rest for
/// subsequent fields — tuples and structs decode by chaining.
///
/// `Send + 'static` is a supertrait: wire values are plain owned
/// data, and requiring it here lets RPC endpoints run unchanged on
/// the real-threads backend.
pub trait Wire: Sized + Send + 'static {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Parses a value from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError>;

    /// Length of the encoding in bytes.
    ///
    /// The default implementation encodes into a scratch buffer;
    /// fixed-size types override it.
    fn encoded_len(&self) -> usize {
        let mut scratch = Vec::new();
        self.encode(&mut scratch);
        scratch.len()
    }

    /// Convenience: encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode(&mut out);
        out
    }

    /// Convenience: decodes a value that must consume all of `bytes`.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut input = bytes;
        let v = Self::decode(&mut input)?;
        if input.is_empty() {
            Ok(v)
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

/// Takes `n` bytes off the front of `input`.
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if input.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                let bytes = take(input, size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact length")))
            }
            fn encoded_len(&self) -> usize {
                size_of::<$t>()
            }
        }
    )*};
}

impl_wire_int!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool")),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
    fn encoded_len(&self) -> usize {
        0
    }
}

impl Wire for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        Ok(take(input, len)?.to_vec())
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("utf-8"))
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            _ => Err(WireError::Malformed("option discriminant")),
        }
    }
}

// `Vec<u8>` has a dedicated impl above; other element types go
// through the generic path. (Rust's coherence keeps these separate
// because the blanket impl would overlap, so we wrap in a macro for
// the element types the workspace uses.)
macro_rules! impl_wire_vec {
    ($($t:ty),*) => {$(
        impl Wire for Vec<$t> {
            fn encode(&self, out: &mut Vec<u8>) {
                (self.len() as u32).encode(out);
                for v in self {
                    v.encode(out);
                }
            }
            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                let len = u32::decode(input)? as usize;
                // Guard against hostile lengths: cap the
                // preallocation, let push grow the rest.
                let mut v = Vec::with_capacity(len.min(4096));
                for _ in 0..len {
                    v.push(<$t>::decode(input)?);
                }
                Ok(v)
            }
        }
    )*};
}

impl_wire_vec!(u16, u32, u64, i64, String);

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.encoded_len(), "encoded_len mismatch");
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn integers_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(513u16);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX / 3);
        roundtrip(-1i64);
        roundtrip(i32::MIN);
    }

    #[test]
    fn compounds_roundtrip() {
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
        roundtrip(String::from("hello, многоядерный мир"));
        roundtrip(vec![1u8, 2, 3]);
        roundtrip(Vec::<u8>::new());
        roundtrip(vec![10u64, 20, 30]);
        roundtrip(Some(42u32));
        roundtrip(Option::<u32>::None);
        roundtrip((7u32, String::from("x")));
        roundtrip((1u8, 2u16, vec![3u8]));
    }

    #[test]
    fn truncation_detected() {
        let bytes = 0xdead_beefu32.to_bytes();
        assert_eq!(u32::from_bytes(&bytes[..3]), Err(WireError::Truncated));
        let s = String::from("hello").to_bytes();
        assert_eq!(String::from_bytes(&s[..6]), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7u16.to_bytes();
        bytes.push(9);
        assert_eq!(
            u16::from_bytes(&bytes),
            Err(WireError::Malformed("trailing bytes"))
        );
    }

    #[test]
    fn bad_bool_rejected() {
        assert_eq!(bool::from_bytes(&[2]), Err(WireError::Malformed("bool")));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut bytes = Vec::new();
        2u32.encode(&mut bytes);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(
            String::from_bytes(&bytes),
            Err(WireError::Malformed("utf-8"))
        );
    }

    #[test]
    fn hostile_length_does_not_overallocate() {
        // Length claims 4 GiB but only 2 bytes follow.
        let mut bytes = Vec::new();
        u32::MAX.encode(&mut bytes);
        bytes.extend_from_slice(&[1, 2]);
        assert_eq!(Vec::<u64>::from_bytes(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn chained_fields_decode_in_order() {
        let mut out = Vec::new();
        1u16.encode(&mut out);
        String::from("ab").encode(&mut out);
        9u64.encode(&mut out);
        let mut input = out.as_slice();
        assert_eq!(u16::decode(&mut input).unwrap(), 1);
        assert_eq!(String::decode(&mut input).unwrap(), "ab");
        assert_eq!(u64::decode(&mut input).unwrap(), 9);
        assert!(input.is_empty());
    }
}
